//! The transport-agnostic connection core.
//!
//! One [`run_connection`] call services one protocol peer — a TCP
//! socket (spawned per-connection by [`NetServer`]) or the process's
//! stdin/stdout (`infera serve` without `--listen`). Both transports
//! share this code, so there is exactly one admission path: a full
//! queue, an open circuit, or a drain all answer with the same typed
//! [`Response::Rejected`] regardless of how the question arrived.
//!
//! Per connection there are two threads:
//!
//! * the **reader** (the calling thread): parses request lines, runs
//!   admission via [`Scheduler::submit`] / [`Scheduler::submit_streaming`],
//!   and writes the immediate response (`Hello`/`Accepted`/`Rejected`/
//!   `CancelAck`/`Pong`) before registering the job with the pump — so
//!   `Accepted` always precedes any `Event`/`Done` for that job;
//! * the **pump**: forwards each streaming job's bus events and, on
//!   completion (routed via [`JobHandle::notify`]), flushes the job's
//!   remaining events and writes the terminal [`Response::Done`]. The
//!   scheduler publishes a job's terminal bus event before completing
//!   its slot, so the drain-then-`Done` order loses nothing. The pump
//!   blocks on its one channel, which a worker's completion and the
//!   reader's "a streaming job was registered" both write to; only while
//!   a streaming job is in flight does it wake every `PUMP_TICK` (2 ms) to
//!   poll the job's event subscription.
//!
//! Reader EOF or a broken writer ends the connection; with
//! [`ConnOptions::cancel_on_eof`] every in-flight job is canceled
//! through its [`JobHandle`] (the network server's
//! disconnect-cancels-job path), otherwise the pump drains them to
//! completion first (the stdio path: piped questions all get answers).
//!
//! [`NetServer`]: crate::net::server::NetServer
//! [`Scheduler::submit`]: crate::Scheduler::submit
//! [`Scheduler::submit_streaming`]: crate::Scheduler::submit_streaming
//! [`JobHandle`]: crate::JobHandle
//! [`JobHandle::notify`]: crate::JobHandle::notify
//! [`Response::Rejected`]: protocol::Response

use super::protocol::{
    self, encode_response, event_from_bus, handshake_check, JobDone, Request, Response,
    PROTOCOL_VERSION, PROTOCOL_VIOLATION,
};
use crate::handle::{JobEvents, JobHandle};
use crate::job::{JobResult, JobSpec};
use crate::scheduler::Scheduler;
use infera_llm::SemanticLevel;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// How long a pump with a streaming job in flight waits for a completion
/// before it polls the event subscriptions again.
const PUMP_TICK: Duration = Duration::from_millis(2);

/// What ends a pump's wait.
enum PumpWake {
    /// A job of this connection finished (sent by the worker).
    Done(JobResult),
    /// The reader registered a streaming job: its events need polling.
    Stream,
}

/// Per-connection behavior knobs (transport-specific defaults live on
/// the server / CLI).
#[derive(Debug, Clone)]
pub struct ConnOptions {
    /// Server identity reported in the `Hello` response.
    pub server_name: String,
    /// Require a `Hello` handshake before anything else (network); the
    /// stdio transport skips it — the peer is the same machine.
    pub require_hello: bool,
    /// Treat non-JSON input lines as `Submit { question: line }` sugar
    /// (the stdio transport's "questions on stdin, one per line").
    pub plain_lines_submit: bool,
    /// Whether plain-line submissions stream events.
    pub plain_lines_events: bool,
    /// Cancel in-flight jobs when the peer goes away (network) instead
    /// of draining them to completion (stdio).
    pub cancel_on_eof: bool,
    /// Per-job event subscription buffer (events beyond it drop,
    /// counted on the bus, never blocking workers).
    pub event_capacity: usize,
}

impl Default for ConnOptions {
    fn default() -> ConnOptions {
        ConnOptions {
            server_name: "infera-serve".to_string(),
            require_hello: true,
            plain_lines_submit: false,
            plain_lines_events: false,
            cancel_on_eof: true,
            event_capacity: 8192,
        }
    }
}

impl ConnOptions {
    /// The stdio transport: no handshake, plain-line sugar, drain on EOF.
    pub fn stdio(stream_events: bool) -> ConnOptions {
        ConnOptions {
            require_hello: false,
            plain_lines_submit: true,
            plain_lines_events: stream_events,
            cancel_on_eof: false,
            ..ConnOptions::default()
        }
    }
}

/// What one connection did, for logs and the load bench.
#[derive(Debug, Clone, Default)]
pub struct ConnStats {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub events_sent: u64,
    pub protocol_errors: u64,
    /// In-flight jobs canceled because the peer disconnected.
    pub canceled_on_eof: u64,
}

struct JobTable {
    /// Handles for every not-yet-completed job on this connection.
    inflight: HashMap<u64, JobHandle>,
    /// Event subscriptions for jobs submitted with `events: true`.
    streams: HashMap<u64, JobEvents>,
}

struct ConnShared<W: Write + Send> {
    writer: Mutex<W>,
    jobs: Mutex<JobTable>,
    /// Reader hit EOF / error: the pump finishes its drain and exits.
    reader_done: AtomicBool,
    /// The writer failed (peer gone): both sides bail out.
    broken: AtomicBool,
    events_sent: AtomicU64,
    completed: AtomicU64,
}

impl<W: Write + Send> ConnShared<W> {
    /// Write one response line; a failure marks the connection broken.
    fn send(&self, resp: &Response) -> bool {
        let line = encode_response(resp);
        let mut w = self.writer.lock();
        let ok = writeln!(w, "{line}").and_then(|()| w.flush()).is_ok();
        if !ok {
            self.broken.store(true, Ordering::Relaxed);
        }
        ok
    }
}

fn parse_semantic(label: &str) -> Option<SemanticLevel> {
    match label.to_ascii_lowercase().as_str() {
        "easy" => Some(SemanticLevel::Easy),
        "medium" => Some(SemanticLevel::Medium),
        "hard" => Some(SemanticLevel::Hard),
        _ => None,
    }
}

/// Service one peer: read request lines from `reader`, write response
/// lines to `writer`, until EOF, `Bye`, or a broken transport. Blocks
/// the calling thread; spawns (and joins) one pump thread.
///
/// `reader` reads that fail with `WouldBlock`/`TimedOut` are treated as
/// poll ticks, not EOF — the network server sets a socket read timeout
/// so this loop can observe `external_stop` (server drain) promptly.
pub fn run_connection<R, W>(
    scheduler: &Arc<Scheduler>,
    reader: R,
    writer: W,
    opts: &ConnOptions,
    external_stop: Option<&AtomicBool>,
) -> ConnStats
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let shared = Arc::new(ConnShared {
        writer: Mutex::new(writer),
        jobs: Mutex::new(JobTable {
            inflight: HashMap::new(),
            streams: HashMap::new(),
        }),
        reader_done: AtomicBool::new(false),
        broken: AtomicBool::new(false),
        events_sent: AtomicU64::new(0),
        completed: AtomicU64::new(0),
    });
    let (wake_tx, wake_rx) = mpsc::channel::<PumpWake>();
    let pump = {
        let shared = shared.clone();
        std::thread::spawn(move || pump_loop(&shared, &wake_rx))
    };

    let mut stats = ConnStats::default();
    let mut handshaken = !opts.require_hello;
    let mut reader = reader;
    let mut line = String::new();
    loop {
        if shared.broken.load(Ordering::Relaxed) {
            break;
        }
        if let Some(stop) = external_stop {
            if stop.load(Ordering::Relaxed) {
                shared.send(&Response::Goodbye {
                    code: Some(protocol::RejectCode::ShuttingDown),
                    message: "server stopping".to_string(),
                });
                break;
            }
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // poll tick: re-check stop flags
            }
            Err(_) => break,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = if !trimmed.starts_with('{') && !trimmed.starts_with('"')
            && opts.plain_lines_submit
        {
            Ok(Request::Submit {
                question: trimmed.to_string(),
                salt: None,
                semantic: None,
                timeout_ms: None,
                events: opts.plain_lines_events,
            })
        } else {
            protocol::decode_request(trimmed)
        };
        let request = match request {
            Ok(request) => request,
            Err(err) => {
                stats.protocol_errors += 1;
                shared.send(&Response::Error {
                    kind: err.kind.to_string(),
                    message: err.message,
                });
                continue;
            }
        };
        match request {
            Request::Hello {
                protocol_version, ..
            } => match handshake_check(protocol_version) {
                Ok(()) if !handshaken || !opts.require_hello => {
                    handshaken = true;
                    shared.send(&Response::Hello {
                        protocol_version: PROTOCOL_VERSION,
                        server: opts.server_name.clone(),
                        workers: scheduler.workers() as u64,
                        queue_capacity: scheduler.queue_capacity() as u64,
                    });
                }
                Ok(()) => {
                    stats.protocol_errors += 1;
                    shared.send(&Response::Error {
                        kind: PROTOCOL_VIOLATION.to_string(),
                        message: "duplicate Hello".to_string(),
                    });
                }
                Err(err) => {
                    stats.protocol_errors += 1;
                    shared.send(&Response::Error {
                        kind: err.kind.to_string(),
                        message: err.message,
                    });
                    break; // version skew is unrecoverable on this connection
                }
            },
            Request::Submit {
                question,
                salt,
                semantic,
                timeout_ms,
                events,
            } => {
                if !handshaken {
                    stats.protocol_errors += 1;
                    shared.send(&Response::Error {
                        kind: PROTOCOL_VIOLATION.to_string(),
                        message: "Submit before Hello".to_string(),
                    });
                    continue;
                }
                stats.submitted += 1;
                let mut spec =
                    JobSpec::new(question, salt.unwrap_or_else(|| scheduler.auto_salt()));
                if let Some(level) = semantic.as_deref().and_then(parse_semantic) {
                    spec = spec.semantic(level);
                }
                if let Some(ms) = timeout_ms {
                    spec = spec.timeout(Duration::from_millis(ms));
                }
                let submitted = if events {
                    scheduler.submit_streaming(spec, opts.event_capacity)
                } else {
                    scheduler.submit(spec)
                };
                match submitted {
                    Ok(mut handle) => {
                        stats.accepted += 1;
                        // Immediate ack first: `Accepted` must precede
                        // every `Event`/`Done` line for this job, and the
                        // pump only learns about the job below.
                        shared.send(&Response::Accepted {
                            job: handle.id(),
                            salt: handle.salt(),
                        });
                        let stream = handle.take_events();
                        let mut jobs = shared.jobs.lock();
                        if let Some(stream) = stream {
                            jobs.streams.insert(handle.id(), stream);
                            let _ = wake_tx.send(PumpWake::Stream);
                        }
                        let done_tx = wake_tx.clone();
                        handle.notify(move |result| {
                            let _ = done_tx.send(PumpWake::Done(result));
                        });
                        jobs.inflight.insert(handle.id(), handle);
                    }
                    Err(reason) => {
                        stats.rejected += 1;
                        shared.send(&Response::Rejected {
                            code: protocol::RejectCode::from(&reason),
                            message: reason.to_string(),
                        });
                    }
                }
            }
            Request::Cancel { job } => {
                // Per-client isolation: a connection can only cancel its
                // own jobs (ids from other connections report unknown).
                let known = match shared.jobs.lock().inflight.get(&job) {
                    Some(handle) => {
                        handle.cancel();
                        true
                    }
                    None => false,
                };
                shared.send(&Response::CancelAck { job, known });
            }
            Request::Ping => {
                shared.send(&Response::Pong);
            }
            Request::Bye => {
                shared.send(&Response::Goodbye {
                    code: None,
                    message: "bye".to_string(),
                });
                break;
            }
        }
    }

    // Reader is done. Cancel-on-EOF (network): the peer is gone, so
    // in-flight work is wasted — cancel through the handles and let the
    // pump drain the (now fast) completions.
    if opts.cancel_on_eof {
        let jobs = shared.jobs.lock();
        for handle in jobs.inflight.values() {
            if !handle.is_finished() {
                handle.cancel();
                stats.canceled_on_eof += 1;
            }
        }
    }
    shared.reader_done.store(true, Ordering::Relaxed);
    // The last sender but the ones in-flight jobs hold: once those have
    // completed, the pump's wait ends disconnected.
    drop(wake_tx);
    let _ = pump.join();
    stats.events_sent = shared.events_sent.load(Ordering::Relaxed);
    stats.completed = shared.completed.load(Ordering::Relaxed);
    stats
}

fn pump_loop<W: Write + Send>(shared: &ConnShared<W>, wake_rx: &mpsc::Receiver<PumpWake>) {
    // A completion: flush the job's buffered events, then the terminal
    // Done. The scheduler publishes the terminal bus event before
    // completing the slot, so the stream is whole.
    let deliver = |result: JobResult| {
        let stream = shared.jobs.lock().streams.remove(&result.id);
        if let Some(stream) = stream {
            forward_events(shared, &stream);
        }
        shared.send(&Response::Done(JobDone::from(&result)));
        shared.completed.fetch_add(1, Ordering::Relaxed);
        shared.jobs.lock().inflight.remove(&result.id);
    };
    loop {
        let mut wrote = false;
        // Completions first.
        while let Ok(wake) = wake_rx.try_recv() {
            if let PumpWake::Done(result) = wake {
                deliver(result);
                wrote = true;
            }
        }
        // Then live progress for still-running streaming jobs.
        let ids: Vec<u64> = shared.jobs.lock().streams.keys().copied().collect();
        let streaming = !ids.is_empty();
        for id in ids {
            // Pull each event outside the table lock: send() blocks on
            // the writer, and the reader needs the table for submits.
            loop {
                let ev = match shared.jobs.lock().streams.get(&id) {
                    Some(stream) => stream.try_next(),
                    None => None,
                };
                let Some(ev) = ev else { break };
                if let Some(wire) = event_from_bus(&ev) {
                    shared.send(&Response::Event(wire));
                    shared.events_sent.fetch_add(1, Ordering::Relaxed);
                    wrote = true;
                }
            }
        }
        if shared.broken.load(Ordering::Relaxed) {
            break;
        }
        if !wrote {
            // A pending completion implies its job is still in
            // `inflight` (removal happens after its Done is written), so
            // an empty table means everything was delivered.
            let reader_done = shared.reader_done.load(Ordering::Relaxed);
            if reader_done && shared.jobs.lock().inflight.is_empty() {
                break;
            }
            // Idle. A completion ends the wait at once, so a `Done` never
            // sits out a tick; the tick only paces the event poll, and
            // with no stream polled above the wait has no deadline — one
            // registered since is announced on the channel.
            let wake = if streaming {
                wake_rx.recv_timeout(PUMP_TICK)
            } else {
                wake_rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
            };
            match wake {
                Ok(PumpWake::Done(result)) => deliver(result),
                Ok(PumpWake::Stream) | Err(RecvTimeoutError::Timeout) => {}
                // Reader gone and every watched job delivered.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
}

fn forward_events<W: Write + Send>(shared: &ConnShared<W>, stream: &JobEvents) {
    for ev in stream.drain() {
        if let Some(wire) = event_from_bus(&ev) {
            shared.send(&Response::Event(wire));
            shared.events_sent.fetch_add(1, Ordering::Relaxed);
        }
    }
}
