//! A blocking protocol client.
//!
//! One reader thread demultiplexes the server's line stream into typed
//! channels: submit replies (`Accepted`/`Rejected`, FIFO — the server
//! answers submissions in request order), terminal `Done`s, progress
//! `Event`s, and control traffic (`Pong`/`CancelAck`/`Goodbye`). The
//! caller's thread does blocking writes; all waits take explicit
//! timeouts so a dead server can't hang a harness.
//!
//! Used by `bench-load`, the network integration tests, and scripts;
//! it is also the reference implementation of the client side of the
//! protocol (handshake first, ignore unknown response variants, treat
//! `Goodbye` as end-of-submissions rather than end-of-stream).

use super::protocol::{
    decode_response, encode_request, Event, JobDone, RejectCode, Request, Response,
    PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Identity sent in the `Hello` (for server logs).
    pub client_name: String,
    /// Deadline for the handshake and for control replies.
    pub control_timeout: Duration,
    /// Forward `Event`s to [`Client::try_next_event`] (they are always
    /// counted either way).
    pub collect_events: bool,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            client_name: "infera-client".to_string(),
            control_timeout: Duration::from_secs(10),
            collect_events: false,
        }
    }
}

/// How the server answered a `Submit`.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    Accepted { job: u64, salt: u64 },
    Rejected { code: RejectCode, message: String },
}

/// Why [`Client::connect`] failed.
#[derive(Debug, Clone)]
pub enum ConnectError {
    /// The server refused the connection with a typed `Goodbye`
    /// (draining) or a handshake `Error`.
    Refused { kind: String, message: String },
    /// Transport-level failure (connect, write, deadline).
    Io(String),
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::Refused { kind, message } => write!(f, "refused ({kind}): {message}"),
            ConnectError::Io(message) => write!(f, "io: {message}"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// Facts from the server's `Hello`.
#[derive(Debug, Clone)]
pub struct ServerInfo {
    pub protocol_version: u32,
    pub server: String,
    pub workers: u64,
    pub queue_capacity: u64,
}

/// A connected protocol client. Dropping it closes the socket (which
/// cancels any still-running jobs server-side — send [`Request::Bye`]
/// via [`Client::bye`] first if that is not intended... it is intended
/// for most harness uses).
pub struct Client {
    stream: TcpStream,
    info: ServerInfo,
    submit_rx: Receiver<SubmitOutcome>,
    done_rx: Receiver<JobDone>,
    event_rx: Receiver<Event>,
    control_rx: Receiver<Response>,
    events_seen: Arc<AtomicU64>,
    goodbye: Arc<AtomicBool>,
    control_timeout: Duration,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Client {
    /// Connect and run the handshake.
    pub fn connect(addr: &str, config: &ClientConfig) -> Result<Client, ConnectError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ConnectError::Io(format!("connect {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let read_half = stream
            .try_clone()
            .map_err(|e| ConnectError::Io(format!("clone stream: {e}")))?;
        let (submit_tx, submit_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let (event_tx, event_rx) = mpsc::channel();
        let (control_tx, control_rx) = mpsc::channel();
        let events_seen = Arc::new(AtomicU64::new(0));
        let goodbye = Arc::new(AtomicBool::new(false));
        let reader = {
            let events_seen = events_seen.clone();
            let goodbye = goodbye.clone();
            let collect_events = config.collect_events;
            std::thread::spawn(move || {
                reader_loop(
                    read_half,
                    &submit_tx,
                    &done_tx,
                    &event_tx,
                    &control_tx,
                    &events_seen,
                    &goodbye,
                    collect_events,
                )
            })
        };
        let mut client = Client {
            stream,
            info: ServerInfo {
                protocol_version: 0,
                server: String::new(),
                workers: 0,
                queue_capacity: 0,
            },
            submit_rx,
            done_rx,
            event_rx,
            control_rx,
            events_seen,
            goodbye,
            control_timeout: config.control_timeout,
            reader: Some(reader),
        };
        if let Err(write_err) = client.write_request(&Request::Hello {
            protocol_version: PROTOCOL_VERSION,
            client: Some(config.client_name.clone()),
        }) {
            // A draining server pushes `Goodbye` and closes before our
            // hello lands — the write breaks, but the refusal may
            // already be on the control channel. Classify it as a
            // typed refusal, not a transport error.
            return match client.control_rx.recv_timeout(Duration::from_millis(500)) {
                Ok(Response::Goodbye { code, message }) => Err(refusal(code, message)),
                Ok(Response::Error { kind, message }) => {
                    Err(ConnectError::Refused { kind, message })
                }
                _ => Err(ConnectError::Io(write_err)),
            };
        }
        match client.control_rx.recv_timeout(client.control_timeout) {
            Ok(Response::Hello {
                protocol_version,
                server,
                workers,
                queue_capacity,
            }) => {
                client.info = ServerInfo {
                    protocol_version,
                    server,
                    workers,
                    queue_capacity,
                };
                Ok(client)
            }
            Ok(Response::Goodbye { code, message }) => Err(refusal(code, message)),
            Ok(Response::Error { kind, message }) => Err(ConnectError::Refused { kind, message }),
            Ok(other) => Err(ConnectError::Io(format!(
                "unexpected handshake response: {other:?}"
            ))),
            Err(_) => Err(ConnectError::Io("handshake timed out".to_string())),
        }
    }

    /// Server facts from the handshake.
    pub fn server_info(&self) -> &ServerInfo {
        &self.info
    }

    fn write_request(&mut self, req: &Request) -> Result<(), String> {
        let line = encode_request(req);
        writeln!(self.stream, "{line}")
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("write: {e}"))
    }

    /// Submit a question; blocks until the server's `Accepted`/`Rejected`.
    pub fn submit(
        &mut self,
        question: &str,
        salt: Option<u64>,
        events: bool,
    ) -> Result<SubmitOutcome, String> {
        self.write_request(&Request::Submit {
            question: question.to_string(),
            salt,
            semantic: None,
            timeout_ms: None,
            events,
        })?;
        self.submit_rx
            .recv_timeout(self.control_timeout)
            .map_err(|_| "no submit reply before deadline".to_string())
    }

    /// Request cancellation of a job; returns the server's `known` flag.
    pub fn cancel(&mut self, job: u64) -> Result<bool, String> {
        self.write_request(&Request::Cancel { job })?;
        match self.control_rx.recv_timeout(self.control_timeout) {
            Ok(Response::CancelAck { known, .. }) => Ok(known),
            Ok(other) => Err(format!("unexpected cancel reply: {other:?}")),
            Err(_) => Err("no cancel ack before deadline".to_string()),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> bool {
        if self.write_request(&Request::Ping).is_err() {
            return false;
        }
        matches!(
            self.control_rx.recv_timeout(self.control_timeout),
            Ok(Response::Pong)
        )
    }

    /// Block up to `timeout` for the next terminal `Done`.
    pub fn next_done(&self, timeout: Duration) -> Option<JobDone> {
        self.done_rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking poll for a buffered progress event (only populated
    /// with [`ClientConfig::collect_events`]).
    pub fn try_next_event(&self) -> Option<Event> {
        self.event_rx.try_recv().ok()
    }

    /// Progress events received over the connection's lifetime.
    pub fn events_seen(&self) -> u64 {
        self.events_seen.load(Ordering::Relaxed)
    }

    /// Whether the server said `Goodbye` (drain or answer to `Bye`).
    pub fn goodbye_received(&self) -> bool {
        self.goodbye.load(Ordering::Relaxed)
    }

    /// Orderly close: send `Bye`, wait for the server's `Goodbye` (up to
    /// the control timeout, and no longer than the connection lives: the
    /// reader closes the control channel when the server goes away), drop.
    pub fn bye(mut self) {
        if self.goodbye_received() || self.write_request(&Request::Bye).is_err() {
            return;
        }
        let deadline = Instant::now() + self.control_timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.control_rx.recv_timeout(left) {
                Ok(Response::Goodbye { .. }) | Err(_) => return,
                // A reply to an earlier request nobody waited for.
                Ok(_) => {}
            }
        }
    }

    /// Hard disconnect: drop the socket without `Bye` — the server
    /// cancels this connection's in-flight jobs (the disconnect test
    /// path).
    pub fn abort(mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        // Reader sees EOF and exits; Drop joins it.
        let _ = self.reader.take().map(|h| h.join());
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
/// Map a server `Goodbye` during the handshake to its typed refusal.
fn refusal(code: Option<RejectCode>, message: String) -> ConnectError {
    ConnectError::Refused {
        kind: match code {
            Some(RejectCode::ShuttingDown) => "shutting_down".to_string(),
            Some(RejectCode::QueueFull { .. }) => "queue_full".to_string(),
            Some(RejectCode::CircuitOpen { .. }) => "circuit_open".to_string(),
            _ => "goodbye".to_string(),
        },
        message,
    }
}

fn reader_loop(
    read_half: TcpStream,
    submit_tx: &Sender<SubmitOutcome>,
    done_tx: &Sender<JobDone>,
    event_tx: &Sender<Event>,
    control_tx: &Sender<Response>,
    events_seen: &AtomicU64,
    goodbye: &AtomicBool,
    collect_events: bool,
) {
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let Ok(resp) = decode_response(&line) else {
            // Unknown variants from a newer server minor: skip, per the
            // protocol's forward-compatibility rule.
            continue;
        };
        match resp {
            Response::Accepted { job, salt } => {
                let _ = submit_tx.send(SubmitOutcome::Accepted { job, salt });
            }
            Response::Rejected { code, message } => {
                let _ = submit_tx.send(SubmitOutcome::Rejected { code, message });
            }
            Response::Done(done) => {
                let _ = done_tx.send(done);
            }
            Response::Event(event) => {
                events_seen.fetch_add(1, Ordering::Relaxed);
                if collect_events {
                    let _ = event_tx.send(event);
                }
            }
            Response::Goodbye { .. } => {
                goodbye.store(true, Ordering::Relaxed);
                let _ = control_tx.send(resp);
            }
            other => {
                let _ = control_tx.send(other);
            }
        }
    }
}
