//! [`NetServer`]: the thread-per-connection TCP front end.
//!
//! An accept loop blocks in `accept` and hands each connection to
//! [`conn::run_connection`] on its own thread; sockets get a short read
//! timeout so reader loops can observe server state between lines.
//! Admission, caching, breaking, retries, and event streaming all live
//! in the scheduler/conn layers — this module only owns sockets and
//! lifecycle:
//!
//! * **Graceful drain** ([`NetServer::begin_shutdown`]): new
//!   connections are greeted with `Goodbye { code: ShuttingDown }` and
//!   closed; new submissions on existing connections reject the same
//!   way (the scheduler is draining); accepted jobs run to completion
//!   and their `Done` lines still reach their clients. Zero accepted
//!   jobs are lost.
//! * **Hard stop** (the tail of [`NetServer::shutdown`], and all of
//!   `Drop`): connection readers are told to stop, each sends a final
//!   `Goodbye`, pumps flush, and every thread is joined. The accept loop
//!   is woken from `accept` by a connection the server makes to itself,
//!   the reaper by its stop channel closing.
//! * **Disconnect cancels**: a client that goes away takes its
//!   in-flight jobs with it via the `CancelToken` path
//!   ([`ConnOptions::cancel_on_eof`]).
//!
//! A small reaper thread empties the scheduler's completion-ordered
//! channel every 200 ms: connections are served through handles, so
//! nobody else reads it while the server runs, and a long-lived server
//! must not let it grow without bound.
//!
//! [`ConnOptions::cancel_on_eof`]: super::conn::ConnOptions

use super::conn::{self, ConnOptions, ConnStats};
use super::protocol::{encode_response, RejectCode, Response};
use crate::scheduler::Scheduler;
use infera_core::{InferaError, InferaResult};
use parking_lot::Mutex;
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Network server configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Identity reported in `Hello` responses.
    pub server_name: String,
    /// Per-job event subscription buffer for streaming submissions.
    pub event_capacity: usize,
    /// Socket read timeout — the cadence at which connection readers
    /// notice server drain/stop between request lines.
    pub read_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            server_name: "infera-serve".to_string(),
            event_capacity: 8192,
            read_timeout: Duration::from_millis(100),
        }
    }
}

/// Aggregate across all finished connections.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    pub connections: u64,
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub events_sent: u64,
    pub protocol_errors: u64,
    pub canceled_on_eof: u64,
    /// Connections refused because the server was draining.
    pub refused_draining: u64,
}

struct ServerState {
    /// Refuse new connections (typed `Goodbye`), keep existing ones.
    draining: AtomicBool,
    /// Terminate accept loop and connection readers.
    stopping: AtomicBool,
    refused_draining: AtomicU64,
    connections: AtomicU64,
    totals: Mutex<ServerStats>,
}

impl ServerState {
    fn absorb(&self, stats: &ConnStats) {
        let mut totals = self.totals.lock();
        totals.connections += 1;
        totals.submitted += stats.submitted;
        totals.accepted += stats.accepted;
        totals.rejected += stats.rejected;
        totals.completed += stats.completed;
        totals.events_sent += stats.events_sent;
        totals.protocol_errors += stats.protocol_errors;
        totals.canceled_on_eof += stats.canceled_on_eof;
    }
}

/// The running TCP front end. Bind with [`NetServer::bind`]; stop with
/// [`NetServer::shutdown`] (graceful: drains accepted jobs first).
/// Dropping it is the hard stop alone: in-flight jobs are canceled with
/// their connections, the port and the scheduler are released.
pub struct NetServer {
    scheduler: Arc<Scheduler>,
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    /// Dropped to end the reaper's nap.
    reaper_stop: Option<mpsc::Sender<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `127.0.0.1:7433`, or port `0` for an ephemeral
    /// test port) and start accepting connections.
    pub fn bind(
        scheduler: Arc<Scheduler>,
        addr: &str,
        config: NetServerConfig,
    ) -> InferaResult<NetServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| InferaError::invalid_input(format!("bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| InferaError::internal(format!("local_addr: {e}")))?;
        let state = Arc::new(ServerState {
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            refused_draining: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            totals: Mutex::new(ServerStats::default()),
        });
        let accept_thread = {
            let scheduler = scheduler.clone();
            let state = state.clone();
            std::thread::Builder::new()
                .name("infera-net-accept".to_string())
                .spawn(move || accept_loop(&listener, &scheduler, &state, &config))
                .map_err(|e| InferaError::internal(format!("spawn accept loop: {e}")))?
        };
        let (reaper_stop, stopped) = mpsc::channel::<()>();
        let reaper = {
            let scheduler = scheduler.clone();
            std::thread::Builder::new()
                .name("infera-net-reaper".to_string())
                .spawn(move || {
                    // Keep the completion-ordered channel empty: results
                    // are delivered through handles, nobody reads it.
                    // Nothing is ever sent on `stopped`; it disconnects.
                    while let Err(RecvTimeoutError::Timeout) =
                        stopped.recv_timeout(Duration::from_millis(200))
                    {
                        scheduler.drain_results();
                    }
                })
                .map_err(|e| InferaError::internal(format!("spawn reaper: {e}")))?
        };
        Ok(NetServer {
            scheduler,
            state,
            local_addr,
            accept_thread: Some(accept_thread),
            reaper: Some(reaper),
            reaper_stop: Some(reaper_stop),
        })
    }

    /// The bound address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Begin a graceful drain: refuse new connections with a typed
    /// `Goodbye`, reject new submissions (the scheduler is draining),
    /// keep running accepted jobs and delivering their results.
    pub fn begin_shutdown(&self) {
        self.state.draining.store(true, Ordering::Relaxed);
        self.scheduler.begin_shutdown();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::Relaxed)
    }

    /// Connections refused with `Goodbye { ShuttingDown }` during drain.
    pub fn refused_draining(&self) -> u64 {
        self.state.refused_draining.load(Ordering::Relaxed)
    }

    /// Block until every accepted job has completed (the scheduler's
    /// in-flight table is empty; the worker that empties it wakes this
    /// wait). Call after [`NetServer::begin_shutdown`]: new work can't
    /// arrive, so the table only empties.
    pub fn await_drain(&self) {
        self.scheduler.wait_idle();
    }

    /// Graceful shutdown: drain accepted jobs, let pumps flush their
    /// final `Done`s, send every connection a `Goodbye`, join all
    /// threads, and return the aggregate stats. The scheduler itself is
    /// left to its owner (call [`Scheduler::shutdown`] after this).
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_shutdown();
        self.await_drain();
        self.hard_stop();
        self.scheduler.drain_results();
        let mut stats = self.state.totals.lock().clone();
        stats.refused_draining = self.state.refused_draining.load(Ordering::Relaxed);
        stats
    }

    /// Stop accepting, tell every connection reader to say `Goodbye`,
    /// and join the accept loop (which joins the connections) and the
    /// reaper. A second call finds nothing left to stop.
    fn hard_stop(&mut self) {
        self.state.stopping.store(true, Ordering::SeqCst);
        self.reaper_stop = None;
        if let Some(handle) = self.accept_thread.take() {
            // The accept loop is blocked in `accept` and reads `stopping`
            // as soon as a connection arrives: make one. A wildcard bind
            // is reached through loopback.
            let mut addr = self.local_addr;
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        if let Some(handle) = self.reaper.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.hard_stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    scheduler: &Arc<Scheduler>,
    state: &Arc<ServerState>,
    config: &NetServerConfig,
) {
    let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Before the draining branch: the connection that ends the wait of
        // a stopping server is its own (`NetServer::hard_stop`), and a
        // polite refusal would hold the stop for `refuse_draining`'s
        // deadline.
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if state.draining.load(Ordering::Relaxed) {
                    refuse_draining(stream, state);
                    continue;
                }
                state.connections.fetch_add(1, Ordering::Relaxed);
                let scheduler = scheduler.clone();
                let conn_state = state.clone();
                let opts = ConnOptions {
                    server_name: config.server_name.clone(),
                    event_capacity: config.event_capacity,
                    ..ConnOptions::default()
                };
                let read_timeout = config.read_timeout;
                let spawned = std::thread::Builder::new()
                    .name("infera-net-conn".to_string())
                    .spawn(move || {
                        let stats =
                            serve_connection(stream, &scheduler, &conn_state, &opts, read_timeout);
                        conn_state.absorb(&stats);
                    });
                match spawned {
                    Ok(handle) => conn_threads.push(handle),
                    Err(_) => {
                        state.connections.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            // Out of descriptors, or a connection reset in the backlog:
            // don't spin on it.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        // Prune finished connection threads so a long-lived server
        // doesn't accumulate join handles.
        conn_threads.retain(|h| !h.is_finished());
    }
    for handle in conn_threads {
        let _ = handle.join();
    }
}

/// The drain-time refusal: a typed `Goodbye` so clients distinguish
/// "server going away" from a crash, then close.
fn refuse_draining(mut stream: TcpStream, state: &ServerState) {
    state.refused_draining.fetch_add(1, Ordering::Relaxed);
    let goodbye = Response::Goodbye {
        code: Some(RejectCode::ShuttingDown),
        message: "server draining: in-flight jobs are completing, no new connections".to_string(),
    };
    let _ = writeln!(stream, "{}", encode_response(&goodbye));
    let _ = stream.flush();
    // The client's `Hello` is usually already in flight (connect
    // returns before we accept). Dropping the socket before those
    // bytes are consumed closes with RST, and RST discards the goodbye
    // from the peer's receive buffer. Half-close, then hold the socket
    // until the hello has been drained (or a short deadline), so the
    // refusal arrives on a clean FIN.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = std::time::Instant::now() + Duration::from_millis(500);
    let mut sink = [0u8; 256];
    let mut saw_data = false;
    use std::io::Read;
    loop {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => saw_data = true,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if saw_data || std::time::Instant::now() >= deadline {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    scheduler: &Arc<Scheduler>,
    state: &Arc<ServerState>,
    opts: &ConnOptions,
    read_timeout: Duration,
) -> ConnStats {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let reader = match stream.try_clone() {
        Ok(read_half) => BufReader::new(read_half),
        Err(_) => return ConnStats::default(),
    };
    // Injection site: the connection boundary. A faulted connection is
    // dropped before its reader starts — clients see a reset, and the
    // chaos suite asserts the pool and other connections survive.
    if infera_faults::check(infera_faults::sites::SERVE_JOB).is_some() {
        return ConnStats::default();
    }
    // Readers watch the hard-stop flag, not `draining`: during a drain,
    // connections stay open so accepted jobs can deliver their `Done`s.
    conn::run_connection(scheduler, reader, stream, opts, Some(&state.stopping))
}
