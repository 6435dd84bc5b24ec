//! End-to-end tests for the network front end: concurrent streaming
//! clients against one [`NetServer`], per-client event isolation, the
//! serial digest anchor, disconnect-cancel, and the graceful drain.

use infera_core::{InferA, SessionConfig};
use infera_hacc::{EnsembleSpec, Manifest};
use infera_llm::BehaviorProfile;
use infera_serve::net::{
    decode_request, encode_response, Client, ClientConfig, ConnectError, NetServer,
    NetServerConfig, Request, Response, SubmitOutcome, PROTOCOL_VERSION,
};
use infera_serve::scheduler::metric_names::JOBS_COMPLETED;
use infera_serve::{JobSpec, Scheduler, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the tests in this binary: the fault plan is process
/// global, so a faulted test must never overlap a clean one.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    fn install(spec: &str) -> FaultGuard {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        infera_faults::clear();
        infera_faults::install(infera_faults::FaultPlan::parse(spec).unwrap());
        FaultGuard(guard)
    }

    fn clean() -> FaultGuard {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        infera_faults::clear();
        FaultGuard(guard)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        infera_faults::clear();
    }
}

const QUESTIONS: &[&str] = &[
    "What is the maximum fof_halo_mass at timestep 624 in simulation 1?",
    "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
    "How many halos are there at each timestep in simulation 0? Plot the count over time.",
];

const DONE_TIMEOUT: Duration = Duration::from_secs(120);

fn session_config() -> SessionConfig {
    SessionConfig::default().with_profile(BehaviorProfile::perfect())
}

/// One ensemble + a bound server on an ephemeral port. Digests only
/// depend on `(seed, salt, question, ensemble fingerprint)`, so any
/// session built from the same manifest anchors them.
fn start_server(name: &str, workers: usize, queue: usize) -> (NetServer, Manifest, PathBuf) {
    start_server_with(name, workers, queue, session_config())
}

fn start_server_with(
    name: &str,
    workers: usize,
    queue: usize,
    config: SessionConfig,
) -> (NetServer, Manifest, PathBuf) {
    let base = std::env::temp_dir().join("infera_net_it").join(name);
    std::fs::remove_dir_all(&base).ok();
    let manifest = infera_hacc::generate(&EnsembleSpec::tiny(97), &base.join("ens")).unwrap();
    let session = Arc::new(
        InferA::from_manifest(manifest.clone())
            .work_dir(base.join("server_work"))
            .config(config)
            .build()
            .unwrap(),
    );
    let sched = Arc::new(Scheduler::new(session, ServeConfig::with_pool(workers, queue)));
    let server = NetServer::bind(sched, "127.0.0.1:0", NetServerConfig::default()).unwrap();
    (server, manifest, base)
}

fn connect(server: &NetServer, config: &ClientConfig) -> Client {
    Client::connect(&server.local_addr().to_string(), config).unwrap()
}

#[test]
fn concurrent_clients_see_only_their_events_and_match_serial_digests() {
    let _g = FaultGuard::clean();
    let (server, manifest, base) = start_server("concurrent", 4, 32);
    let streaming = ClientConfig {
        collect_events: true,
        ..ClientConfig::default()
    };

    // Three clients, two streaming jobs each, disjoint salt ranges.
    let mut clients: Vec<Client> = (0..3).map(|_| connect(&server, &streaming)).collect();
    let mut jobs_of: Vec<Vec<(usize, u64, u64)>> = vec![Vec::new(); clients.len()];
    for (c, client) in clients.iter_mut().enumerate() {
        for j in 0..2usize {
            let q_idx = (c + j) % QUESTIONS.len();
            let salt = 1000 * (c as u64 + 1) + j as u64;
            match client.submit(QUESTIONS[q_idx], Some(salt), true).unwrap() {
                SubmitOutcome::Accepted { job, salt } => jobs_of[c].push((q_idx, salt, job)),
                SubmitOutcome::Rejected { message, .. } => {
                    panic!("client {c} rejected below capacity: {message}")
                }
            }
        }
    }

    // Every accepted job reaches exactly one terminal `Done` on the
    // connection that submitted it.
    let mut network_digests: Vec<(usize, u64, String)> = Vec::new();
    for (c, client) in clients.iter().enumerate() {
        for _ in 0..jobs_of[c].len() {
            let done = client
                .next_done(DONE_TIMEOUT)
                .unwrap_or_else(|| panic!("client {c}: job never completed"));
            let (q_idx, salt, _) = *jobs_of[c]
                .iter()
                .find(|(_, s, _)| *s == done.salt)
                .unwrap_or_else(|| panic!("client {c} got a Done for a foreign salt {}", done.salt));
            assert!(done.ok, "client {c} job salt {salt} failed: {:?}", done.error);
            network_digests.push((q_idx, salt, done.digest));
        }
        assert!(
            client.next_done(Duration::from_millis(200)).is_none(),
            "client {c} received an extra Done"
        );
    }

    // Event isolation: every event a client saw belongs to one of its
    // own jobs, and each job's progress stream ended with its terminal
    // event *before* the Done (the pump drains events first).
    for (c, client) in clients.iter().enumerate() {
        let own: Vec<u64> = jobs_of[c].iter().map(|(_, _, job)| *job).collect();
        let mut terminal_seen = vec![false; own.len()];
        let mut events = 0u64;
        while let Some(event) = client.try_next_event() {
            events += 1;
            let Some(slot) = own.iter().position(|j| *j == event.job()) else {
                panic!("client {c} saw an event for foreign job {}", event.job());
            };
            if event.is_terminal() {
                terminal_seen[slot] = true;
            }
        }
        assert!(events > 0, "client {c} streamed no events");
        assert_eq!(client.events_seen(), events);
        assert!(
            terminal_seen.iter().all(|t| *t),
            "client {c} missed a terminal event: {terminal_seen:?}"
        );
    }
    for client in clients {
        client.bye();
    }

    // Serial anchor: a fresh single-worker session over the same
    // ensemble must reproduce every network digest bit-for-bit.
    let serial_session = Arc::new(
        InferA::from_manifest(manifest)
            .work_dir(base.join("serial_work"))
            .config(session_config())
            .build()
            .unwrap(),
    );
    let serial = Scheduler::new(serial_session, ServeConfig::with_pool(1, 16));
    for (q_idx, salt, net_digest) in &network_digests {
        let handle = serial.submit(JobSpec::new(QUESTIONS[*q_idx], *salt)).unwrap();
        let anchor = handle.wait().digest;
        assert_eq!(
            *net_digest,
            format!("{anchor:016x}"),
            "network digest diverged from serial for salt {salt}"
        );
    }
    serial.shutdown();

    let stats = server.shutdown();
    assert_eq!(stats.connections, 3);
    assert_eq!(stats.accepted, 6);
    assert_eq!(stats.completed, 6, "a Done was lost");
    assert!(stats.events_sent >= 6, "events: {}", stats.events_sent);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn disconnect_mid_job_cancels_without_poisoning_the_pool() {
    let _g = FaultGuard::clean();
    // One worker and a deep queue: at abort time at least the queued
    // jobs are provably still in flight.
    let (server, _, _) = start_server("disconnect", 1, 8);

    let mut doomed = connect(&server, &ClientConfig::default());
    for i in 0..3u64 {
        let outcome = doomed
            .submit(QUESTIONS[i as usize % QUESTIONS.len()], Some(500 + i), false)
            .unwrap();
        assert!(matches!(outcome, SubmitOutcome::Accepted { .. }));
    }
    // Hard disconnect — no Bye. The server's reader sees EOF and
    // cancels this connection's in-flight jobs.
    doomed.abort();

    // The pool survives: a fresh client's job still completes cleanly.
    let mut after = connect(&server, &ClientConfig::default());
    match after.submit(QUESTIONS[0], Some(900), false).unwrap() {
        SubmitOutcome::Accepted { .. } => {}
        SubmitOutcome::Rejected { message, .. } => panic!("pool poisoned: {message}"),
    }
    let done = after.next_done(DONE_TIMEOUT).expect("post-disconnect job hung");
    assert!(done.ok, "post-disconnect job failed: {:?}", done.error);
    after.bye();

    let stats = server.shutdown();
    assert!(
        stats.canceled_on_eof >= 1,
        "disconnect canceled nothing (canceled_on_eof = {})",
        stats.canceled_on_eof
    );
}

#[test]
fn draining_server_refuses_new_connections_and_loses_no_accepted_jobs() {
    let _g = FaultGuard::clean();
    let (server, _, _) = start_server("drain", 2, 8);

    let mut client = connect(&server, &ClientConfig::default());
    let mut accepted = 0;
    for i in 0..4u64 {
        if let SubmitOutcome::Accepted { .. } = client
            .submit(QUESTIONS[i as usize % QUESTIONS.len()], Some(700 + i), false)
            .unwrap()
        {
            accepted += 1;
        }
    }
    assert_eq!(accepted, 4);

    server.begin_shutdown();
    assert!(server.is_draining());

    // A fresh connection bounces with the typed refusal, not a reset.
    match Client::connect(&server.local_addr().to_string(), &ClientConfig::default()) {
        Err(ConnectError::Refused { kind, .. }) => assert_eq!(kind, "shutting_down"),
        Err(other) => panic!("wrong refusal from draining server: {other:?}"),
        Ok(_) => panic!("draining server let a connection in"),
    }
    assert!(server.refused_draining() >= 1);

    // A new submission on the existing connection rejects the same way.
    match client.submit(QUESTIONS[0], Some(999), false).unwrap() {
        SubmitOutcome::Rejected { code, .. } => {
            assert!(
                matches!(code, infera_serve::net::RejectCode::ShuttingDown),
                "wrong rejection during drain: {code:?}"
            );
        }
        SubmitOutcome::Accepted { .. } => panic!("draining scheduler accepted new work"),
    }

    // Every accepted job still delivers its Done.
    for i in 0..accepted {
        assert!(
            client.next_done(DONE_TIMEOUT).is_some(),
            "drain lost job {i} of {accepted}"
        );
    }
    client.bye();

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.completed, 4, "drain lost an accepted job");
    assert!(stats.refused_draining >= 1);
}

#[test]
fn faulted_connection_boundary_drops_one_client_and_spares_the_rest() {
    // The chaos-suite `serve.job` site sits at the connection boundary
    // in the network server: the first connection is dropped before its
    // reader starts, exactly like a client hitting a dying peer.
    let _g = FaultGuard::install("seed=21;serve.job=nth1");
    let (server, _, _) = start_server("faulted_conn", 2, 8);

    // The faulted connection never completes its handshake.
    assert!(
        Client::connect(&server.local_addr().to_string(), &ClientConfig::default()).is_err(),
        "faulted connection should drop before the handshake"
    );

    // The next connection is untouched and serves a full job.
    let mut survivor = connect(&server, &ClientConfig::default());
    match survivor.submit(QUESTIONS[0], Some(1300), false).unwrap() {
        SubmitOutcome::Accepted { .. } => {}
        SubmitOutcome::Rejected { message, .. } => {
            panic!("pool poisoned by faulted connection: {message}")
        }
    }
    let done = survivor.next_done(DONE_TIMEOUT).expect("survivor job hung");
    assert!(done.ok, "survivor job failed: {:?}", done.error);
    survivor.bye();

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
}

fn accepted(outcome: SubmitOutcome) -> u64 {
    match outcome {
        SubmitOutcome::Accepted { job, .. } => job,
        SubmitOutcome::Rejected { message, .. } => panic!("rejected below capacity: {message}"),
    }
}

#[test]
fn stream_registered_while_the_pump_sleeps_is_forwarded_live_and_whole() {
    let _g = FaultGuard::clean();
    // Simulated model latency is slept here, so the streaming job is still
    // running — by a second or so — when its first events reach the client.
    let mut run_config = infera_agents::RunConfig::default();
    run_config.llm_sleep_scale = 0.04;
    let (server, _, _) = start_server_with(
        "late_stream",
        1,
        8,
        session_config().with_run_config(run_config),
    );
    let streaming = ClientConfig {
        collect_events: true,
        ..ClientConfig::default()
    };
    let mut client = connect(&server, &streaming);
    let completed = || server.scheduler().metrics().counter(JOBS_COMPLETED);

    // A job without events first: with its `Done` delivered the pump has
    // no stream to poll and blocks on its channel.
    let silent = accepted(client.submit(QUESTIONS[0], Some(1), false).unwrap());
    let done = client.next_done(DONE_TIMEOUT).expect("silent job hung");
    assert!(done.ok && done.job == silent, "{done:?}");
    assert_eq!((client.events_seen(), completed()), (0, 1));

    // Live: the streaming job's first event arrives while it still runs,
    // so the registration woke the pump (its completion had not yet).
    let job = accepted(client.submit(QUESTIONS[0], Some(2), true).unwrap());
    let deadline = Instant::now() + DONE_TIMEOUT;
    let first = loop {
        if let Some(event) = client.try_next_event() {
            break event;
        }
        assert!(Instant::now() < deadline, "no event streamed");
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(first.job(), job);
    assert_eq!(completed(), 1, "the first event waited for the job to finish");

    // Whole: every event of the job is here before its `Done` is.
    let done = client.next_done(DONE_TIMEOUT).expect("streaming job hung");
    assert!(done.ok && done.job == job, "{done:?}");
    let mut events = vec![first];
    events.extend(std::iter::from_fn(|| client.try_next_event()));
    assert!(events.iter().all(|event| event.job() == job));
    assert!(events.last().is_some_and(|event| event.is_terminal()));
    assert_eq!(client.events_seen(), events.len() as u64);
    client.bye();
    let stats = server.shutdown();
    assert_eq!(
        stats.events_sent,
        events.len() as u64,
        "an event followed its job's Done"
    );
}

#[test]
fn shutdown_of_an_idle_server_joins_every_thread_and_says_goodbye() {
    let _g = FaultGuard::clean();
    let (server, _, _) = start_server("idle_shutdown", 1, 4);
    let mut clients = [
        connect(&server, &ClientConfig::default()),
        connect(&server, &ClientConfig::default()),
    ];
    assert!(clients.iter_mut().all(Client::ping));
    let scheduler = server.scheduler().clone();

    let stats = server.shutdown();
    assert_eq!(stats.connections, 2, "a connection thread was not joined");
    // The accept loop, the reaper and both connections held a clone each.
    assert_eq!(Arc::strong_count(&scheduler), 1, "a server thread outlived shutdown");
    assert!(clients.iter().all(saw_goodbye), "a connection closed without Goodbye");
}

/// Whether the server's `Goodbye` reaches `client`'s reader thread.
fn saw_goodbye(client: &Client) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.goodbye_received() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    client.goodbye_received()
}

#[test]
fn dropped_server_releases_its_threads_port_and_scheduler() {
    let _g = FaultGuard::clean();
    let (server, _, _) = start_server("dropped", 1, 4);
    let client = connect(&server, &ClientConfig::default());
    let scheduler = server.scheduler().clone();
    let addr = server.local_addr();

    drop(server);
    assert_eq!(Arc::strong_count(&scheduler), 1, "a server thread outlived the drop");
    TcpListener::bind(addr).expect("the port is still bound");
    assert!(saw_goodbye(&client), "the connection closed without Goodbye");
}

/// A hand-rolled peer: answers the handshake, reads the client's `Bye`,
/// runs `reply` on the socket and closes it.
fn fake_server(
    reply: impl FnOnce(&mut TcpStream) + Send + 'static,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut lines = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        lines.read_line(&mut line).unwrap();
        assert!(matches!(decode_request(line.trim()), Ok(Request::Hello { .. })));
        let hello = Response::Hello {
            protocol_version: PROTOCOL_VERSION,
            server: "fake".to_string(),
            workers: 1,
            queue_capacity: 1,
        };
        writeln!(stream, "{}", encode_response(&hello)).unwrap();
        line.clear();
        lines.read_line(&mut line).unwrap();
        assert!(matches!(decode_request(line.trim()), Ok(Request::Bye)));
        reply(&mut stream);
    });
    (addr, peer)
}

#[test]
fn bye_returns_when_the_server_goes_away_without_a_goodbye() {
    let (addr, peer) = fake_server(|_| {});
    let client = Client::connect(&addr, &ClientConfig::default()).unwrap();
    let started = Instant::now();
    client.bye();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "bye() sat out {:?} of its 10 s control timeout on a closed socket",
        started.elapsed()
    );
    peer.join().unwrap();
}

#[test]
fn bye_waits_for_the_servers_goodbye() {
    let said = Arc::new(AtomicBool::new(false));
    let (addr, peer) = {
        let said = said.clone();
        fake_server(move |stream| {
            // Late enough that a `bye()` which does not wait is long gone.
            std::thread::sleep(Duration::from_millis(100));
            said.store(true, Ordering::SeqCst);
            let goodbye = Response::Goodbye {
                code: None,
                message: "bye".to_string(),
            };
            writeln!(stream, "{}", encode_response(&goodbye)).unwrap();
        })
    };
    let client = Client::connect(&addr, &ClientConfig::default()).unwrap();
    client.bye();
    assert!(said.load(Ordering::SeqCst), "bye() returned before the Goodbye");
    peer.join().unwrap();
}
