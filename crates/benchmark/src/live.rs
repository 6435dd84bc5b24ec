//! The served system under load: set-up over the real TCP path, the
//! closed-loop and open-loop drivers, and tear-down.
//!
//! Server and clients share the benchmark process — `NetServer::bind` on
//! `127.0.0.1:0`, `Client::connect` to the port it got — so one process's
//! CPU time and peak memory cover both ends, and nothing outlives the run.

use crate::plan::{self, Request, Workload};
use infera_agents::RunConfig;
use infera_core::{InferA, Question, SessionConfig};
use infera_serve::net::{Client, ClientConfig, JobDone, NetServer, NetServerConfig, SubmitOutcome};
use infera_serve::{Scheduler, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest wait for one answer before the request counts as timed out.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the phase's request plan.
    pub request: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When `submit` was called and when its reply arrived.
    pub sent: Instant,
    pub admitted: Instant,
    /// When the answer arrived; `None` for a rejection or a timeout.
    pub answered: Option<Instant>,
    pub done: Option<JobDone>,
    pub rejected: bool,
}

impl Sample {
    /// Client-observed latency from the due instant to the answer, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.answered
            .map(|at| at.duration_since(self.due).as_secs_f64() * 1e3)
    }

    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }

    pub fn submit_us(&self) -> f64 {
        self.admitted.duration_since(self.sent).as_secs_f64() * 1e6
    }

    pub fn ok(&self) -> bool {
        self.done.as_ref().is_some_and(|d| d.ok)
    }
}

/// The session configuration every server and in-process session of a run
/// shares: the program's defaults (`BehaviorProfile::default()`,
/// `RunConfig::default()`, whose `llm_sleep_scale` is 0 — simulated model
/// latency is recorded, never slept) plus the run's seed and shard count.
pub fn session_config(seed: u64, shards: usize) -> SessionConfig {
    SessionConfig::default()
        .with_seed(plan::session_seed(seed))
        .with_run_config(RunConfig::default())
        .with_shards(shards)
}

/// A running server with its connected clients.
pub struct Live {
    server: NetServer,
    scheduler: Arc<Scheduler>,
    pub clients: Vec<Client>,
    pub work: PathBuf,
    pub session_build_ms: f64,
    pub connect_ms: Vec<f64>,
    /// Warm-up answers, one per distinct question, in question order.
    pub warmup: Vec<Sample>,
}

impl Live {
    /// `Manifest::load` + `SessionBuilder::build` + `Scheduler::new` +
    /// `NetServer::bind` + `Client::connect` + one warm-up pass over the
    /// workload's distinct questions. The caller times the whole call as
    /// `setup_s`.
    pub fn set_up(
        w: &Workload,
        questions: &[Question],
        ensemble: &Path,
        work: &Path,
        seed: u64,
    ) -> Result<Live, String> {
        let started = Instant::now();
        let session = InferA::builder(ensemble)
            .work_dir(work)
            .config(session_config(seed, w.shards))
            .build()
            .map_err(|e| format!("session build: {e}"))?;
        let session_build_ms = started.elapsed().as_secs_f64() * 1e3;
        let scheduler = Arc::new(Scheduler::new(
            Arc::new(session),
            ServeConfig::with_pool(w.workers, w.queue_capacity),
        ));
        let server = NetServer::bind(scheduler.clone(), "127.0.0.1:0", NetServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let mut clients = Vec::new();
        let mut connect_ms = Vec::new();
        for i in 0..w.connections {
            let config = ClientConfig {
                client_name: format!("benchmark-{i}"),
                ..ClientConfig::default()
            };
            let t = Instant::now();
            clients.push(Client::connect(&addr, &config).map_err(|e| format!("connect: {e}"))?);
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut live = Live {
            server,
            scheduler,
            clients,
            work: work.to_path_buf(),
            session_build_ms,
            connect_ms,
            warmup: Vec::new(),
        };
        let warmup_plan: Vec<Request> = (0..questions.len())
            .map(|question| Request {
                question,
                salt: plan::warmup_salt(question),
                at_s: 0.0,
                repeats: None,
            })
            .collect();
        live.warmup = live.drive(questions, &warmup_plan, false, false)?;
        if let Some(bad) = live.warmup.iter().find(|s| !s.ok()) {
            return Err(format!(
                "warm-up request {} failed: {:?}",
                bad.request, bad.done
            ));
        }
        Ok(live)
    }

    pub fn session(&self) -> &Arc<InferA> {
        self.scheduler.session()
    }

    /// Send `plan` and collect every answer, sorted by request index.
    /// Requests are dealt round-robin over the connections, one thread per
    /// connection. With `open` set each is sent at its scheduled offset
    /// whatever is still outstanding; otherwise each connection sends its
    /// next request when the previous answer arrives.
    pub fn drive(
        &mut self,
        questions: &[Question],
        plan: &[Request],
        events: bool,
        open: bool,
    ) -> Result<Vec<Sample>, String> {
        let n = self.clients.len();
        let start = Instant::now();
        let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let share: Vec<usize> = (c..plan.len()).step_by(n).collect();
                    scope.spawn(move || {
                        if open {
                            drive_open(client, questions, plan, &share, events, start)
                        } else {
                            drive_closed(client, questions, plan, &share, events)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("driver thread panicked".to_string()))
                })
                .collect()
        });
        let mut samples = Vec::with_capacity(plan.len());
        for result in results {
            samples.extend(result?);
        }
        samples.sort_by_key(|s| s.request);
        Ok(samples)
    }

    /// Progress events received by all clients so far.
    pub fn events_seen(&self) -> u64 {
        self.clients.iter().map(Client::events_seen).sum()
    }

    /// Median round trip of `Ping` on an idle connection, µs.
    pub fn ping_rtt_us(&mut self, pings: usize) -> f64 {
        let client = &mut self.clients[0];
        let rtts: Vec<f64> = (0..pings)
            .filter_map(|_| {
                let t = Instant::now();
                client.ping().then(|| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        crate::stats::median(&rtts)
    }

    /// Close the clients, drain and stop the server, join the workers.
    pub fn tear_down(self) {
        for client in self.clients {
            client.bye();
        }
        self.server.shutdown();
        if let Ok(scheduler) = Arc::try_unwrap(self.scheduler) {
            scheduler.shutdown();
        }
    }
}

fn submit(
    client: &mut Client,
    questions: &[Question],
    req: &Request,
    events: bool,
) -> Result<(Instant, Instant, SubmitOutcome), String> {
    let sent = Instant::now();
    let outcome = client.submit(&questions[req.question].text, Some(req.salt), events)?;
    Ok((sent, Instant::now(), outcome))
}

fn drive_closed(
    client: &mut Client,
    questions: &[Question],
    plan: &[Request],
    share: &[usize],
    events: bool,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::with_capacity(share.len());
    for &request in share {
        let (sent, admitted, outcome) = submit(client, questions, &plan[request], events)?;
        let mut sample = Sample {
            request,
            due: sent,
            sent,
            admitted,
            answered: None,
            done: None,
            rejected: false,
        };
        match outcome {
            SubmitOutcome::Accepted { .. } => {
                sample.done = client.next_done(ANSWER_TIMEOUT);
                sample.answered = sample.done.as_ref().map(|_| Instant::now());
            }
            SubmitOutcome::Rejected { .. } => sample.rejected = true,
        }
        samples.push(sample);
    }
    Ok(samples)
}

fn drive_open(
    client: &mut Client,
    questions: &[Question],
    plan: &[Request],
    share: &[usize],
    events: bool,
    start: Instant,
) -> Result<Vec<Sample>, String> {
    let mut samples: Vec<Sample> = Vec::with_capacity(share.len());
    // Job id -> index into `samples`, for the answers still outstanding.
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let mut next = 0;
    while next < share.len() || !pending.is_empty() {
        let wait = if next < share.len() {
            let request = share[next];
            let due = start + Duration::from_secs_f64(plan[request].at_s);
            let now = Instant::now();
            if now >= due {
                let (sent, admitted, outcome) = submit(client, questions, &plan[request], events)?;
                let mut sample = Sample {
                    request,
                    due,
                    sent,
                    admitted,
                    answered: None,
                    done: None,
                    rejected: false,
                };
                match outcome {
                    SubmitOutcome::Accepted { job, .. } => pending.push((job, samples.len())),
                    SubmitOutcome::Rejected { .. } => sample.rejected = true,
                }
                samples.push(sample);
                next += 1;
                continue;
            }
            due - now
        } else {
            ANSWER_TIMEOUT
        };
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        match client.next_done(wait) {
            Some(done) => {
                let answered = Instant::now();
                if let Some(at) = pending.iter().position(|(job, _)| *job == done.job) {
                    let (_, sample) = pending.swap_remove(at);
                    samples[sample].answered = Some(answered);
                    samples[sample].done = Some(done);
                }
            }
            // Nothing more to send and no answer within the timeout: the
            // outstanding requests stay unanswered and count as failed.
            None if next >= share.len() => break,
            None => {}
        }
    }
    Ok(samples)
}
