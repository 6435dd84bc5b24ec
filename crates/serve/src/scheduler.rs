//! The admission-controlled job scheduler.
//!
//! One [`Scheduler`] owns N worker threads, all running against a
//! single shared [`InferA`] session (`Arc`-shared manifest and
//! decoded-batch cache, per-run databases and provenance stores).
//! Submissions go through a **bounded** queue: a full queue rejects
//! immediately with [`RejectReason::QueueFull`] — backpressure is the
//! caller's signal to slow down, never a blocked thread.
//!
//! Metrics (a [`MetricsRegistry`] the embedder can scrape):
//!
//! | name                       | kind      |                                |
//! |----------------------------|-----------|--------------------------------|
//! | `serve.queue_depth`        | gauge     | jobs queued, not yet picked up |
//! | `serve.jobs_accepted`      | counter   | submissions admitted           |
//! | `serve.jobs_rejected`      | counter   | submissions refused            |
//! | `serve.jobs_completed`     | counter   | results delivered              |
//! | `serve.jobs_failed`        | counter   | completions with an error      |
//! | `serve.jobs_timed_out`     | counter   | failures that hit a deadline   |
//! | `serve.cache_hits`         | counter   | answered from the result cache |
//! | `serve.queue_wait_ms`      | histogram | admission → pickup latency     |
//! | `serve.run_ms`             | histogram | pickup → completion latency    |
//! | `retry.attempts`           | counter   | transient failures replayed    |
//! | `retry.exhausted`          | counter   | jobs that failed every attempt |
//! | `breaker.opened`           | counter   | circuit-open transitions       |
//! | `breaker.rejected`         | counter   | submissions shed by the breaker|
//! | `serve.worker_panics`      | counter   | job panics caught in-worker    |
//! | `serve.workers_lost`       | counter   | worker deaths (respawned)      |
//! | `fault.recovered`          | counter   | injected faults survived       |
//!
//! Resilience (see [`crate::resilience`]): transient infrastructure
//! failures are replayed up to `retry.max_attempts` times with
//! deterministic backoff — a retried run re-executes from the same
//! `(seed, salt)`, so a retry that succeeds is bit-identical to an
//! unfaulted run. A panicking job is caught at the worker boundary and
//! reported as a typed `Internal` failure; a panicking worker is
//! respawned in place so the pool never shrinks. Consecutive final
//! failures of one class open a circuit that sheds load at admission
//! until its cooldown admits a probe.
//!
//! Live observability: the scheduler owns an [`EventBus`] every job's
//! tracer is attached to (span stream + per-job lifecycle events, see
//! [`crate::telemetry::event_names`]), a [`GlobalMetrics`] aggregate
//! each finished job's per-run registry is absorbed into, and a
//! [`FlightRecorder`] retaining full traces of the slowest and all
//! failed/timed-out jobs.

use crate::cache::{ResultCache, ResultKey};
use crate::digest::report_digest;
use crate::flight::{FlightEntry, FlightOutcome, FlightRecorder};
use crate::handle::{JobEvents, JobHandle, JobSlot};
use crate::job::{JobResult, JobSpec, JobStatus, RejectReason};
use crate::resilience::{is_transient, BreakerConfig, CircuitBreaker, RetryPolicy};
use crate::telemetry::{self, event_names};
use infera_agents::CancelToken;
use infera_core::{
    estimate_semantic_level, AskOptions, ErrorKind, InferA, InferaError, InferaResult,
};
use infera_obs::{AttrValue, EventBus, GlobalMetrics, MetricsRegistry, Obs, TraceSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Condvar, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Metric names exported by the scheduler — aliases of the declared
/// constants in [`infera_obs::metric_names`] (kept as a module for
/// backward compatibility with earlier callers).
pub mod metric_names {
    use infera_obs::metric_names as m;
    pub const QUEUE_DEPTH: &str = m::SERVE_QUEUE_DEPTH;
    pub const JOBS_ACCEPTED: &str = m::SERVE_JOBS_ACCEPTED;
    pub const JOBS_REJECTED: &str = m::SERVE_JOBS_REJECTED;
    pub const JOBS_COMPLETED: &str = m::SERVE_JOBS_COMPLETED;
    pub const JOBS_FAILED: &str = m::SERVE_JOBS_FAILED;
    pub const JOBS_TIMED_OUT: &str = m::SERVE_JOBS_TIMED_OUT;
    pub const CACHE_HITS: &str = m::SERVE_CACHE_HITS;
    pub const QUEUE_WAIT_MS: &str = m::SERVE_QUEUE_WAIT_MS;
    pub const RUN_MS: &str = m::SERVE_RUN_MS;
    pub const RETRY_ATTEMPTS: &str = m::RETRY_ATTEMPTS;
    pub const RETRY_EXHAUSTED: &str = m::RETRY_EXHAUSTED;
    pub const BREAKER_OPENED: &str = m::BREAKER_OPENED;
    pub const BREAKER_REJECTED: &str = m::BREAKER_REJECTED;
    pub const WORKER_PANICS: &str = m::SERVE_WORKER_PANICS;
    pub const WORKERS_LOST: &str = m::SERVE_WORKERS_LOST;
    pub const FAULT_RECOVERED: &str = m::FAULT_RECOVERED;
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running workflows.
    pub workers: usize,
    /// Bounded queue capacity (jobs admitted but not yet picked up).
    pub queue_capacity: usize,
    /// Flight-recorder slots for the slowest completed jobs.
    pub flight_slowest: usize,
    /// Flight-recorder slots for failed/timed-out jobs.
    pub flight_failures: usize,
    /// Bounded retry for transient job failures.
    pub retry: RetryPolicy,
    /// Per-failure-class circuit breaking at admission.
    pub breaker: BreakerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            flight_slowest: 8,
            flight_failures: 32,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Minimal config for tests/benches: just workers + queue size.
    pub fn with_pool(workers: usize, queue_capacity: usize) -> ServeConfig {
        ServeConfig {
            workers,
            queue_capacity,
            ..ServeConfig::default()
        }
    }
}

/// A queued job: the spec plus its admission bookkeeping.
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    cancel: CancelToken,
    admitted: Instant,
    /// Completion slot shared with the submitter's [`JobHandle`].
    slot: Arc<JobSlot>,
}

struct SchedulerShared {
    session: Arc<InferA>,
    cache: Arc<ResultCache>,
    metrics: MetricsRegistry,
    bus: EventBus,
    global: GlobalMetrics,
    flight: FlightRecorder,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    queue_depth: AtomicU64,
    /// Set by `begin_shutdown`: reject new work, skip retry backoffs.
    shutting_down: AtomicBool,
    /// Cancel handles for queued + running jobs, by job id. A std mutex,
    /// for the condvar beside it.
    inflight: std::sync::Mutex<HashMap<u64, CancelToken>>,
    /// Signalled when `inflight` empties (see [`Scheduler::wait_idle`]).
    idle: Condvar,
}

impl SchedulerShared {
    /// Poisoning is recovered: every update of the table is one insert or
    /// one remove, so it is valid whenever a panic could have left it.
    fn inflight(&self) -> MutexGuard<'_, HashMap<u64, CancelToken>> {
        self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sync_queue_gauge(&self) {
        self.metrics.set_gauge(
            metric_names::QUEUE_DEPTH,
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
    }
}

/// The serving layer's front door. See the module docs for semantics.
pub struct Scheduler {
    shared: Arc<SchedulerShared>,
    /// `None` once shutdown began: dropping the sender closes the queue,
    /// so workers drain what was admitted and exit.
    tx: Mutex<Option<mpsc::SyncSender<QueuedJob>>>,
    /// Behind a mutex for `Sync`: an mpsc receiver has one consumer, and
    /// the network server shares the scheduler across connection threads.
    results_rx: Mutex<mpsc::Receiver<JobResult>>,
    handles: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    queue_capacity: usize,
}

impl Scheduler {
    /// Spawn the worker pool over a shared session.
    ///
    /// Panics only if the OS refuses to spawn worker threads — an
    /// unrecoverable environment failure. Use [`Scheduler::try_new`] to
    /// handle that as a typed error instead.
    pub fn new(session: Arc<InferA>, config: ServeConfig) -> Scheduler {
        Scheduler::try_new(session, config)
            .unwrap_or_else(|e| panic!("scheduler startup failed: {e}"))
    }

    /// Fallible constructor: thread-spawn failures surface as
    /// [`ErrorKind::Internal`] instead of panicking.
    pub fn try_new(session: Arc<InferA>, config: ServeConfig) -> InferaResult<Scheduler> {
        let workers = config.workers.max(1);
        let cache = Arc::new(ResultCache::new(
            session.config().result_cache_entries,
        ));
        cache.validate_fingerprint(session.manifest().fingerprint());
        // The scheduler's own instruments record straight into the
        // process-wide aggregate (same underlying registry), so one
        // scrape sees scheduler counters and absorbed run metrics alike.
        let global = GlobalMetrics::new();
        let shared = Arc::new(SchedulerShared {
            session,
            cache,
            metrics: global.registry().clone(),
            bus: EventBus::new(),
            global,
            flight: FlightRecorder::new(config.flight_slowest, config.flight_failures),
            retry: config.retry,
            breaker: CircuitBreaker::new(config.breaker),
            queue_depth: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            inflight: std::sync::Mutex::new(HashMap::new()),
            idle: Condvar::new(),
        });
        let (tx, rx) = mpsc::sync_channel::<QueuedJob>(config.queue_capacity.max(1));
        let (results_tx, results_rx) = mpsc::channel::<JobResult>();
        // An mpsc receiver has one consumer: the pool shares it behind a
        // mutex.
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            let rx = rx.clone();
            let results_tx = results_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("infera-serve-{i}"))
                // A panic escaping `worker_loop` (per-job panics are
                // caught inside it) must not shrink the pool: catch it,
                // count the loss, and re-enter the loop — the same
                // thread "respawns" as a fresh worker.
                .spawn(move || loop {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&shared, &rx, &results_tx)
                    }));
                    match run {
                        Ok(()) => break, // queue closed and drained
                        Err(_) => {
                            shared.metrics.inc(metric_names::WORKERS_LOST, 1);
                        }
                    }
                })
                .map_err(|e| {
                    InferaError::internal(format!("spawn serve worker {i}: {e}"))
                })?;
            handles.push(handle);
        }
        Ok(Scheduler {
            shared,
            tx: Mutex::new(Some(tx)),
            results_rx: Mutex::new(results_rx),
            handles,
            next_id: AtomicU64::new(0),
            queue_capacity: config.queue_capacity.max(1),
        })
    }

    /// Submit a fully-specified job, returning a typed [`JobHandle`] to
    /// await, poll, or cancel it. Non-blocking: a full queue, an open
    /// circuit, or a shutdown in progress rejects with a reason.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, RejectReason> {
        self.admit(spec, None)
    }

    /// Submit with a live per-job event stream: the handle's
    /// [`JobHandle::events`] yields this job's lifecycle and span events
    /// (queued → plan → steps → QA attempts → completion), subscribed
    /// *before* admission so nothing is missed. `event_capacity` bounds
    /// the subscriber buffer — a slow consumer drops events (counted),
    /// never blocks the workers.
    pub fn submit_streaming(
        &self,
        spec: JobSpec,
        event_capacity: usize,
    ) -> Result<JobHandle, RejectReason> {
        self.admit(spec, Some(event_capacity))
    }

    /// Submit a question with an auto-assigned salt (the job id).
    pub fn submit_question(&self, question: &str) -> Result<JobHandle, RejectReason> {
        let salt = self.next_id.load(Ordering::Relaxed) + 1;
        self.submit(JobSpec::new(question, salt))
    }

    fn reject(&self, reason: RejectReason, label: &str) -> RejectReason {
        self.shared.metrics.inc(metric_names::JOBS_REJECTED, 1);
        self.shared.bus.publish_job(
            event_names::JOB_REJECTED,
            &[("reason", AttrValue::from(label))],
        );
        reason
    }

    fn admit(
        &self,
        spec: JobSpec,
        event_capacity: Option<usize>,
    ) -> Result<JobHandle, RejectReason> {
        if self.shared.shutting_down.load(Ordering::Relaxed) {
            return Err(self.reject(RejectReason::ShuttingDown, "shutting_down"));
        }
        if let Err(class) = self.shared.breaker.admit() {
            self.shared.metrics.inc(metric_names::BREAKER_REJECTED, 1);
            return Err(self.reject(
                RejectReason::CircuitOpen {
                    class: class.to_string(),
                },
                "circuit_open",
            ));
        }
        let tx_guard = self.tx.lock();
        let Some(tx) = tx_guard.as_ref() else {
            return Err(self.reject(RejectReason::ShuttingDown, "shutting_down"));
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let salt = spec.salt;
        let question = spec.question.clone();
        let cancel = CancelToken::new();
        let slot = JobSlot::new();
        // Subscribe before the enqueue (and before the job_queued event
        // below) so the stream opens with this job's admission.
        let events = event_capacity.map(|capacity| JobEvents {
            sub: self.shared.bus.subscribe(capacity),
            job: id,
        });
        let job = QueuedJob {
            id,
            spec,
            cancel: cancel.clone(),
            admitted: Instant::now(),
            slot: slot.clone(),
        };
        // Held from the enqueue until `job_queued` is on the bus: the
        // worker that dequeues this job passes through the same lock before
        // it touches the job, so `job_started` cannot overtake `job_queued`,
        // the queue gauge is raised before it is lowered, and the cancel
        // handle is registered before the worker can retire it.
        let mut inflight = self.shared.inflight();
        match tx.try_send(job) {
            Ok(()) => {
                inflight.insert(id, cancel.clone());
                self.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
                self.shared.sync_queue_gauge();
                self.shared.metrics.inc(metric_names::JOBS_ACCEPTED, 1);
                self.shared.bus.publish_job(
                    event_names::JOB_QUEUED,
                    &[("job", AttrValue::from(id)), ("salt", AttrValue::from(salt))],
                );
                Ok(JobHandle {
                    id,
                    salt,
                    question,
                    slot,
                    cancel,
                    events,
                })
            }
            Err(TrySendError::Full(_)) => Err(self.reject(
                RejectReason::QueueFull {
                    capacity: self.queue_capacity,
                },
                "queue_full",
            )),
            Err(TrySendError::Disconnected(_)) => {
                Err(self.reject(RejectReason::ShuttingDown, "shutting_down"))
            }
        }
    }

    /// Cancel a queued or running job. Queued jobs complete as
    /// `Canceled` when a worker picks them up; running jobs abort at
    /// their next step boundary. Returns `false` for unknown/finished ids.
    pub fn cancel(&self, id: u64) -> bool {
        match self.shared.inflight().get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Drain the completion-ordered channel [`Scheduler::shutdown`]
    /// collects from, without blocking. Handle-based callers never read
    /// it, so a long-lived server must empty it periodically or the
    /// buffer grows without bound.
    pub(crate) fn drain_results(&self) -> usize {
        let rx = self.results_rx.lock();
        let mut drained = 0;
        while rx.try_recv().is_ok() {
            drained += 1;
        }
        drained
    }

    /// Block until no admitted job is unfinished: every job's counters
    /// are final and its handle is about to complete. Meant for after
    /// [`Scheduler::begin_shutdown`], when the table can only empty.
    pub(crate) fn wait_idle(&self) {
        let mut inflight = self.shared.inflight();
        while !inflight.is_empty() {
            inflight = self
                .shared
                .idle
                .wait(inflight)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Jobs admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.shared.queue_depth.load(Ordering::Relaxed)
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Bounded queue capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// A salt equal to the next job id — the auto-salt for submissions
    /// that don't pin one. Advisory: concurrent submitters may observe
    /// the same value, which only means those jobs share a cache key if
    /// the question matches too.
    pub fn auto_salt(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) + 1
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The live event bus: every job's span stream plus the scheduler's
    /// own lifecycle events. Subscribe before submitting to see a job
    /// from admission onward.
    pub fn bus(&self) -> &EventBus {
        &self.shared.bus
    }

    /// Process-wide metrics: every finished job's registry merged, plus
    /// the scheduler's own instruments.
    pub fn global_metrics(&self) -> &GlobalMetrics {
        &self.shared.global
    }

    /// The slow-query flight recorder.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.shared.flight
    }

    /// One line of operational state (jobs/queue/latency/cache/bus).
    pub fn stats_line(&self) -> String {
        telemetry::sync_bus_counters(&self.shared.global, &self.shared.bus);
        telemetry::sync_fault_counters(&self.shared.global);
        telemetry::render_stats_line(&self.shared.global, &self.shared.bus)
    }

    /// Write the observability artifacts (Prometheus exposition, global
    /// snapshot, flight recorder) under `<work_dir>/obs/` for offline
    /// inspection via `infera stats`.
    pub fn persist_observability(&self, work_dir: &std::path::Path) -> InferaResult<std::path::PathBuf> {
        telemetry::persist_observability(
            work_dir,
            &self.shared.global,
            &self.shared.bus,
            &self.shared.flight,
        )
    }

    pub fn result_cache(&self) -> &Arc<ResultCache> {
        &self.shared.cache
    }

    pub fn session(&self) -> &Arc<InferA> {
        &self.shared.session
    }

    /// Begin a graceful shutdown without consuming the scheduler: new
    /// submissions reject with [`RejectReason::ShuttingDown`], already
    /// admitted jobs keep draining (results stay collectable via their
    /// handles and [`Scheduler::shutdown`]), and pending retry backoffs
    /// are skipped so the drain finishes promptly.
    pub fn begin_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::Relaxed);
        *self.tx.lock() = None; // workers see a closed queue and exit
    }

    /// Whether `begin_shutdown` has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::Relaxed)
    }

    /// Stop admitting, run the queue dry, join the workers, and return
    /// every undelivered result (ordered by job id).
    pub fn shutdown(mut self) -> Vec<JobResult> {
        self.begin_shutdown();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        let mut results = Vec::new();
        while let Ok(result) = self.results_rx.lock().try_recv() {
            results.push(result);
        }
        results.sort_by_key(|r| r.id);
        results
    }
}

/// Render a panic payload for error messages (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(
    shared: &SchedulerShared,
    rx: &Mutex<mpsc::Receiver<QueuedJob>>,
    results_tx: &mpsc::Sender<JobResult>,
) {
    loop {
        // Injection site: a worker dying outside any job (the respawn
        // guard in `try_new` catches it, so the pool never shrinks).
        // Checked before the dequeue — a worker must never die holding
        // a job.
        if infera_faults::check(infera_faults::sites::SERVE_WORKER).is_some() {
            panic!(
                "{}",
                infera_faults::injected_error(infera_faults::sites::SERVE_WORKER)
            );
        }
        // Hold the lock only for the dequeue, never across a workflow.
        let job = match rx.lock().try_recv() {
            Ok(job) => Some(job),
            Err(_) => None,
        };
        let job = match job {
            Some(job) => job,
            None => {
                // Blocking recv without starving siblings: take the lock,
                // wait briefly, release. Closed + empty queue ends the loop.
                let guard = rx.lock();
                match guard.recv_timeout(std::time::Duration::from_millis(20)) {
                    Ok(job) => job,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        // The submitter holds `inflight` until the job is counted and
        // `job_queued` published; nothing about the job happens before.
        drop(shared.inflight());
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.sync_queue_gauge();
        // Panic isolation: a panicking workflow fails its own job with a
        // typed Internal error instead of killing the worker.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(shared, &job)
        }))
        .unwrap_or_else(|payload| panicked_job_result(shared, &job, &*payload));
        shared.metrics.inc(metric_names::JOBS_COMPLETED, 1);
        match &result.status {
            JobStatus::Done(_) => shared.breaker.record_success(),
            JobStatus::Failed(err) => {
                shared.metrics.inc(metric_names::JOBS_FAILED, 1);
                if err.kind() == ErrorKind::Timeout {
                    shared.metrics.inc(metric_names::JOBS_TIMED_OUT, 1);
                }
                // Caller-initiated cancellation says nothing about
                // system health; every other final failure feeds its
                // class's circuit.
                if err.kind() != ErrorKind::Canceled
                    && shared.breaker.record_failure(err.kind().label())
                {
                    shared.metrics.inc(metric_names::BREAKER_OPENED, 1);
                }
            }
        }
        // Retired once its counters are final and before its handle
        // completes: whoever saw the job finish finds `cancel` false, and
        // whoever saw the table empty finds the counters settled.
        {
            let mut inflight = shared.inflight();
            inflight.remove(&job.id);
            if inflight.is_empty() {
                shared.idle.notify_all();
            }
        }
        // The handle's slot is completed first: JobHandle::wait must
        // never hang on a finished job, even if the legacy channel's
        // receiver is gone.
        job.slot.complete(result.clone());
        if results_tx.send(result).is_err() {
            break; // scheduler dropped mid-flight
        }
    }
}

/// Build the failure result for a job whose workflow panicked: count
/// it, record a flight entry (no trace — the tracer died with the
/// stack), publish the lifecycle event, and report a typed error.
fn panicked_job_result(
    shared: &SchedulerShared,
    job: &QueuedJob,
    payload: &(dyn std::any::Any + Send),
) -> JobResult {
    let msg = panic_message(payload);
    shared.metrics.inc(metric_names::WORKER_PANICS, 1);
    if msg.contains(infera_faults::INJECTED_MARKER) {
        shared.metrics.inc(metric_names::FAULT_RECOVERED, 1);
    }
    let err = InferaError::internal(format!("job panicked: {msg}"));
    let queue_ms = 0; // observed by run_job before the panic
    let run_ms = job.admitted.elapsed().as_millis() as u64;
    shared.flight.record_failure(FlightEntry {
        job_id: job.id,
        question: job.spec.question.clone(),
        salt: job.spec.salt,
        outcome: FlightOutcome::Failed,
        error: Some(err.to_string()),
        cache_hit: false,
        queue_ms,
        run_ms,
        digest: 0,
        attempts: 1,
        trace: TraceSnapshot {
            spans: Vec::new(),
            orphan_events: Vec::new(),
        },
    });
    shared.bus.publish_job(
        event_names::JOB_FAILED,
        &[
            ("job", AttrValue::from(job.id)),
            ("run_ms", AttrValue::from(run_ms)),
            ("error", AttrValue::from(err.to_string())),
        ],
    );
    JobResult {
        id: job.id,
        question: job.spec.question.clone(),
        salt: job.spec.salt,
        status: JobStatus::Failed(err),
        digest: 0,
        cache_hit: false,
        queue_ms,
        run_ms,
        attempts: 1,
    }
}

fn run_job(shared: &SchedulerShared, job: &QueuedJob) -> JobResult {
    let picked_up = Instant::now();
    let queue_ms = picked_up.duration_since(job.admitted).as_millis() as u64;
    shared
        .metrics
        .observe(metric_names::QUEUE_WAIT_MS, queue_ms as f64);
    let spec = &job.spec;
    shared.bus.publish_job(
        event_names::JOB_STARTED,
        &[
            ("job", AttrValue::from(job.id)),
            ("salt", AttrValue::from(spec.salt)),
            ("question", AttrValue::from(spec.question.as_str())),
            ("queue_ms", AttrValue::from(queue_ms)),
        ],
    );
    let semantic = spec
        .semantic
        .unwrap_or_else(|| estimate_semantic_level(&spec.question));
    let key = ResultKey {
        question: spec.question.clone(),
        fingerprint: shared.session.manifest().fingerprint(),
        seed: shared.session.config().seed,
        salt: spec.salt,
        semantic: semantic.label().to_string(),
    };
    // Injection site: a result-cache miss. Recovery is recomputation —
    // the workflow below re-derives the same (seed, salt) report the
    // cache would have returned.
    let cached = if infera_faults::check(infera_faults::sites::CACHE_RESULT).is_some() {
        shared.metrics.inc(metric_names::FAULT_RECOVERED, 1);
        None
    } else {
        shared.cache.get(&key)
    };
    if let Some(report) = cached {
        shared.metrics.inc(metric_names::CACHE_HITS, 1);
        let run_ms = picked_up.elapsed().as_millis() as u64;
        shared.metrics.observe(metric_names::RUN_MS, run_ms as f64);
        let digest = report_digest(&report);
        shared.bus.publish_job(
            event_names::JOB_COMPLETED,
            &[
                ("job", AttrValue::from(job.id)),
                ("run_ms", AttrValue::from(run_ms)),
                ("digest", AttrValue::from(format!("{digest:016x}"))),
                ("cache_hit", AttrValue::from(true)),
            ],
        );
        return JobResult {
            id: job.id,
            question: spec.question.clone(),
            salt: spec.salt,
            digest,
            cache_hit: true,
            queue_ms,
            run_ms,
            attempts: 1,
            status: JobStatus::Done(report),
        };
    }
    // Execute the workflow, replaying transient infrastructure failures
    // up to the retry budget. Every attempt re-runs from the same
    // `(seed, salt)`, so a retry that succeeds is bit-identical to a
    // never-faulted run — the redo loop inside the run never sees the
    // fault (agents abort with `AgentError::Infra` instead).
    let policy = shared.retry;
    let mut attempts: u32 = 0;
    let mut injected_failure = false;
    let (status, obs) = loop {
        attempts += 1;
        // The job gets its own Obs per attempt, bus-attached and
        // scheduler-held: the trace survives failures (no RunReport to
        // carry it) and streams live while the run executes.
        // Observability only — the run's analytical output is still a
        // pure function of (seed, salt).
        let obs = Obs::new();
        obs.tracer.attach_bus(
            shared.bus.clone(),
            &[
                ("job", AttrValue::from(job.id)),
                ("salt", AttrValue::from(spec.salt)),
                ("attempt", AttrValue::from(u64::from(attempts))),
            ],
        );
        // Injection site: the job fails at the serve boundary before the
        // workflow runs (classified transient, so the retry loop eats it).
        let outcome = match infera_faults::check(infera_faults::sites::SERVE_JOB) {
            Some(infera_faults::FaultMode::Panic) => panic!(
                "{}",
                infera_faults::injected_error(infera_faults::sites::SERVE_JOB)
            ),
            Some(_) => Err(InferaError::new(
                ErrorKind::Storage,
                infera_faults::injected_error(infera_faults::sites::SERVE_JOB),
            )),
            None => {
                let mut opts = AskOptions::new()
                    .semantic(semantic)
                    .seed(spec.salt)
                    .cancel_token(job.cancel.clone())
                    .obs(obs.clone());
                if let Some(timeout) = spec.timeout {
                    opts = opts.timeout(timeout);
                }
                shared.session.ask_opts(&spec.question, opts)
            }
        };
        // Failed attempts leave real work behind (chunks read, tokens
        // spent): absorb every attempt's metrics, not just the last one's.
        shared.global.absorb(&obs.metrics);
        match outcome {
            Ok(report) => {
                if injected_failure {
                    // An injected fault was survived via retry.
                    shared.metrics.inc(metric_names::FAULT_RECOVERED, 1);
                }
                let report = Arc::new(report);
                shared.cache.insert(key.clone(), report.clone());
                break (JobStatus::Done(report), obs);
            }
            Err(err) => {
                injected_failure |= err.to_string().contains(infera_faults::INJECTED_MARKER);
                let transient = is_transient(err.kind());
                if transient && attempts < policy.max_attempts {
                    shared.metrics.inc(metric_names::RETRY_ATTEMPTS, 1);
                    shared.bus.publish_job(
                        event_names::JOB_RETRIED,
                        &[
                            ("job", AttrValue::from(job.id)),
                            ("attempt", AttrValue::from(u64::from(attempts))),
                            ("error", AttrValue::from(err.to_string())),
                        ],
                    );
                    // During a drain the retry still runs — admitted jobs
                    // must complete — but the backoff sleep is skipped so
                    // shutdown stays prompt.
                    if !shared.shutting_down.load(Ordering::Relaxed) {
                        std::thread::sleep(policy.backoff(job.id, attempts));
                    }
                    continue;
                }
                if transient && attempts >= policy.max_attempts {
                    shared.metrics.inc(metric_names::RETRY_EXHAUSTED, 1);
                }
                break (JobStatus::Failed(err), obs);
            }
        }
    };
    let digest = match &status {
        JobStatus::Done(report) => report_digest(report),
        JobStatus::Failed(_) => 0,
    };
    let run_ms = picked_up.elapsed().as_millis() as u64;
    shared.metrics.observe(metric_names::RUN_MS, run_ms as f64);
    let make_entry = |outcome: FlightOutcome, error: Option<String>| FlightEntry {
        job_id: job.id,
        question: spec.question.clone(),
        salt: spec.salt,
        outcome,
        error,
        cache_hit: false,
        queue_ms,
        run_ms,
        digest,
        attempts,
        trace: obs.tracer.snapshot(),
    };
    match &status {
        JobStatus::Done(_) => {
            shared
                .flight
                .record_completed(run_ms, || make_entry(FlightOutcome::Completed, None));
            shared.bus.publish_job(
                event_names::JOB_COMPLETED,
                &[
                    ("job", AttrValue::from(job.id)),
                    ("run_ms", AttrValue::from(run_ms)),
                    ("digest", AttrValue::from(format!("{digest:016x}"))),
                    ("cache_hit", AttrValue::from(false)),
                ],
            );
        }
        JobStatus::Failed(err) => {
            let timed_out = err.kind() == ErrorKind::Timeout;
            let outcome = if timed_out {
                FlightOutcome::TimedOut
            } else {
                FlightOutcome::Failed
            };
            shared
                .flight
                .record_failure(make_entry(outcome, Some(err.to_string())));
            shared.bus.publish_job(
                if timed_out {
                    event_names::JOB_TIMED_OUT
                } else {
                    event_names::JOB_FAILED
                },
                &[
                    ("job", AttrValue::from(job.id)),
                    ("run_ms", AttrValue::from(run_ms)),
                    ("error", AttrValue::from(err.to_string())),
                ],
            );
        }
    }
    JobResult {
        id: job.id,
        question: spec.question.clone(),
        salt: spec.salt,
        status,
        digest,
        cache_hit: false,
        queue_ms,
        run_ms,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infera_hacc::EnsembleSpec;
    use infera_llm::BehaviorProfile;

    fn session(name: &str) -> Arc<InferA> {
        let base = std::env::temp_dir().join("infera_serve_sched_tests").join(name);
        std::fs::remove_dir_all(&base).ok();
        let manifest =
            infera_hacc::generate(&EnsembleSpec::tiny(61), &base.join("ens")).unwrap();
        Arc::new(
            InferA::from_manifest(manifest)
                .work_dir(base.join("work"))
                .profile(BehaviorProfile::perfect())
                .build()
                .unwrap(),
        )
    }

    const Q: &str = "What is the maximum fof_halo_mass at timestep 624 in simulation 1?";

    #[test]
    fn jobs_complete_and_cache_repeats() {
        // One worker: the second identical job must run after the first
        // finished, guaranteeing a result-cache hit (with >1 workers the
        // two could race past the cache and both run — still correct,
        // just not a hit).
        let sched = Scheduler::new(
            session("complete"),
            ServeConfig::with_pool(1, 8),
        );
        let a = sched.submit(JobSpec::new(Q, 5)).unwrap();
        let b = sched.submit(JobSpec::new(Q, 5)).unwrap();
        assert_ne!(a.id(), b.id());
        // Handles deliver per-job, independent of completion order.
        let ra = a.wait();
        let rb = b.wait();
        assert!(a.is_finished() && b.is_finished());
        assert_eq!(ra.id, a.id());
        assert_eq!(rb.id, b.id());
        assert!(ra.report().is_some() && rb.report().is_some());
        assert_eq!(ra.digest, rb.digest, "same salt, same report");
        assert!(rb.cache_hit, "second identical job is served from cache");
        assert!(ra.attempts == 1 && rb.attempts == 1, "no retries needed");
        sched.shutdown();
    }

    #[test]
    fn streaming_submit_delivers_this_jobs_events_only() {
        let sched = Scheduler::new(
            session("streaming"),
            ServeConfig::with_pool(2, 8),
        );
        let other = sched.submit(JobSpec::new(Q, 11)).unwrap();
        let mut handle = sched
            .submit_streaming(JobSpec::new(Q, 12), 4096)
            .unwrap();
        let result = handle.wait();
        assert!(result.report().is_some());
        other.wait();
        let events = handle.take_events().expect("streaming submit has events");
        let got = events.drain();
        assert!(!got.is_empty(), "a completed job must have streamed events");
        assert!(
            got.iter().all(|ev| ev.job_id() == Some(handle.id())),
            "event stream is scoped to the submitted job"
        );
        // The stream opens at admission and ends with a terminal event.
        let names = job_event_names(&got);
        assert_eq!(names.first(), Some(&event_names::JOB_QUEUED));
        assert_eq!(names.last(), Some(&event_names::JOB_COMPLETED));
        sched.shutdown();
    }

    fn job_event_names(events: &[infera_obs::BusEvent]) -> Vec<&str> {
        events
            .iter()
            .filter_map(|ev| match &ev.kind {
                infera_obs::BusEventKind::Job { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// `job_queued` precedes `job_started` by construction, not by luck:
    /// two idle workers race the submitter for every one of 300 jobs.
    #[test]
    fn job_queued_always_precedes_job_started() {
        let sched = Scheduler::new(session("queued_first"), ServeConfig::with_pool(2, 8));
        for round in 0..300 {
            // One salt throughout: after the first round the result cache
            // answers, so a round is the lifecycle and little else.
            let mut handle = sched.submit_streaming(JobSpec::new(Q, 12), 4096).unwrap();
            assert!(handle.wait().report().is_some());
            let events = handle.take_events().expect("streaming submit has events");
            let got = events.drain();
            let names = job_event_names(&got);
            let at = |wanted: &str| names.iter().position(|n| *n == wanted);
            let queued_then_started =
                at(event_names::JOB_QUEUED) == Some(0) && at(event_names::JOB_STARTED) > Some(0);
            assert!(queued_then_started, "round {round}: {names:?}");
        }
        // A rejected job publishes `job_rejected` and nothing else.
        let all = sched.bus().subscribe(64);
        sched.begin_shutdown();
        assert!(sched.submit(JobSpec::new(Q, 13)).is_err());
        assert_eq!(job_event_names(&all.drain()), [event_names::JOB_REJECTED]);
        sched.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_reason() {
        // No workers can't be configured (min 1), so stuff the queue
        // faster than one worker drains it: capacity 1 and a pile of
        // submissions must produce at least one rejection.
        let sched = Scheduler::new(
            session("backpressure"),
            ServeConfig::with_pool(1, 1),
        );
        let mut rejected = 0;
        for salt in 0..32 {
            if let Err(reason) = sched.submit(JobSpec::new(Q, salt)) {
                assert!(matches!(reason, RejectReason::QueueFull { capacity: 1 }));
                rejected += 1;
            }
        }
        assert!(rejected > 0, "bounded queue must push back");
        assert_eq!(
            sched.metrics().counter(metric_names::JOBS_REJECTED),
            rejected
        );
        let results = sched.shutdown();
        assert_eq!(32 - rejected as usize, results.len());
    }

    #[test]
    fn cancel_queued_job() {
        let sched = Scheduler::new(
            session("cancel"),
            ServeConfig::with_pool(1, 8),
        );
        // Queue several; cancel the last before a worker reaches it.
        let handles: Vec<JobHandle> = (0..4)
            .map(|salt| sched.submit(JobSpec::new(Q, salt)).unwrap())
            .collect();
        let last = handles.last().unwrap();
        last.cancel();
        let canceled = last.wait();
        let results = sched.shutdown();
        // Either a worker saw the token before starting (Failed) or the
        // race lost and it ran to completion; both are legal, but the
        // common path on one worker is cancellation.
        if let JobStatus::Failed(err) = &canceled.status {
            assert_eq!(err.kind(), infera_core::ErrorKind::Canceled);
        }
        assert_eq!(results.len(), 4, "canceled jobs still produce results");
    }

    #[test]
    fn unknown_cancel_is_false() {
        let sched = Scheduler::new(session("unknown"), ServeConfig::default());
        assert!(!sched.cancel(999));
        sched.shutdown();
    }

    #[test]
    fn begin_shutdown_rejects_new_work_and_drains_admitted() {
        let sched = Scheduler::new(
            session("graceful"),
            ServeConfig::with_pool(1, 8),
        );
        let a = sched.submit(JobSpec::new(Q, 1)).unwrap();
        let b = sched.submit(JobSpec::new(Q, 2)).unwrap();
        sched.begin_shutdown();
        assert!(sched.is_shutting_down());
        assert_eq!(
            sched.submit(JobSpec::new(Q, 3)).err(),
            Some(RejectReason::ShuttingDown),
            "post-shutdown submissions are rejected, not queued"
        );
        let results = sched.shutdown();
        let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
        assert_eq!(ids, [a.id(), b.id()], "admitted jobs drain to completion");
        assert!(results.iter().all(|r| r.report().is_some()));
        assert!(
            a.is_finished() && b.is_finished(),
            "handles observe drained completions too"
        );
    }
}
