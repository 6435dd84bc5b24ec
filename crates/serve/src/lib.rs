//! # infera-serve
//!
//! The concurrent serving layer: many `ask` sessions over **one**
//! ensemble, scheduled onto a bounded worker pool.
//!
//! The paper runs InferA as a single interactive session; serving an
//! ensemble to a group (a simulation campaign's analysts, a dashboard,
//! a batch of scripted questions) needs the same workflow behind a
//! queue. This crate adds that layer without touching run semantics:
//!
//! * [`Scheduler`] — an admission-controlled job queue feeding N worker
//!   threads, each running full two-stage workflows against a shared
//!   [`infera_core::InferA`] session. Full queues reject new jobs with
//!   a reason ([`RejectReason`]) instead of blocking the caller;
//! * [`ResultCache`] — finished [`RunReport`]s keyed by `(question,
//!   ensemble fingerprint, seed, semantic level)`, so repeated
//!   questions are answered without re-running the workflow. The cache
//!   invalidates itself when the ensemble fingerprint changes;
//! * per-job deadlines and caller-held cancellation via
//!   [`infera_agents::CancelToken`];
//! * [`bench`] — the `infera bench-serve` harness: the 20-question
//!   evaluation set at several worker counts, with a bit-identical
//!   concurrent-vs-serial check over [`digest::report_digest`];
//! * [`net`] — the network front end: a line-delimited JSON server
//!   (versioned wire protocol, [`net::protocol`]) with per-client
//!   streaming of job progress events, graceful drain, a blocking
//!   client, and the `bench-load` saturation harness.
//!
//! Submission is handle-based: [`Scheduler::submit`] returns a
//! [`JobHandle`] the caller awaits, polls, cancels, or streams events
//! from ([`Scheduler::submit_streaming`]).
//!
//! Determinism is load-bearing: a run is seeded by `(session seed, job
//! salt)` only, so the same job produces a byte-identical report
//! whether it ran alone, queued behind ten others, or on any of the N
//! workers.
//!
//! [`RunReport`]: infera_agents::RunReport

pub mod bench;
pub mod cache;
pub mod digest;
pub mod flight;
pub mod handle;
pub mod job;
pub mod net;
pub mod resilience;
pub mod scheduler;
pub mod telemetry;

pub use bench::{run_bench, BenchOpts, BenchServeReport, WorkerRow};
pub use cache::{ResultCache, ResultKey};
pub use digest::report_digest;
pub use flight::{FlightEntry, FlightOutcome, FlightRecorder, FlightSnapshot};
pub use handle::{JobEvents, JobHandle};
pub use job::{JobResult, JobSpec, JobStatus, RejectReason};
pub use resilience::{BreakerConfig, CircuitBreaker, RetryPolicy};
pub use scheduler::{Scheduler, ServeConfig};
pub use telemetry::{
    event_names, load_observability, persist_observability, render_stats_line,
    ObservabilityArtifacts,
};
