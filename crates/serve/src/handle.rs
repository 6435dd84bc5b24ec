//! Typed job handles: the public completion surface of the scheduler.
//!
//! [`Scheduler::submit`] returns a [`JobHandle`] instead of a bare id —
//! the caller awaits, polls, cancels, or subscribes through the handle,
//! and the result is routed to *that* submitter instead of a shared
//! completion-ordered channel.
//!
//! Delivery is push-based: the worker that finishes a job fills the
//! handle's slot (waking blocked [`JobHandle::wait`] callers) and hands
//! a copy to every watcher registered via [`JobHandle::notify`] — the
//! mechanism the network server uses to route completions onto the
//! submitting client's connection without polling.
//!
//! [`Scheduler::submit`]: crate::Scheduler::submit

use crate::job::JobResult;
use infera_agents::CancelToken;
use infera_obs::{BusEvent, Subscription};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Shared completion slot between a queued job and its handle.
///
/// Workers complete the slot exactly once; handles wait on it. Watchers
/// registered before completion are called with the result on the
/// worker thread; watchers registered after are called immediately.
#[derive(Default)]
pub(crate) struct JobSlot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

type Watcher = Box<dyn FnOnce(JobResult) + Send>;

#[derive(Default)]
struct SlotState {
    result: Option<JobResult>,
    watchers: Vec<Watcher>,
}

impl JobSlot {
    pub(crate) fn new() -> Arc<JobSlot> {
        Arc::new(JobSlot::default())
    }

    /// Fill the slot, wake waiters, and fan out to watchers. Called by
    /// the worker exactly once per job (std Mutex poisoning is
    /// recovered: a panic elsewhere must not lose a result).
    pub(crate) fn complete(&self, result: JobResult) {
        let watchers = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let watchers = std::mem::take(&mut state.watchers);
            state.result = Some(result.clone());
            watchers
        };
        self.cond.notify_all();
        for watcher in watchers {
            watcher(result.clone());
        }
    }

    fn try_result(&self) -> Option<JobResult> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .result
            .clone()
    }

    fn wait(&self, timeout: Option<Duration>) -> Option<JobResult> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = &state.result {
                return Some(result.clone());
            }
            state = match deadline {
                None => self.cond.wait(state).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.cond
                        .wait_timeout(state, left)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    /// Register a watcher; calls it immediately if already complete
    /// (outside the slot lock either way).
    fn notify(&self, watcher: Watcher) {
        let done = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            match &state.result {
                Some(result) => result.clone(),
                None => {
                    state.watchers.push(watcher);
                    return;
                }
            }
        };
        watcher(done);
    }
}

/// A submitted job: await its result, poll it, cancel it, or stream its
/// progress events. Cloneable via the cheap accessors; the handle can
/// be dropped freely — the job still runs to completion (drop does not
/// cancel; call [`JobHandle::cancel`] for that).
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) salt: u64,
    pub(crate) question: String,
    pub(crate) slot: Arc<JobSlot>,
    pub(crate) cancel: CancelToken,
    pub(crate) events: Option<JobEvents>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("salt", &self.salt)
            .field("finished", &self.is_finished())
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// Scheduler-assigned job id (submission order, starting at 1).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The run salt this job executes under.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    pub fn question(&self) -> &str {
        &self.question
    }

    /// Whether a terminal result is available.
    pub fn is_finished(&self) -> bool {
        self.slot.try_result().is_some()
    }

    /// Non-blocking poll for the terminal result.
    pub fn try_result(&self) -> Option<JobResult> {
        self.slot.try_result()
    }

    /// Block until the job finishes. Every admitted job terminates
    /// (complete, failed, timed out, or canceled), so this returns as
    /// long as the worker pool is alive.
    pub fn wait(&self) -> JobResult {
        self.slot
            .wait(None)
            .expect("job slot completed without a result")
    }

    /// Block up to `timeout` for the terminal result.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        self.slot.wait(Some(timeout))
    }

    /// Request cancellation: a queued job completes as `Canceled` when a
    /// worker picks it up; a running job aborts at its next step
    /// boundary. Idempotent; a finished job is unaffected.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Register a completion watcher: `watcher` is called once with a
    /// copy of the terminal [`JobResult`] when the job finishes — on the
    /// worker thread — or immediately, on the calling thread, if it
    /// already has. It must not block: the network server registers a
    /// send into the submitting connection's channel here.
    pub fn notify(&self, watcher: impl FnOnce(JobResult) + Send + 'static) {
        self.slot.notify(Box::new(watcher));
    }

    /// The job-scoped event stream, present when the job was submitted
    /// with [`Scheduler::submit_streaming`]. Subscribed *before*
    /// admission, so the `job_queued` event onward is captured.
    ///
    /// [`Scheduler::submit_streaming`]: crate::Scheduler::submit_streaming
    pub fn events(&self) -> Option<&JobEvents> {
        self.events.as_ref()
    }

    /// Take ownership of the event stream (e.g. to move it to a
    /// forwarding thread).
    pub fn take_events(&mut self) -> Option<JobEvents> {
        self.events.take()
    }
}

/// A per-job view over the scheduler's [`EventBus`]: the underlying
/// subscription sees every job's events, this wrapper yields only the
/// ones belonging to `job` (matched via [`BusEvent::job_id`]).
///
/// [`EventBus`]: infera_obs::EventBus
pub struct JobEvents {
    pub(crate) sub: Subscription,
    pub(crate) job: u64,
}

impl JobEvents {
    fn matches(&self, ev: &BusEvent) -> bool {
        ev.job_id() == Some(self.job)
    }

    /// Next buffered event for this job (non-blocking; skips other
    /// jobs' events).
    pub fn try_next(&self) -> Option<BusEvent> {
        while let Some(ev) = self.sub.try_recv() {
            if self.matches(&ev) {
                return Some(ev);
            }
        }
        None
    }

    /// Block up to `timeout` for this job's next event.
    pub fn next_timeout(&self, timeout: Duration) -> Option<BusEvent> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            match self.sub.recv_timeout(left) {
                Some(ev) if self.matches(&ev) => return Some(ev),
                Some(_) => continue,
                None => return None,
            }
        }
    }

    /// Drain everything currently buffered for this job.
    pub fn drain(&self) -> Vec<BusEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.try_next() {
            out.push(ev);
        }
        out
    }

    /// Events dropped on this subscription because its channel was full
    /// (counts all jobs' events, not just this one's).
    pub fn dropped(&self) -> u64 {
        self.sub.dropped()
    }
}

impl std::fmt::Debug for JobEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobEvents").field("job", &self.job).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStatus;
    use infera_core::InferaError;

    fn result(id: u64) -> JobResult {
        JobResult {
            id,
            question: "q".into(),
            salt: 1,
            status: JobStatus::Failed(InferaError::internal("test")),
            digest: 0,
            cache_hit: false,
            queue_ms: 0,
            run_ms: 0,
            attempts: 1,
        }
    }

    #[test]
    fn wait_returns_after_complete() {
        let slot = JobSlot::new();
        let waiter = {
            let slot = slot.clone();
            std::thread::spawn(move || slot.wait(Some(Duration::from_secs(5))))
        };
        std::thread::sleep(Duration::from_millis(20));
        slot.complete(result(3));
        let got = waiter.join().unwrap().expect("completed");
        assert_eq!(got.id, 3);
        assert_eq!(slot.try_result().unwrap().id, 3, "result stays readable");
    }

    #[test]
    fn wait_timeout_expires_on_unfinished_job() {
        let slot = JobSlot::new();
        assert!(slot.wait(Some(Duration::from_millis(30))).is_none());
    }

    #[test]
    fn watcher_registered_before_and_after_completion_both_deliver() {
        let slot = JobSlot::new();
        let (early_tx, early_rx) = std::sync::mpsc::channel();
        slot.notify(Box::new(move |r| early_tx.send(r).unwrap()));
        slot.complete(result(9));
        let (late_tx, late_rx) = std::sync::mpsc::channel();
        slot.notify(Box::new(move |r| late_tx.send(r).unwrap()));
        assert_eq!(early_rx.try_recv().unwrap().id, 9);
        assert_eq!(late_rx.try_recv().unwrap().id, 9);
    }
}
