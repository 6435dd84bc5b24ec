//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms with quantile summaries.
//!
//! All operations lock a single `parking_lot` mutex, so a registry may
//! be shared across threads (the eval harness fans runs across rayon;
//! the sandbox gateway executes on a worker thread). Names are plain
//! strings; the instrumentation convention is dotted lowercase, e.g.
//! `run.redos`, `sql.queries`, `sandbox.exec_us`.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Well-known metric names shared across crates, so producers and the
/// report renderers agree without string drift.
pub mod names {
    /// On-disk (encoded) bytes written by table appends.
    pub const STORAGE_ENCODED_BYTES: &str = "storage.encoded_bytes";
    /// Raw-layout bytes those same appends represent; the ratio of the
    /// two counters is the realized compression ratio.
    pub const STORAGE_LOGICAL_BYTES: &str = "storage.logical_bytes";
    /// `meta.json` flushes of tables attached to this registry. A table is
    /// attached after its creating flush, so this counts the flushes
    /// that followed: one per append call, whatever the batch count.
    pub const STORAGE_META_FLUSHES: &str = "storage.meta_flushes";
    /// Frames handed to the provenance store (`put_frame` calls).
    pub const PROV_FRAMES_PUT: &str = "provenance.frames_put";
    /// Frames the provenance store rendered to CSV: with every distinct
    /// frame rendered once, the number of distinct frames put.
    pub const PROV_FRAMES_RENDERED: &str = "provenance.frames_rendered";
    /// Rows a late-materializing scan never decoded because the
    /// predicate's selection vector rejected them.
    pub const SCAN_ROWS_PRUNED: &str = "scan.rows_pruned";
    /// Milliseconds spent building the shared join hash table (histogram;
    /// one observation per joined query).
    pub const JOIN_BUILD_MS: &str = "join.build_ms";
    /// Milliseconds spent probing the join table (histogram; one
    /// observation per scanned chunk).
    pub const JOIN_PROBE_MS: &str = "join.probe_ms";
    /// Radix partitions of the last join build (gauge; 1 = unpartitioned).
    pub const JOIN_PARTITIONS: &str = "join.partitions";
    /// Per-chunk group-by partials merged into final aggregates.
    pub const GROUPBY_PARTIALS_MERGED: &str = "groupby.partials_merged";
    /// Chunks answered by the dictionary-code group-by fast path
    /// (grouping on `u32` codes, no per-row string decode).
    pub const GROUPBY_DICT_FASTPATH_CHUNKS: &str = "groupby.dict_fastpath_chunks";
    /// Chunks answered by the dictionary-code join fast path (probing
    /// distinct dictionary entries instead of every row).
    pub const JOIN_DICT_FASTPATH_CHUNKS: &str = "join.dict_fastpath_chunks";
    /// Dictionary strings actually decoded on the fast paths — the
    /// savings story: compare against rows scanned.
    pub const DICT_STRINGS_DECODED: &str = "dict.strings_decoded";

    // ---- workflow / agents -------------------------------------------------

    /// QA-triggered redo loops across a run's nodes.
    pub const RUN_REDOS: &str = "run.redos";
    /// Node attempts that ended in an error (before any redo).
    pub const RUN_STEP_FAILURES: &str = "run.step_failures";
    /// Runs aborted by an unrecoverable node failure.
    pub const RUN_ABORTS: &str = "run.aborts";
    /// QA loops that exhausted their revision budget.
    pub const QA_BUDGET_EXHAUSTED: &str = "qa.budget_exhausted";
    /// Decoded-batch loads answered by the cross-session shared cache.
    pub const LOAD_SHARED_CACHE_HITS: &str = "load.shared_cache_hits";

    // ---- sandbox -----------------------------------------------------------

    /// Programs executed by the sandbox gateway.
    pub const SANDBOX_EXECUTIONS: &str = "sandbox.executions";
    /// Programs rejected at parse time.
    pub const SANDBOX_PARSE_ERRORS: &str = "sandbox.parse_errors";
    /// Programs that started but failed during execution.
    pub const SANDBOX_EXEC_ERRORS: &str = "sandbox.exec_errors";
    /// Programs killed by the sandbox step-budget watchdog.
    pub const SANDBOX_TIMEOUTS: &str = "sandbox.timeouts";
    /// Per-program sandbox execution latency (histogram, µs).
    pub const SANDBOX_EXEC_US: &str = "sandbox.exec_us";

    // ---- sql / columnar ----------------------------------------------------

    /// Queries that failed logical planning.
    pub const SQL_PLAN_ERRORS: &str = "sql.plan_errors";
    /// Queries rejected by the SQL parser.
    pub const SQL_PARSE_ERRORS: &str = "sql.parse_errors";
    /// Chunks skipped by zone-map pruning.
    pub const SQL_CHUNKS_SKIPPED: &str = "sql.chunks_skipped";
    /// Rows actually scanned after pruning.
    pub const SQL_ROWS_SCANNED: &str = "sql.rows_scanned";
    /// Queries that failed during execution.
    pub const SQL_EXEC_ERRORS: &str = "sql.exec_errors";
    /// Per-query execution latency (histogram, µs).
    pub const SQL_EXEC_US: &str = "sql.exec_us";
    /// Queries executed.
    pub const SQL_QUERIES: &str = "sql.queries";
    /// Physical plan candidates scored by the cost-based optimizer
    /// (join orders and rewrite alternatives considered).
    pub const PLAN_CANDIDATES_CONSIDERED: &str = "plan.candidates_considered";
    /// WHERE conjuncts pushed below a join into a scan (local filter
    /// and/or zone-map pruning) instead of running post-join.
    pub const PLAN_PREDICATES_PUSHED: &str = "plan.predicates_pushed";
    /// Queries where the optimizer pre-aggregated below the join
    /// (group keys subsume the join key; matches counted, not gathered).
    pub const PLAN_PREAGG_APPLIED: &str = "plan.preagg_applied";
    /// Morsels (chunk-aligned work units) dispatched to the worker pool.
    pub const MORSEL_COUNT: &str = "morsel.count";
    /// Milliseconds workers spent waiting on the morsel queue
    /// (histogram; one observation per worker).
    pub const MORSEL_QUEUE_WAIT_MS: &str = "morsel.queue_wait_ms";

    // ---- serve scheduler ---------------------------------------------------

    /// Jobs currently queued (gauge).
    pub const SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";
    /// Jobs admitted to the queue.
    pub const SERVE_JOBS_ACCEPTED: &str = "serve.jobs_accepted";
    /// Jobs rejected at admission (queue full / shutting down).
    pub const SERVE_JOBS_REJECTED: &str = "serve.jobs_rejected";
    /// Jobs that finished with a report.
    pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs_completed";
    /// Jobs that finished with an error (includes timeouts).
    pub const SERVE_JOBS_FAILED: &str = "serve.jobs_failed";
    /// The subset of failed jobs that hit their deadline.
    pub const SERVE_JOBS_TIMED_OUT: &str = "serve.jobs_timed_out";
    /// Jobs answered from the result cache.
    pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";
    /// Admission-to-dequeue wait (histogram, ms).
    pub const SERVE_QUEUE_WAIT_MS: &str = "serve.queue_wait_ms";
    /// Dequeue-to-completion run time (histogram, ms).
    pub const SERVE_RUN_MS: &str = "serve.run_ms";

    // ---- resilience: fault injection, retry, circuit breaker ---------------

    /// Faults injected by the installed `infera-faults` plan (mirrored
    /// from the plan's own counters via `set_counter`).
    pub const FAULT_INJECTED: &str = "fault.injected";
    /// Injected faults the stack recovered from (retry-to-success,
    /// caught panic, checksum-detected corruption, forced-miss reload).
    pub const FAULT_RECOVERED: &str = "fault.recovered";
    /// Job re-executions after a transient failure (excludes the first
    /// attempt).
    pub const RETRY_ATTEMPTS: &str = "retry.attempts";
    /// Jobs that failed every attempt in the retry budget.
    pub const RETRY_EXHAUSTED: &str = "retry.exhausted";
    /// Circuit-breaker transitions into the open state.
    pub const BREAKER_OPENED: &str = "breaker.opened";
    /// Jobs rejected at admission because a breaker was open.
    pub const BREAKER_REJECTED: &str = "breaker.rejected";
    /// Chunks quarantined after checksum mismatch or torn-write
    /// detection; reads of a quarantined chunk fail fast.
    pub const STORAGE_CHUNKS_QUARANTINED: &str = "storage.chunks_quarantined";
    /// Worker threads whose loop was re-entered after a panic escaped a
    /// job (the pool self-heals; this counts the incidents).
    pub const SERVE_WORKERS_LOST: &str = "serve.workers_lost";
    /// Panics caught inside a job by per-job isolation (the job fails
    /// typed; the worker keeps running).
    pub const SERVE_WORKER_PANICS: &str = "serve.worker_panics";

    // ---- sharded scatter-gather execution ----------------------------------

    /// Plan fragments run on shards (one per shard per scatter).
    pub const SHARD_FRAGMENTS_SENT: &str = "shard.fragments_sent";
    /// Partial groups/rows merged by the scatter-gather combiner.
    pub const SHARD_PARTIALS_MERGED: &str = "shard.partials_merged";
    /// Wall-clock milliseconds spent in the combiner.
    pub const SHARD_COMBINE_MS: &str = "shard.combine_ms";

    // ---- observability pipeline itself -------------------------------------

    /// Events delivered to at least one event-bus subscriber.
    pub const OBS_EVENTS_PUBLISHED: &str = "obs.events_published";
    /// Events dropped because a subscriber's bounded channel was full.
    pub const OBS_EVENTS_DROPPED: &str = "obs.events_dropped";

    /// Every declared metric name. The metric-name hygiene test asserts
    /// that each name appearing in a full-run snapshot is listed here,
    /// so ad-hoc (typo-prone) instrumentation strings fail CI.
    pub fn all() -> &'static [&'static str] {
        &[
            STORAGE_ENCODED_BYTES,
            STORAGE_LOGICAL_BYTES,
            STORAGE_META_FLUSHES,
            PROV_FRAMES_PUT,
            PROV_FRAMES_RENDERED,
            SCAN_ROWS_PRUNED,
            JOIN_BUILD_MS,
            JOIN_PROBE_MS,
            JOIN_PARTITIONS,
            GROUPBY_PARTIALS_MERGED,
            GROUPBY_DICT_FASTPATH_CHUNKS,
            JOIN_DICT_FASTPATH_CHUNKS,
            DICT_STRINGS_DECODED,
            RUN_REDOS,
            RUN_STEP_FAILURES,
            RUN_ABORTS,
            QA_BUDGET_EXHAUSTED,
            LOAD_SHARED_CACHE_HITS,
            SANDBOX_EXECUTIONS,
            SANDBOX_PARSE_ERRORS,
            SANDBOX_EXEC_ERRORS,
            SANDBOX_TIMEOUTS,
            SANDBOX_EXEC_US,
            SQL_PLAN_ERRORS,
            SQL_PARSE_ERRORS,
            SQL_CHUNKS_SKIPPED,
            SQL_ROWS_SCANNED,
            SQL_EXEC_ERRORS,
            SQL_EXEC_US,
            SQL_QUERIES,
            PLAN_CANDIDATES_CONSIDERED,
            PLAN_PREDICATES_PUSHED,
            PLAN_PREAGG_APPLIED,
            MORSEL_COUNT,
            MORSEL_QUEUE_WAIT_MS,
            SERVE_QUEUE_DEPTH,
            SERVE_JOBS_ACCEPTED,
            SERVE_JOBS_REJECTED,
            SERVE_JOBS_COMPLETED,
            SERVE_JOBS_FAILED,
            SERVE_JOBS_TIMED_OUT,
            SERVE_CACHE_HITS,
            SERVE_QUEUE_WAIT_MS,
            SERVE_RUN_MS,
            FAULT_INJECTED,
            FAULT_RECOVERED,
            RETRY_ATTEMPTS,
            RETRY_EXHAUSTED,
            BREAKER_OPENED,
            BREAKER_REJECTED,
            STORAGE_CHUNKS_QUARANTINED,
            SERVE_WORKERS_LOST,
            SERVE_WORKER_PANICS,
            SHARD_FRAGMENTS_SENT,
            SHARD_PARTIALS_MERGED,
            SHARD_COMBINE_MS,
            OBS_EVENTS_PUBLISHED,
            OBS_EVENTS_DROPPED,
        ]
    }

    /// Whether `name` is a declared constant.
    pub fn is_declared(name: &str) -> bool {
        all().contains(&name)
    }
}

/// A fixed-bucket histogram. `bounds` are inclusive upper bounds of the
/// finite buckets; one implicit overflow bucket catches everything
/// above the last bound, so `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Default bucket bounds: a 1 / 2.5 / 5 ladder over nine decades,
    /// suitable for anything from microseconds to token counts.
    pub fn default_bounds() -> Vec<f64> {
        let mut bounds = Vec::with_capacity(27);
        let mut decade = 1.0f64;
        for _ in 0..9 {
            bounds.push(decade);
            bounds.push(decade * 2.5);
            bounds.push(decade * 5.0);
            decade *= 10.0;
        }
        bounds
    }

    pub fn new(mut bounds: Vec<f64>) -> Histogram {
        bounds.retain(|b| b.is_finite());
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by walking cumulative
    /// bucket counts and interpolating linearly inside the target
    /// bucket. Bucket edges are clamped to the observed min/max, so the
    /// estimate never leaves the observed range.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= target {
                let lower = if idx == 0 {
                    self.min
                } else {
                    self.bounds[idx - 1].max(self.min)
                };
                let upper = if idx < self.bounds.len() {
                    self.bounds[idx].min(self.max)
                } else {
                    self.max
                };
                let within = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                return lower + within * (upper - lower);
            }
            cum = next;
        }
        self.max
    }

    /// Inclusive upper bounds of the finite buckets.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket, so
    /// `bucket_counts().len() == bounds().len() + 1`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Minimum observed value (`None` when empty).
    pub fn observed_min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observed value (`None` when empty).
    pub fn observed_max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Fold `other` into `self`.
    ///
    /// When the two histograms share bucket bounds (the common case —
    /// every registry uses [`Histogram::default_bounds`] unless told
    /// otherwise) the merge is exact: per-bucket counts add, and
    /// `merge(a, b)` is indistinguishable from having recorded every
    /// sample into one histogram. With differing bounds, each of
    /// `other`'s finite buckets is re-recorded at its upper bound and
    /// the overflow bucket maps to overflow — an approximation, but
    /// count/sum/min/max stay exact either way.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.bounds == other.bounds {
            for (c, o) in self.counts.iter_mut().zip(&other.counts) {
                *c += o;
            }
        } else {
            for (idx, &n) in other.counts.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let slot = if idx < other.bounds.len() {
                    let b = other.bounds[idx];
                    self.bounds
                        .iter()
                        .position(|&sb| b <= sb)
                        .unwrap_or(self.bounds.len())
                } else {
                    self.bounds.len()
                };
                self.counts[slot] += n;
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            mean: self.mean(),
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time quantile summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Owned copy of a registry's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Thread-safe metrics registry. Cheap to clone; clones share state.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<MetricsInner>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increment a counter by `delta` (created at 0 on first use).
    pub fn inc(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to an absolute value.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().gauges.get(name).copied()
    }

    /// Record an observation into a histogram with the default buckets.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(Histogram::default_bounds()))
            .observe(value);
    }

    /// Record into a histogram created with explicit bucket bounds. The
    /// bounds only apply on first creation of the named histogram.
    pub fn observe_with_buckets(&self, name: &str, value: f64, bounds: &[f64]) {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .observe(value);
    }

    /// Quantile summary of a histogram, if it has been observed into.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.inner.lock().histograms.get(name).map(Histogram::summary)
    }

    /// Set a counter to an absolute value. Reserved for mirroring an
    /// externally-authoritative count (the event bus's publish/drop
    /// totals) into the registry; normal instrumentation uses [`inc`].
    ///
    /// [`inc`]: MetricsRegistry::inc
    pub fn set_counter(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock();
        inner.counters.insert(name.to_string(), value);
    }

    /// Fold another registry's state into this one: counters add,
    /// gauges take `other`'s value (last write wins), histograms merge
    /// per [`Histogram::merge`]. `other` is read under its own lock
    /// first, so the two registries may be under concurrent use.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let theirs = {
            let o = other.inner.lock();
            (o.counters.clone(), o.gauges.clone(), o.histograms.clone())
        };
        let mut inner = self.inner.lock();
        for (name, v) in theirs.0 {
            *inner.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in theirs.1 {
            inner.gauges.insert(name, v);
        }
        for (name, h) in theirs.2 {
            match inner.histograms.get_mut(&name) {
                Some(mine) => mine.merge(&h),
                None => {
                    inner.histograms.insert(name, h);
                }
            }
        }
    }

    /// Owned copy of a full histogram (buckets and all), for renderers
    /// that need more than the quantile summary (Prometheus exposition).
    pub fn histogram_full(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().histograms.get(name).cloned()
    }

    /// Names of every histogram in the registry.
    pub fn histogram_names(&self) -> Vec<String> {
        self.inner.lock().histograms.keys().cloned().collect()
    }

    /// Owned copy of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    /// Human-readable dump of every metric, one per line.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "gauge   {name} = {v}");
        }
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "hist    {name} count={} mean={:.2} p50={:.2} p90={:.2} p99={:.2} max={:.2}",
                h.count, h.mean, h.p50, h.p90, h.p99, h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x", 2);
        m.inc("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.25);
        assert_eq!(m.gauge("g"), Some(1.25));
    }

    #[test]
    fn histogram_quantiles_on_uniform_distribution() {
        // 1..=1000 into buckets of width 100: quantiles interpolate to
        // the exact percentile values.
        let bounds: Vec<f64> = (1..=10).map(|i| (i * 100) as f64).collect();
        let mut h = Histogram::new(bounds);
        for v in 1..=1000 {
            h.observe(v as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.p50 - 500.0).abs() < 1.5, "p50={}", s.p50);
        assert!((s.p90 - 900.0).abs() < 1.5, "p90={}", s.p90);
        assert!((s.p99 - 990.0).abs() < 1.5, "p99={}", s.p99);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn histogram_overflow_bucket_and_empty() {
        let mut h = Histogram::new(vec![10.0]);
        assert_eq!(h.summary().count, 0);
        assert_eq!(h.quantile(0.5), 0.0);
        h.observe(5.0);
        h.observe(50.0);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 50.0);
        assert!(s.p99 <= 50.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::new(Histogram::default_bounds());
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(h.observed_min(), None);
        assert_eq!(h.observed_max(), None);
    }

    #[test]
    fn single_sample_quantiles_collapse_to_the_sample() {
        let mut h = Histogram::new(Histogram::default_bounds());
        h.observe(7.0);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 7.0, "q={q}");
        }
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max, s.mean), (1, 7.0, 7.0, 7.0));
    }

    #[test]
    fn overflow_bucket_quantiles_clamp_to_observed_max() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        // Everything above the last bound lands in the overflow bucket.
        h.observe(100.0);
        h.observe(1000.0);
        h.observe(250.0);
        assert_eq!(h.bucket_counts(), &[0, 0, 3]);
        assert!(h.quantile(0.99) <= 1000.0);
        assert!(h.quantile(0.01) >= 100.0, "clamped to observed min");
        assert_eq!(h.summary().max, 1000.0);
    }

    #[test]
    fn merge_same_bounds_equals_recording_into_one() {
        let samples_a = [0.5, 3.0, 42.0, 42.0, 9_999.0];
        let samples_b = [1.0, 1.0, 77.0, 1e12]; // 1e12 overflows the ladder
        let mut a = Histogram::new(Histogram::default_bounds());
        let mut b = Histogram::new(Histogram::default_bounds());
        let mut one = Histogram::new(Histogram::default_bounds());
        for &v in &samples_a {
            a.observe(v);
            one.observe(v);
        }
        for &v in &samples_b {
            b.observe(v);
            one.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, one, "merge(a, b) must equal recording all samples into one");
    }

    #[test]
    fn merge_is_associative_and_handles_empties() {
        let mut empty = Histogram::new(Histogram::default_bounds());
        let mut x = Histogram::new(Histogram::default_bounds());
        x.observe(5.0);
        // empty ∪ x == x ∪ empty == x
        let mut left = empty.clone();
        left.merge(&x);
        empty.merge(&x);
        assert_eq!(left, empty);
        assert_eq!(left.count(), 1);
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut a = Histogram::new(Histogram::default_bounds());
        let mut b = Histogram::new(Histogram::default_bounds());
        let mut c = Histogram::new(Histogram::default_bounds());
        a.observe(1.0);
        b.observe(100.0);
        c.observe(10_000.0);
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn merge_differing_bounds_keeps_totals_exact() {
        let mut coarse = Histogram::new(vec![10.0, 100.0]);
        let mut fine = Histogram::new(vec![1.0, 2.0, 5.0, 10.0, 50.0]);
        fine.observe(1.5);
        fine.observe(30.0);
        fine.observe(500.0); // fine's overflow
        coarse.observe(80.0);
        coarse.merge(&fine);
        assert_eq!(coarse.count(), 4);
        assert_eq!(coarse.sum(), 80.0 + 1.5 + 30.0 + 500.0);
        assert_eq!(coarse.observed_min(), Some(1.5));
        assert_eq!(coarse.observed_max(), Some(500.0));
        // Bucket placement: 1.5→≤10, 30→≤100, 500→overflow, 80→≤100.
        assert_eq!(coarse.bucket_counts(), &[1, 2, 1]);
    }

    #[test]
    fn registry_merge_from_adds_counters_and_merges_histograms() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.inc("c", 2);
        b.inc("c", 3);
        b.inc("only_b", 1);
        a.set_gauge("g", 1.0);
        b.set_gauge("g", 2.0);
        a.observe("h", 10.0);
        b.observe("h", 1000.0);
        b.observe("h2", 5.0);
        a.merge_from(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), Some(2.0), "gauges take the merged-in value");
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1000.0);
        assert_eq!(a.histogram("h2").unwrap().count, 1);
        // Self-merge is a no-op, not a double-count or deadlock.
        a.merge_from(&a.clone());
        assert_eq!(a.counter("c"), 5);
    }

    #[test]
    fn declared_names_are_unique_and_dotted() {
        let all = names::all();
        let mut seen = std::collections::BTreeSet::new();
        for name in all {
            assert!(seen.insert(*name), "duplicate declared name {name}");
            assert!(name.contains('.'), "metric name {name} must be dotted");
            assert_eq!(*name, name.to_lowercase(), "{name} must be lowercase");
        }
        assert!(names::is_declared(names::RUN_REDOS));
        assert!(!names::is_declared("run.typo_name"));
    }

    #[test]
    fn registry_render_lists_everything() {
        let m = MetricsRegistry::new();
        m.inc("run.redos", 1);
        m.set_gauge("db.tables", 3.0);
        m.observe("sql.exec_us", 120.0);
        let text = m.render();
        assert!(text.contains("run.redos"));
        assert!(text.contains("db.tables"));
        assert!(text.contains("sql.exec_us"));
    }
}
