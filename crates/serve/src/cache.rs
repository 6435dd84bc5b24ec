//! The serving layer's result cache.
//!
//! Workflows are deterministic given `(session seed, salt)`, so a
//! finished report is a pure function of the cache key — safe to serve
//! to any client asking the same question of the same ensemble. The
//! ensemble fingerprint (content hash of the manifest, not its path)
//! is part of the key *and* a validity guard: pointing the serving
//! layer at a regenerated ensemble drops every cached report.

use infera_agents::{BoundedCache, RunReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of a cacheable run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    pub question: String,
    /// `Manifest::fingerprint()` of the ensemble answered against.
    pub fingerprint: u64,
    /// The session's master seed.
    pub seed: u64,
    /// The job's run salt.
    pub salt: u64,
    /// Semantic-level label ("easy" / "medium" / "hard").
    pub semantic: String,
}

/// Bounded map from [`ResultKey`] to finished reports — a
/// [`BoundedCache`] (whose `get` / `insert` / `len` / hit and miss
/// counters it exposes, the counters surfaced as `serve.cache_*`
/// metrics) plus the fingerprint guard.
#[derive(Debug)]
pub struct ResultCache {
    entries: BoundedCache<ResultKey, Arc<RunReport>>,
    /// Fingerprint the current entries were computed against.
    fingerprint: AtomicU64,
}

impl ResultCache {
    pub fn new(max_entries: usize) -> ResultCache {
        ResultCache {
            entries: BoundedCache::new(max_entries),
            fingerprint: AtomicU64::new(0),
        }
    }

    /// Ensure the cache holds entries for `fingerprint` only, dropping
    /// everything cached against a different ensemble. Returns `true`
    /// when entries were invalidated.
    pub fn validate_fingerprint(&self, fingerprint: u64) -> bool {
        let current = self.fingerprint.swap(fingerprint, Ordering::SeqCst);
        current != fingerprint && self.entries.clear() && current != 0
    }
}

impl std::ops::Deref for ResultCache {
    type Target = BoundedCache<ResultKey, Arc<RunReport>>;

    fn deref(&self) -> &Self::Target {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> Arc<RunReport> {
        Arc::new(RunReport {
            question: "q".into(),
            plan_steps: 1,
            completed: true,
            completion_fraction: 1.0,
            redos: 0,
            satisfactory_data: true,
            satisfactory_viz: true,
            tokens: 10,
            llm_latency_ms: 5,
            wall_ms: 1,
            storage_bytes: 100,
            storage_logical_bytes: 100,
            flags: Default::default(),
            result: None,
            visualizations: vec![],
            summary: "s".into(),
            stage_costs: vec![],
            metrics: infera_obs::MetricsRegistry::new().snapshot(),
            trace: Default::default(),
        })
    }

    fn key(question: &str, fingerprint: u64) -> ResultKey {
        ResultKey {
            question: question.into(),
            fingerprint,
            seed: 42,
            salt: 1,
            semantic: "easy".into(),
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let cache = ResultCache::new(8);
        cache.validate_fingerprint(7);
        assert!(cache.get(&key("a", 7)).is_none());
        cache.insert(key("a", 7), dummy_report());
        assert!(cache.get(&key("a", 7)).is_some());
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn fingerprint_change_invalidates() {
        let cache = ResultCache::new(8);
        cache.validate_fingerprint(7);
        cache.insert(key("a", 7), dummy_report());
        assert_eq!(cache.len(), 1);
        assert!(cache.validate_fingerprint(8), "change drops entries");
        assert_eq!(cache.len(), 0);
        assert!(!cache.validate_fingerprint(8), "same fingerprint is a no-op");
    }

    #[test]
    fn capacity_blocks_new_keys() {
        let cache = ResultCache::new(1);
        cache.insert(key("a", 7), dummy_report());
        cache.insert(key("b", 7), dummy_report());
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("a", 7)).is_some());
        assert!(cache.get(&key("b", 7)).is_none());
    }
}
