//! Shared read-only ensemble cache for concurrent sessions.
//!
//! Under the serving layer, N concurrent questions against one ensemble
//! would each re-open and re-decode the same GenericIO catalogs. The
//! [`SharedEnsembleCache`] memoizes the deterministic part of the
//! data-loading stage — the decoded per-file column batches, *including
//! their byte accounting* — so the ensemble is read once per distinct
//! `(sim, step, entity, columns)` selection and every subsequent run
//! reuses the `Arc`-shared frame.
//!
//! The cache is read-mostly: lookups take a read lock; only an insert
//! (first load of a selection) takes the write lock. Cached entries are
//! immutable (`Arc<DataFrame>`), so hits never copy column data until a
//! run appends the batch into its private database. Because the cached
//! value carries the same `bytes_read` / `file_bytes` accounting the
//! uncached path computes, runs produce bit-identical reports whether or
//! not the cache is enabled — the concurrency tests rely on this.

use infera_frame::DataFrame;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key of one cached selective read: which file, which columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoadKey {
    pub sim: u32,
    pub step: u32,
    /// Entity label ("halos", "galaxies", "cores", "particles").
    pub entity: String,
    /// Selected columns, in selection order (order matters: it fixes the
    /// batch's column layout).
    pub columns: Vec<String>,
}

/// One cached batch: the decoded frame plus the byte accounting the
/// uncached read would have reported.
#[derive(Debug, Clone)]
pub struct CachedBatch {
    pub frame: Arc<DataFrame>,
    /// Bytes the selective read touched (selected columns only).
    pub bytes_read: u64,
    /// Total bytes of the file (all columns) — the reduction denominator.
    pub file_bytes: u64,
}

/// A bounded concurrent map with hit/miss counters: the body every cache
/// in the workspace shares. Read-mostly — a lookup takes the read lock,
/// only an insert takes the write lock. At capacity new keys are dropped
/// and a racing duplicate insert keeps the first value (first-landed
/// wins: what is cached stays valid, and correctness never depends on a
/// hit).
#[derive(Debug)]
pub struct BoundedCache<K, V> {
    entries: RwLock<HashMap<K, V>>,
    max_entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> BoundedCache<K, V> {
    /// Cache bounded at `max_entries` distinct keys.
    pub fn new(max_entries: usize) -> BoundedCache<K, V> {
        BoundedCache {
            entries: RwLock::new(HashMap::new()),
            max_entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a value, counting the hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.entries.read().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a value (no-op for a new key once the cap is reached, and
    /// for a key already present).
    pub fn insert(&self, key: K, value: V) {
        let mut entries = self.entries.write();
        if entries.len() >= self.max_entries && !entries.contains_key(&key) {
            return;
        }
        entries.entry(key).or_insert(value);
    }

    /// Drop every entry; returns whether there were any.
    pub fn clear(&self) -> bool {
        let mut entries = self.entries.write();
        let dropped = !entries.is_empty();
        entries.clear();
        dropped
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Lifetime hit count.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Process-wide cache of decoded ensemble batches, shared across all
/// concurrent runs of one session.
pub type SharedEnsembleCache = BoundedCache<LoadKey, CachedBatch>;

#[cfg(test)]
mod tests {
    use super::*;
    use infera_frame::Column;

    fn key(sim: u32) -> LoadKey {
        LoadKey {
            sim,
            step: 498,
            entity: "halos".into(),
            columns: vec!["fof_halo_mass".into()],
        }
    }

    fn batch(v: f64) -> CachedBatch {
        CachedBatch {
            frame: Arc::new(
                DataFrame::from_columns([("fof_halo_mass", Column::from(vec![v]))]).unwrap(),
            ),
            bytes_read: 8,
            file_bytes: 64,
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let c = SharedEnsembleCache::new(8);
        assert!(c.get(&key(0)).is_none());
        c.insert(key(0), batch(1.0));
        assert!(c.get(&key(0)).is_some());
        assert_eq!(c.hit_count(), 1);
        assert_eq!(c.miss_count(), 1);
    }

    #[test]
    fn cap_blocks_new_keys_but_not_existing() {
        let c = SharedEnsembleCache::new(1);
        c.insert(key(0), batch(1.0));
        c.insert(key(1), batch(2.0));
        assert_eq!(c.len(), 1);
        assert!(c.get(&key(1)).is_none());
        // Re-inserting an existing key is allowed and keeps the first value.
        c.insert(key(0), batch(9.0));
        let got = c.get(&key(0)).unwrap();
        assert_eq!(got.frame.cell("fof_halo_mass", 0).unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn distinct_column_sets_are_distinct_keys() {
        let c = SharedEnsembleCache::new(8);
        c.insert(key(0), batch(1.0));
        let mut k2 = key(0);
        k2.columns.push("fof_halo_count".into());
        assert!(c.get(&k2).is_none());
    }
}
