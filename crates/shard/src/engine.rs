//! Session-level database facade: single or sharded, one surface.
//!
//! Agents and the serving layer talk to a [`SessionDb`]; whether the
//! session's storage is one [`Database`] or a [`ShardedDb`] is decided
//! once at session setup (`shards` in the run configuration) and
//! transparent afterwards — `ask` scatter-gathers exactly when a
//! sharded layout exists.

use crate::exec::ShardedDb;
use crate::layout::ShardLayout;
use infera_columnar::{Database, DbResult, ExecOutcome, ExecStats};
use infera_frame::{DType, DataFrame};
use std::path::Path;

/// A session's storage: one database or a sharded set.
pub enum SessionDb {
    Single(Database),
    Sharded(ShardedDb),
}

impl SessionDb {
    /// Create a session database under `root`. `shards <= 1` yields a
    /// plain single database; more yields a sharded layout partitioning
    /// `n_sims` ensemble members with `ensemble_fingerprint` identity.
    pub fn create(
        root: &Path,
        shards: usize,
        n_sims: u32,
        ensemble_fingerprint: u64,
        obs: infera_obs::Obs,
    ) -> DbResult<SessionDb> {
        if shards <= 1 {
            let mut db = Database::create(root)?;
            db.set_obs(obs);
            Ok(SessionDb::Single(db))
        } else {
            let layout = ShardLayout::build(shards, n_sims, ensemble_fingerprint);
            Ok(SessionDb::Sharded(ShardedDb::create(root, layout, obs)?))
        }
    }

    /// Open whatever lives at `root`: a sharded set when the layout
    /// marker exists, a plain database otherwise.
    pub fn open_auto(root: &Path) -> DbResult<SessionDb> {
        if ShardedDb::is_sharded(root) {
            Ok(SessionDb::Sharded(ShardedDb::open(root)?))
        } else {
            Ok(SessionDb::Single(Database::open(root)?))
        }
    }

    /// Number of shards (1 for a single database).
    pub fn n_shards(&self) -> usize {
        match self {
            SessionDb::Single(_) => 1,
            SessionDb::Sharded(s) => s.layout().n_shards,
        }
    }

    pub fn root(&self) -> &Path {
        match self {
            SessionDb::Single(db) => db.root(),
            SessionDb::Sharded(s) => s.root(),
        }
    }

    pub fn set_obs(&mut self, obs: infera_obs::Obs) {
        match self {
            SessionDb::Single(db) => db.set_obs(obs),
            SessionDb::Sharded(s) => s.set_obs(obs),
        }
    }

    pub fn list_tables(&self) -> Vec<String> {
        match self {
            SessionDb::Single(db) => db.list_tables(),
            SessionDb::Sharded(s) => s.list_tables(),
        }
    }

    pub fn create_table(&self, name: &str, schema: &[(String, DType)]) -> DbResult<()> {
        match self {
            SessionDb::Single(db) => db.create_table(name, schema),
            SessionDb::Sharded(s) => s.create_table(name, schema),
        }
    }

    pub fn append(&self, name: &str, batch: &DataFrame) -> DbResult<()> {
        match self {
            SessionDb::Single(db) => db.append(name, batch),
            SessionDb::Sharded(s) => s.append(name, batch),
        }
    }

    /// Append `batches` in order as one write per table (per shard):
    /// the chunks of one `append` per batch, one `meta.json` flush.
    pub fn append_batches(&self, name: &str, batches: &[&DataFrame]) -> DbResult<()> {
        match self {
            SessionDb::Single(db) => db.append_batches(name, batches),
            SessionDb::Sharded(s) => s.append_batches(name, batches),
        }
    }

    pub fn n_rows(&self, table: &str) -> DbResult<u64> {
        match self {
            SessionDb::Single(db) => db.n_rows(table),
            SessionDb::Sharded(s) => s.n_rows(table),
        }
    }

    pub fn table_schema(&self, table: &str) -> DbResult<Vec<(String, DType)>> {
        match self {
            SessionDb::Single(db) => db.table_schema(table),
            SessionDb::Sharded(s) => s.table_schema(table),
        }
    }

    pub fn query(&self, sql: &str) -> DbResult<DataFrame> {
        match self {
            SessionDb::Single(db) => db.query(sql),
            SessionDb::Sharded(s) => s.query(sql),
        }
    }

    pub fn query_with_stats(&self, sql: &str) -> DbResult<(DataFrame, ExecStats)> {
        match self {
            SessionDb::Single(db) => db.query_with_stats(sql),
            SessionDb::Sharded(s) => s.query_with_stats(sql),
        }
    }

    pub fn execute_sql(&self, sql: &str) -> DbResult<ExecOutcome> {
        match self {
            SessionDb::Single(db) => db.execute_sql(sql),
            SessionDb::Sharded(s) => s.execute_sql(sql),
        }
    }

    pub fn explain(&self, sql: &str) -> DbResult<String> {
        match self {
            SessionDb::Single(db) => db.explain(sql),
            SessionDb::Sharded(s) => s.explain(sql),
        }
    }

    pub fn total_bytes(&self) -> u64 {
        match self {
            SessionDb::Single(db) => db.total_bytes(),
            SessionDb::Sharded(s) => s.total_bytes(),
        }
    }

    pub fn total_logical_bytes(&self) -> u64 {
        match self {
            SessionDb::Single(db) => db.total_logical_bytes(),
            SessionDb::Sharded(s) => s.total_logical_bytes(),
        }
    }
}
