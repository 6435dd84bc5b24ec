//! # infera-columnar
//!
//! An on-disk columnar database with a SQL-subset engine — the role DuckDB
//! plays in the original InferA system (§3: "Selected data is written to a
//! DuckDB database, avoiding in-memory storage").
//!
//! Properties carried over from the original:
//!
//! * **out-of-core**: tables live on disk in chunked column files; scans
//!   hold only the pruned columns of one chunk per worker in memory;
//! * **selective**: projection pruning reads only referenced columns,
//!   predicate pushdown skips whole chunks via min/max zone maps;
//! * **parallel**: chunk scans and partial aggregation fan out with rayon;
//! * **SQL surface**: `SELECT` with expressions, scalar functions,
//!   `WHERE`, `GROUP BY` aggregates (count/sum/avg/min/max/stddev/median),
//!   equality `JOIN`s, `ORDER BY`, `LIMIT`, plus `CREATE TABLE AS` and
//!   `DROP TABLE` for the SQL agent's staging tables.

pub mod db;
pub mod encoding;
pub mod error;
pub mod sql;
pub mod storage;

pub use db::Database;
pub use encoding::Encoding;
pub use error::{DbError, DbResult};
pub use sql::exec::{ExecOutcome, ExecStats};
pub use sql::fragment::{FragmentMode, PlanFragment};
pub use sql::morsel::PartialRun;
pub use storage::{StrZoneMap, TableStore, ZoneMap, DEFAULT_CHUNK_ROWS, FORMAT_VERSION};
