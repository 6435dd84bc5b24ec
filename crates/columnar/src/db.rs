//! The database: a directory of tables plus the SQL entry points.

use crate::error::{DbError, DbResult};
use crate::sql::ast::Statement;
use crate::sql::exec::{execute, run_select, ExecOutcome, ExecStats};
use crate::sql::parser::parse;
use crate::sql::plan::Catalog;
use crate::storage::{StrZoneMap, TableStore, ZoneMap, DEFAULT_CHUNK_ROWS};
use infera_frame::{DataFrame, DType};
use infera_obs::metric_names;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// An on-disk database: one sub-directory per table under `root`.
///
/// Concurrency model: the catalog map is guarded by one `RwLock`; each
/// table is further guarded by its own `RwLock` so parallel chunk scans
/// of the same table proceed concurrently while appends are exclusive.
pub struct Database {
    root: PathBuf,
    tables: RwLock<HashMap<String, std::sync::Arc<RwLock<TableStore>>>>,
    /// Rows per chunk used for appends.
    pub chunk_rows: usize,
    /// Per-chunk compression on appends (disable to write the raw v1
    /// chunk layout — the benchmark baseline).
    pub compress: bool,
    obs: infera_obs::Obs,
}

impl Database {
    /// Create a fresh (or open an existing) database rooted at `root`.
    pub fn create(root: &Path) -> DbResult<Database> {
        std::fs::create_dir_all(root)
            .map_err(|e| DbError::Io(format!("mkdir {}: {e}", root.display())))?;
        let db = Database {
            root: root.to_path_buf(),
            tables: RwLock::new(HashMap::new()),
            chunk_rows: DEFAULT_CHUNK_ROWS,
            compress: true,
            obs: infera_obs::Obs::default(),
        };
        db.load_existing()?;
        Ok(db)
    }

    /// Attach an observability context: SQL entry points record spans
    /// and metrics into it (a fresh private context is used otherwise).
    /// Propagated into every open table so storage-integrity events
    /// (chunk quarantines) are counted too.
    pub fn set_obs(&mut self, obs: infera_obs::Obs) {
        self.obs = obs;
        for table in self.tables.read().values() {
            table.write().set_obs(self.obs.clone());
        }
    }

    /// The observability context in force.
    pub fn obs(&self) -> &infera_obs::Obs {
        &self.obs
    }

    /// Open an existing database directory.
    pub fn open(root: &Path) -> DbResult<Database> {
        if !root.is_dir() {
            return Err(DbError::Io(format!(
                "database directory {} does not exist",
                root.display()
            )));
        }
        Self::create(root)
    }

    fn load_existing(&self) -> DbResult<()> {
        let entries = std::fs::read_dir(&self.root)
            .map_err(|e| DbError::Io(format!("read_dir {}: {e}", self.root.display())))?;
        let mut map = self.tables.write();
        for entry in entries {
            let entry = entry.map_err(|e| DbError::Io(e.to_string()))?;
            let path = entry.path();
            if path.is_dir() && path.join("meta.json").is_file() {
                let mut store = TableStore::open(&path)?;
                store.set_obs(self.obs.clone());
                map.insert(
                    store.meta.name.clone(),
                    std::sync::Arc::new(RwLock::new(store)),
                );
            }
        }
        Ok(())
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn table(&self, name: &str) -> DbResult<std::sync::Arc<RwLock<TableStore>>> {
        let tables = self.tables.read();
        tables.get(name).cloned().ok_or_else(|| {
            DbError::UnknownTable {
                name: name.to_string(),
                suggestion: infera_frame::error::suggest(
                    name,
                    tables.keys().map(String::as_str),
                ),
            }
        })
    }

    /// Create an empty table with the given schema.
    pub fn create_table(&self, name: &str, schema: &[(String, DType)]) -> DbResult<()> {
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
            || name.is_empty()
        {
            return Err(DbError::Plan(format!("invalid table name '{name}'")));
        }
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(DbError::DuplicateTable(name.to_string()));
        }
        let mut store = TableStore::create(&self.root.join(name), name, schema)?;
        store.set_obs(self.obs.clone());
        tables.insert(name.to_string(), std::sync::Arc::new(RwLock::new(store)));
        Ok(())
    }

    /// Append a batch using the database's default chunking.
    pub fn append(&self, name: &str, batch: &DataFrame) -> DbResult<()> {
        self.append_batches(name, &[batch])
    }

    /// Append `batches` in order as one write: chunked batch by batch,
    /// `meta.json` flushed once (see [`TableStore::append_batches`]).
    pub fn append_batches(&self, name: &str, batches: &[&DataFrame]) -> DbResult<()> {
        self.append_with(name, batches, self.chunk_rows)
    }

    /// Append a batch with explicit chunk rows (tests / ingestion tuning).
    pub fn append_chunked(&self, name: &str, batch: &DataFrame, chunk_rows: usize) -> DbResult<()> {
        self.append_with(name, &[batch], chunk_rows)
    }

    fn append_with(&self, name: &str, batches: &[&DataFrame], chunk_rows: usize) -> DbResult<()> {
        let table = self.table(name)?;
        let mut t = table.write();
        t.compress = self.compress;
        let stats = t.append_batches(batches, chunk_rows)?;
        self.obs
            .metrics
            .inc(infera_obs::metric_names::STORAGE_ENCODED_BYTES, stats.encoded_bytes);
        self.obs
            .metrics
            .inc(infera_obs::metric_names::STORAGE_LOGICAL_BYTES, stats.logical_bytes);
        Ok(())
    }

    /// Drop a table and delete its files.
    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let mut tables = self.tables.write();
        match tables.remove(name) {
            Some(_) => {
                std::fs::remove_dir_all(self.root.join(name))
                    .map_err(|e| DbError::Io(e.to_string()))?;
                Ok(())
            }
            None => Err(DbError::UnknownTable {
                name: name.to_string(),
                suggestion: infera_frame::error::suggest(
                    name,
                    tables.keys().map(String::as_str),
                ),
            }),
        }
    }

    /// Names of all tables, sorted.
    pub fn list_tables(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Schema of a table.
    pub fn table_schema(&self, name: &str) -> DbResult<Vec<(String, DType)>> {
        let table = self.table(name)?;
        let t = table.read();
        Ok(t.meta
            .columns
            .iter()
            .map(|(n, ct)| (n.clone(), DType::from(*ct)))
            .collect())
    }

    /// Row count of a table.
    pub fn n_rows(&self, name: &str) -> DbResult<u64> {
        Ok(self.table(name)?.read().meta.n_rows())
    }

    /// Chunk count of a table.
    pub fn n_chunks(&self, name: &str) -> DbResult<usize> {
        Ok(self.table(name)?.read().meta.n_chunks())
    }

    /// Zone map of `(table, column, chunk)`.
    pub fn zone(&self, table: &str, column: &str, chunk: usize) -> DbResult<Option<ZoneMap>> {
        self.table(table)?.read().zone(column, chunk)
    }

    /// Lexicographic zone map of `(table, column, chunk)`.
    pub fn str_zone(
        &self,
        table: &str,
        column: &str,
        chunk: usize,
    ) -> DbResult<Option<StrZoneMap>> {
        self.table(table)?.read().str_zone(column, chunk)
    }

    /// Read the named columns of one chunk.
    pub fn read_chunk(&self, table: &str, chunk: usize, columns: &[&str]) -> DbResult<DataFrame> {
        self.table(table)?.read().read_chunk(chunk, columns)
    }

    /// Read only the given (sorted ascending) rows of the named columns
    /// of one chunk — the late-materialization path.
    pub fn read_chunk_rows(
        &self,
        table: &str,
        chunk: usize,
        columns: &[&str],
        rows: &[usize],
    ) -> DbResult<DataFrame> {
        self.table(table)?.read().read_chunk_rows(chunk, columns, rows)
    }

    /// Read one string column chunk as `(dictionary, codes)` when it is
    /// Dict-encoded on disk, `Ok(None)` otherwise — the executor's
    /// dict-code fast path for string-key GROUP BY / JOIN.
    pub fn read_chunk_dict_codes(
        &self,
        table: &str,
        chunk: usize,
        column: &str,
    ) -> DbResult<Option<(Vec<String>, Vec<u32>)>> {
        self.table(table)?.read().read_chunk_dict_codes(chunk, column)
    }

    /// Materialize the named columns of an entire table.
    pub fn scan_all(&self, table: &str, columns: &[&str]) -> DbResult<DataFrame> {
        let t = self.table(table)?;
        let t = t.read();
        let mut out = DataFrame::new();
        for ci in 0..t.meta.n_chunks() {
            out.vstack(&t.read_chunk(ci, columns)?)?;
        }
        if out.n_cols() == 0 {
            // Zero-chunk table: synthesize empty columns with the stored
            // schema so downstream code sees the right shape.
            for name in columns {
                let idx = t.meta.column_index(name)?;
                out.add_column(
                    (*name).to_string(),
                    infera_frame::Column::empty(DType::from(t.meta.columns[idx].1)),
                )
                .map_err(DbError::from)?;
            }
        }
        Ok(out)
    }

    /// Estimated distinct-value count of `(table, column)` — dictionary
    /// cardinality when chunks are dict-encoded, a sampled estimate
    /// otherwise (see [`TableStore::distinct_estimate`]). Feeds the cost
    /// model.
    pub fn distinct_estimate(&self, table: &str, column: &str) -> DbResult<u64> {
        self.table(table)?.read().distinct_estimate(column)
    }

    /// Logical (uncompressed) bytes of one table.
    pub fn table_logical_bytes(&self, table: &str) -> DbResult<u64> {
        Ok(self.table(table)?.read().logical_size())
    }

    /// Total on-disk size of all tables, in bytes (encoded chunks).
    pub fn total_bytes(&self) -> u64 {
        self.tables
            .read()
            .values()
            .map(|t| t.read().byte_size())
            .sum()
    }

    /// Total logical size of all tables: the bytes the same data would
    /// occupy in the raw (uncompressed v1) chunk layout.
    pub fn total_logical_bytes(&self) -> u64 {
        self.tables
            .read()
            .values()
            .map(|t| t.read().logical_size())
            .sum()
    }

    fn parse_traced(&self, sql: &str) -> DbResult<Statement> {
        let span = self.obs.tracer.span("sql:parse");
        match parse(sql) {
            Ok(stmt) => Ok(stmt),
            Err(e) => {
                span.set_attr("error", e.to_string());
                self.obs.metrics.inc(metric_names::SQL_PARSE_ERRORS, 1);
                Err(e)
            }
        }
    }

    fn record_exec(&self, span: &infera_obs::SpanGuard, result: &DbResult<(DataFrame, ExecStats)>) {
        match result {
            Ok((frame, stats)) => {
                span.set_attr("rows_out", frame.n_rows());
                span.set_attr("rows_scanned", stats.rows_scanned);
                span.set_attr("chunks_skipped", stats.chunks_skipped);
                self.obs.metrics.inc(metric_names::SQL_CHUNKS_SKIPPED, stats.chunks_skipped as u64);
                self.obs.metrics.observe(metric_names::SQL_ROWS_SCANNED, stats.rows_scanned as f64);
            }
            Err(e) => {
                span.set_attr("error", e.to_string());
                self.obs.metrics.inc(metric_names::SQL_EXEC_ERRORS, 1);
            }
        }
        self.obs.metrics.observe(metric_names::SQL_EXEC_US, span.elapsed_us() as f64);
    }

    /// Parse and execute any SQL statement.
    pub fn execute_sql(&self, sql: &str) -> DbResult<ExecOutcome> {
        let span = self.obs.tracer.span("sql:query");
        self.obs.metrics.inc(metric_names::SQL_QUERIES, 1);
        let stmt = self.parse_traced(sql)?;
        let result = execute(self, &stmt);
        match &result {
            Ok(out) => {
                span.set_attr("rows_out", out.frame.n_rows());
                span.set_attr("rows_scanned", out.stats.rows_scanned);
                span.set_attr("chunks_skipped", out.stats.chunks_skipped);
                self.obs
                    .metrics
                    .inc(metric_names::SQL_CHUNKS_SKIPPED, out.stats.chunks_skipped as u64);
            }
            Err(e) => {
                span.set_attr("error", e.to_string());
                self.obs.metrics.inc(metric_names::SQL_EXEC_ERRORS, 1);
            }
        }
        self.obs.metrics.observe(metric_names::SQL_EXEC_US, span.elapsed_us() as f64);
        result
    }

    /// Parse and execute a SELECT, returning the result frame.
    pub fn query(&self, sql: &str) -> DbResult<DataFrame> {
        Ok(self.query_with_stats(sql)?.0)
    }

    /// Parse and execute a SELECT, returning frame + stats.
    pub fn query_with_stats(&self, sql: &str) -> DbResult<(DataFrame, ExecStats)> {
        let span = self.obs.tracer.span("sql:query");
        self.obs.metrics.inc(metric_names::SQL_QUERIES, 1);
        let result = match self.parse_traced(sql)? {
            Statement::Select(sel) => run_select(self, &sel),
            other => Err(DbError::Plan(format!(
                "query() expects SELECT, got {other:?}; use execute_sql()"
            ))),
        };
        self.record_exec(&span, &result);
        result
    }

    /// EXPLAIN a SELECT: execute it and render the chosen physical plan
    /// as an indented tree with per-node estimates and the observed
    /// execution counters.
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        match self.parse_traced(sql)? {
            Statement::Select(sel) => crate::sql::exec::explain_select(self, &sel),
            other => Err(DbError::Plan(format!(
                "explain() expects SELECT, got {other:?}"
            ))),
        }
    }

    /// Execute a SELECT through the naive reference path: syntactic
    /// join order, eager whole-table reads, no pushdown, no fast paths.
    /// Exists for the optimizer-equivalence tests; orders of magnitude
    /// slower than [`Database::query`] on real data.
    pub fn query_unoptimized(&self, sql: &str) -> DbResult<DataFrame> {
        match self.parse_traced(sql)? {
            Statement::Select(sel) => crate::sql::exec::run_select_naive(self, &sel),
            other => Err(DbError::Plan(format!(
                "query_unoptimized() expects SELECT, got {other:?}"
            ))),
        }
    }
}

impl Catalog for Database {
    fn columns_of(&self, table: &str) -> DbResult<Vec<String>> {
        Ok(self
            .table_schema(table)?
            .into_iter()
            .map(|(n, _)| n)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infera_frame::{Column, Value};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("infera_db_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn frame() -> DataFrame {
        DataFrame::from_columns([
            ("id", Column::from(vec![1i64, 2, 3])),
            ("v", Column::from(vec![1.0, 2.0, 3.0])),
        ])
        .unwrap()
    }

    #[test]
    fn create_append_query() {
        let db = Database::create(&tmp("caq")).unwrap();
        db.create_table("t", &frame().schema()).unwrap();
        db.append("t", &frame()).unwrap();
        let out = db.query("SELECT SUM(v) AS s FROM t").unwrap();
        assert_eq!(out.cell("s", 0).unwrap(), Value::F64(6.0));
        assert_eq!(db.n_rows("t").unwrap(), 3);
    }

    #[test]
    fn reopen_database_sees_tables() {
        let root = tmp("reopen");
        {
            let db = Database::create(&root).unwrap();
            db.create_table("t", &frame().schema()).unwrap();
            db.append("t", &frame()).unwrap();
        }
        let db = Database::open(&root).unwrap();
        assert_eq!(db.list_tables(), vec!["t".to_string()]);
        assert_eq!(db.n_rows("t").unwrap(), 3);
    }

    #[test]
    fn unknown_table_suggestion() {
        let db = Database::create(&tmp("unknown")).unwrap();
        db.create_table("halos_498", &frame().schema()).unwrap();
        match db.query("SELECT * FROM halo_498").unwrap_err() {
            DbError::UnknownTable { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("halos_498"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_and_invalid_names() {
        let db = Database::create(&tmp("dup")).unwrap();
        db.create_table("t", &frame().schema()).unwrap();
        assert!(matches!(
            db.create_table("t", &frame().schema()),
            Err(DbError::DuplicateTable(_))
        ));
        assert!(db.create_table("bad name", &frame().schema()).is_err());
        assert!(db.create_table("", &frame().schema()).is_err());
    }

    #[test]
    fn drop_removes_files() {
        let root = tmp("dropfiles");
        let db = Database::create(&root).unwrap();
        db.create_table("t", &frame().schema()).unwrap();
        assert!(root.join("t/meta.json").is_file());
        db.drop_table("t").unwrap();
        assert!(!root.join("t").exists());
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn total_bytes_grows() {
        let db = Database::create(&tmp("bytes")).unwrap();
        db.create_table("t", &frame().schema()).unwrap();
        let before = db.total_bytes();
        db.append("t", &frame()).unwrap();
        assert!(db.total_bytes() > before);
    }

    #[test]
    fn scan_all_empty_table_has_schema() {
        let db = Database::create(&tmp("emptyscan")).unwrap();
        db.create_table("t", &frame().schema()).unwrap();
        let df = db.scan_all("t", &["v"]).unwrap();
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.names(), &["v"]);
    }
}
