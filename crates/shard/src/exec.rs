//! Sharded scatter-gather execution.
//!
//! A [`ShardedDb`] holds one columnar [`Database`] per ensemble
//! partition (`shard_0000/`, `shard_0001/`, ... under one root, plus a
//! persisted [`ShardLayout`]). The shards are in-process sources: a
//! query's [`PlanFragment`] runs over each shard's partition through the
//! same `execute_partial` a single database uses, and the same `combine`
//! merges the runs in shard order — bit-identical to executing the same
//! SQL on a single database holding all the rows (see the determinism
//! argument on [`infera_columnar::sql::fragment::combine`]).
//!
//! ## Table disposition
//!
//! A table is **partitioned** iff its schema carries an `I64` `sim`
//! column: appends route each row to the shard owning its simulation.
//! Every other table is **replicated** to all shards. The disposition
//! is derived from the schema alone, so it never needs separate
//! bookkeeping and cannot drift.
//!
//! ## Strategy selection
//!
//! * partitioned base scan, replicated build sides → **scatter**;
//! * no partitioned table anywhere → **shard 0 only** (all data local);
//! * a partitioned table on a join's build side → **gather fallback**:
//!   the referenced tables are merged (in shard order) into a scratch
//!   database and the query runs serially there. Shard-local joins
//!   would miss cross-sim key matches, so this is the only safe plan.

use crate::layout::ShardLayout;
use infera_columnar::sql::ast::{SelectStmt, Statement};
use infera_columnar::sql::cost::Stats;
use infera_columnar::sql::exec::{self as sql_exec};
use infera_columnar::sql::fragment::{self, PlanFragment};
use infera_columnar::sql::physical::{ExplainActuals, PhysicalPlan};
use infera_columnar::sql::{logical, morsel, parser, physical, plan as sql_plan};
use infera_columnar::{
    Database, DbError, DbResult, ExecOutcome, ExecStats, FragmentMode, PartialRun,
};
use infera_frame::{BinOp, DType, DataFrame, Expr};
use infera_obs::metric_names;
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Retries per shard fragment on transient failure (injected or
/// organic I/O errors). Corruption is never retried.
const FRAGMENT_RETRIES: u32 = 2;

/// How one statement was executed across the shard set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Fragments scattered to every shard, partials combined.
    Scatter,
    /// All referenced tables replicated: executed on shard 0 only.
    ShardLocal,
    /// Partitioned build side: tables gathered into a scratch database
    /// and executed serially.
    Gather,
}

impl Strategy {
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Scatter => "scatter",
            Strategy::ShardLocal => "shard-local",
            Strategy::Gather => "gather-fallback",
        }
    }
}

/// Per-shard execution record (explain / bench surface).
#[derive(Debug, Clone)]
pub struct ShardExecInfo {
    pub shard: usize,
    pub sim_lo: u32,
    pub sim_hi: u32,
    /// Partial groups or rows the fragment handed the combiner.
    pub partial_rows: u64,
    pub morsels: u64,
    pub workers: u64,
    pub rows_scanned: u64,
    /// Wall-clock of this shard's fragment, retries included, milliseconds.
    pub wall_ms: f64,
    /// Transient-failure retries consumed.
    pub retries: u32,
}

/// Full record of one scatter-gather run.
#[derive(Debug, Clone)]
pub struct ShardRunInfo {
    pub strategy: Strategy,
    pub fragment_mode: Option<FragmentMode>,
    /// Always `false`: there is no fragment cache. Kept for the benchmark.
    pub cache_hit: bool,
    pub est_rows: u64,
    pub per_shard: Vec<ShardExecInfo>,
    pub combine_ms: f64,
    pub rows_output: u64,
}

/// A columnar database split across ensemble partitions.
pub struct ShardedDb {
    root: PathBuf,
    layout: ShardLayout,
    shards: Vec<Database>,
    obs: infera_obs::Obs,
}

fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard_{shard:04}"))
}

impl ShardedDb {
    /// Create (or reopen) a sharded database under `root`.
    pub fn create(root: &Path, layout: ShardLayout, obs: infera_obs::Obs) -> DbResult<ShardedDb> {
        std::fs::create_dir_all(root)
            .map_err(|e| DbError::Io(format!("mkdir {}: {e}", root.display())))?;
        layout.save(root)?;
        let mut shards = Vec::with_capacity(layout.n_shards);
        for s in 0..layout.n_shards {
            let mut db = Database::create(&shard_dir(root, s))?;
            db.set_obs(obs.clone());
            shards.push(db);
        }
        Ok(ShardedDb {
            root: root.to_path_buf(),
            layout,
            shards,
            obs,
        })
    }

    /// Open an existing sharded database (its layout marker must exist).
    pub fn open(root: &Path) -> DbResult<ShardedDb> {
        let layout = ShardLayout::load(root)?;
        ShardedDb::create(root, layout, infera_obs::Obs::new())
    }

    /// Whether `root` holds a sharded layout.
    pub fn is_sharded(root: &Path) -> bool {
        ShardLayout::exists(root)
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    pub fn obs(&self) -> &infera_obs::Obs {
        &self.obs
    }

    /// Re-home the shard set onto a different observability context.
    pub fn set_obs(&mut self, obs: infera_obs::Obs) {
        for db in &mut self.shards {
            db.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The shard databases, in shard order.
    pub fn shards(&self) -> &[Database] {
        &self.shards
    }

    // ---------------------------------------------------------- tables

    /// Whether `table` is partitioned by simulation (schema rule: it
    /// carries an `I64` `sim` column).
    pub fn is_partitioned(&self, table: &str) -> DbResult<bool> {
        let schema = self.shards[0].table_schema(table)?;
        Ok(schema
            .iter()
            .any(|(n, d)| n == "sim" && *d == DType::I64))
    }

    /// Create `name` on every shard.
    pub fn create_table(&self, name: &str, schema: &[(String, DType)]) -> DbResult<()> {
        for db in &self.shards {
            db.create_table(name, schema)?;
        }
        Ok(())
    }

    /// Append a batch: the one-element case of [`Self::append_batches`].
    pub fn append(&self, name: &str, batch: &DataFrame) -> DbResult<()> {
        self.append_batches(name, &[batch])
    }

    /// Append `batches` in order. Partitioned tables route every batch's
    /// rows to the shard owning each row's `sim` first, then each shard
    /// takes its share as one batched append (one `meta.json` flush per
    /// shard); replicated tables append everywhere. A shard's chunks are
    /// those of appending the batches one call at a time.
    pub fn append_batches(&self, name: &str, batches: &[&DataFrame]) -> DbResult<()> {
        if !self.is_partitioned(name)? {
            for db in &self.shards {
                db.append_batches(name, batches)?;
            }
            return Ok(());
        }
        for batch in batches {
            if !batch.schema().iter().any(|(n, d)| n == "sim" && *d == DType::I64) {
                return Err(DbError::Exec(format!(
                    "append to partitioned table '{name}' requires an I64 'sim' column"
                )));
            }
        }
        // Boundary shards take unbounded ends so out-of-range sims (which
        // a well-formed loader never produces) still land deterministically
        // instead of vanishing.
        let first = self.layout.shard_of_sim(0);
        let last = self
            .layout
            .shard_of_sim(i64::from(self.layout.n_sims.max(1)) - 1);
        for spec in &self.layout.shards {
            let lower = (spec.shard != first).then(|| {
                Expr::bin(
                    Expr::col("sim"),
                    BinOp::Ge,
                    Expr::lit(i64::from(spec.sim_lo)),
                )
            });
            let upper = (spec.shard != last).then(|| {
                Expr::bin(
                    Expr::col("sim"),
                    BinOp::Lt,
                    Expr::lit(i64::from(spec.sim_hi)),
                )
            });
            let owned = match (lower, upper) {
                (Some(lo), Some(hi)) => Some(Expr::bin(lo, BinOp::And, hi)),
                (Some(p), None) | (None, Some(p)) => Some(p),
                (None, None) => None,
            };
            let mut routed: Vec<Cow<'_, DataFrame>> = Vec::with_capacity(batches.len());
            for batch in batches {
                let sub = match &owned {
                    Some(pred) => Cow::Owned(batch.filter_expr(pred)?),
                    None => Cow::Borrowed(*batch),
                };
                if sub.n_rows() > 0 {
                    routed.push(sub);
                }
            }
            if !routed.is_empty() {
                let share: Vec<&DataFrame> = routed.iter().map(Cow::as_ref).collect();
                self.shards[spec.shard].append_batches(name, &share)?;
            }
        }
        Ok(())
    }

    /// Tables present (identical across shards; shard 0 is canonical).
    pub fn list_tables(&self) -> Vec<String> {
        self.shards[0].list_tables()
    }

    /// Schema of `table` (identical across shards).
    pub fn table_schema(&self, table: &str) -> DbResult<Vec<(String, DType)>> {
        self.shards[0].table_schema(table)
    }

    /// Row count: summed across shards for partitioned tables, shard
    /// 0's count for replicated ones.
    pub fn n_rows(&self, table: &str) -> DbResult<u64> {
        if self.is_partitioned(table)? {
            let mut total = 0u64;
            for db in &self.shards {
                total += db.n_rows(table)?;
            }
            Ok(total)
        } else {
            self.shards[0].n_rows(table)
        }
    }

    /// Encoded bytes actually stored, summed over all shards
    /// (replicated tables genuinely occupy space on each).
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(Database::total_bytes).sum()
    }

    /// Logical bytes represented, summed over all shards.
    pub fn total_logical_bytes(&self) -> u64 {
        self.shards.iter().map(Database::total_logical_bytes).sum()
    }

    // ----------------------------------------------------------- query

    /// Parse and execute a SELECT, returning the result frame.
    pub fn query(&self, sql: &str) -> DbResult<DataFrame> {
        Ok(self.query_with_stats(sql)?.0)
    }

    /// Parse and execute a SELECT, returning frame + merged stats.
    pub fn query_with_stats(&self, sql: &str) -> DbResult<(DataFrame, ExecStats)> {
        let (frame, stats, _) = self.query_traced(sql)?;
        Ok((frame, stats))
    }

    /// [`ShardedDb::query_with_stats`] plus the scatter-gather record
    /// (strategy, per-shard counters, combine time).
    pub fn query_traced(&self, sql: &str) -> DbResult<(DataFrame, ExecStats, ShardRunInfo)> {
        match parser::parse(sql)? {
            Statement::Select(sel) => self.run_select(&sel),
            other => Err(DbError::Plan(format!(
                "query() expects SELECT, got {other:?}; use execute_sql()"
            ))),
        }
    }

    /// Parse and execute any SQL statement across the shard set.
    pub fn execute_sql(&self, sql: &str) -> DbResult<ExecOutcome> {
        match parser::parse(sql)? {
            Statement::Select(sel) => {
                let (frame, stats, _) = self.run_select(&sel)?;
                Ok(ExecOutcome { frame, stats })
            }
            Statement::CreateTableAs { name, select } => {
                let (frame, stats, _) = self.run_select(&select)?;
                if frame.n_cols() == 0 {
                    return Err(DbError::Plan(format!(
                        "CREATE TABLE {name} AS produced no columns"
                    )));
                }
                self.create_table(&name, &frame.schema())?;
                self.append(&name, &frame)?;
                Ok(ExecOutcome {
                    frame: DataFrame::new(),
                    stats,
                })
            }
            stmt @ Statement::DropTable { .. } => {
                let mut last = ExecOutcome {
                    frame: DataFrame::new(),
                    stats: ExecStats::default(),
                };
                for db in &self.shards {
                    last = sql_exec::execute(db, &stmt)?;
                }
                Ok(last)
            }
        }
    }

    /// EXPLAIN: execute and render the physical plan tree followed by
    /// the shard-split section (fragments per shard, partial-vs-final
    /// aggregation steps, estimated vs actual rows per tier).
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        let sel = match parser::parse(sql)? {
            Statement::Select(sel) => sel,
            other => {
                return Err(DbError::Plan(format!(
                    "explain() expects SELECT, got {other:?}"
                )))
            }
        };
        let plan = self.plan_select(&sel)?;
        let (_, stats, info) = self.run_planned(&sel, &plan)?;
        let actuals = ExplainActuals {
            stats,
            morsels: info.per_shard.iter().map(|s| s.morsels).sum(),
            workers: info.per_shard.iter().map(|s| s.workers).max().unwrap_or(1),
        };
        let mut out = plan.render(Some(&actuals));
        out.push_str(&render_shard_split(&plan, &info));
        Ok(out)
    }

    /// Resolve + cost-optimize a SELECT against combined shard stats.
    fn plan_select(&self, sel: &SelectStmt) -> DbResult<PhysicalPlan> {
        let resolved = sql_plan::resolve(sel, &self.shards[0])?;
        let lp = logical::build(resolved);
        let stats = CombinedStats { db: self };
        Ok(physical::optimize(&stats, &lp))
    }

    /// Pick the execution strategy for a planned SELECT.
    fn strategy_for(&self, plan: &PhysicalPlan) -> DbResult<Strategy> {
        let base_partitioned = self.is_partitioned(&plan.scans[0].spec.table)?;
        let mut build_partitioned = false;
        for j in &plan.joins {
            if self.is_partitioned(&plan.scans[j.scan_idx].spec.table)? {
                build_partitioned = true;
            }
        }
        Ok(if build_partitioned {
            // Shard-local joins would miss cross-sim key matches.
            Strategy::Gather
        } else if base_partitioned {
            Strategy::Scatter
        } else {
            Strategy::ShardLocal
        })
    }

    fn run_select(&self, sel: &SelectStmt) -> DbResult<(DataFrame, ExecStats, ShardRunInfo)> {
        self.run_planned(sel, &self.plan_select(sel)?)
    }

    /// Execute `sel` by its (already chosen) `plan`.
    fn run_planned(
        &self,
        sel: &SelectStmt,
        plan: &PhysicalPlan,
    ) -> DbResult<(DataFrame, ExecStats, ShardRunInfo)> {
        let strategy = self.strategy_for(plan)?;
        let (frame, stats) = match strategy {
            Strategy::Scatter => return self.run_scatter(plan),
            Strategy::ShardLocal => {
                // Every referenced table is replicated, so the combined
                // statistics the plan was chosen from are shard 0's own.
                let run = sql_exec::run_plan(&self.shards[0], plan)?;
                (run.frame, run.stats)
            }
            Strategy::Gather => self.run_gather(sel, plan)?,
        };
        let info = ShardRunInfo {
            strategy,
            fragment_mode: None,
            cache_hit: false,
            est_rows: plan.est.rows,
            per_shard: Vec::new(),
            combine_ms: 0.0,
            rows_output: frame.n_rows() as u64,
        };
        Ok((frame, stats, info))
    }

    /// Run the plan's fragment on every shard, combine the runs.
    fn run_scatter(&self, plan: &PhysicalPlan) -> DbResult<(DataFrame, ExecStats, ShardRunInfo)> {
        let span = self.obs.tracer.span("shard:scatter");
        let frag = PlanFragment::from_plan(plan);

        let mut runs: Vec<PartialRun> = Vec::with_capacity(self.layout.n_shards);
        let mut per_shard: Vec<ShardExecInfo> = Vec::with_capacity(self.layout.n_shards);
        let mut stats = ExecStats::default();
        for spec in &self.layout.shards {
            let t0 = Instant::now();
            let (run, retries) = self.run_fragment_with_retry(spec.shard, &frag)?;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            self.obs.metrics.inc(metric_names::SHARD_FRAGMENTS_SENT, 1);
            per_shard.push(ShardExecInfo {
                shard: spec.shard,
                sim_lo: spec.sim_lo,
                sim_hi: spec.sim_hi,
                partial_rows: run.partial_rows() as u64,
                morsels: run.morsels,
                workers: run.workers,
                rows_scanned: run.stats.rows_scanned,
                wall_ms,
                retries,
            });
            stats.chunks_total += run.stats.chunks_total;
            stats.chunks_skipped += run.stats.chunks_skipped;
            stats.rows_scanned += run.stats.rows_scanned;
            stats.rows_pruned += run.stats.rows_pruned;
            runs.push(run);
        }

        let t0 = Instant::now();
        // Combine against the *original* plan: the fragment's copy has
        // final-only steps (LIMIT without a safe per-shard head) stripped.
        let frame = self.combine_with_retry(plan, runs)?;
        let combine_ms = t0.elapsed().as_secs_f64() * 1e3;
        let partials: u64 = per_shard.iter().map(|s| s.partial_rows).sum();
        self.obs
            .metrics
            .inc(metric_names::SHARD_PARTIALS_MERGED, partials);
        self.obs
            .metrics
            .observe(metric_names::SHARD_COMBINE_MS, combine_ms);

        stats.rows_output = frame.n_rows() as u64;
        span.set_attr("shards", self.layout.n_shards as u64);
        span.set_attr("rows_output", stats.rows_output);

        let info = ShardRunInfo {
            strategy: Strategy::Scatter,
            fragment_mode: Some(frag.mode),
            cache_hit: false,
            est_rows: plan.est.rows,
            per_shard,
            combine_ms,
            rows_output: stats.rows_output,
        };
        Ok((frame, stats, info))
    }

    /// Hand one fragment to one shard and run it, retrying transient
    /// failures. Corruption (`CorruptChunk` / `Corrupt`) is permanent:
    /// it propagates immediately rather than risking a partial answer.
    fn run_fragment_with_retry(
        &self,
        shard: usize,
        frag: &PlanFragment,
    ) -> DbResult<(PartialRun, u32)> {
        let mut retries = 0u32;
        loop {
            match self.run_fragment_once(shard, frag) {
                Ok(run) => return Ok((run, retries)),
                Err(e) if is_transient(&e) && retries < FRAGMENT_RETRIES => {
                    retries += 1;
                    self.obs.metrics.inc(metric_names::RETRY_ATTEMPTS, 1);
                }
                Err(e) => {
                    if is_transient(&e) {
                        self.obs.metrics.inc(metric_names::RETRY_EXHAUSTED, 1);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One hand-over → execute round on one shard, with a fault site at
    /// each step. The fragment is a value in this process, so a failed
    /// hand-over in any mode is transient (nothing the shard could have
    /// misread arrived): it is retried.
    fn run_fragment_once(&self, shard: usize, frag: &PlanFragment) -> DbResult<PartialRun> {
        if infera_faults::check(infera_faults::sites::SHARD_SEND).is_some() {
            self.obs.metrics.inc(metric_names::FAULT_INJECTED, 1);
            return Err(DbError::Io(infera_faults::injected_error(
                infera_faults::sites::SHARD_SEND,
            )));
        }

        if let Some(mode) = infera_faults::check(infera_faults::sites::SHARD_EXEC) {
            self.obs.metrics.inc(metric_names::FAULT_INJECTED, 1);
            match mode {
                infera_faults::FaultMode::Corrupt => {
                    // The shard's partition is unreadable: a permanent,
                    // typed corruption error — never retried, never a
                    // partial answer.
                    return Err(DbError::CorruptChunk {
                        table: frag.plan.scans[0].spec.table.clone(),
                        column: "<shard-partition>".into(),
                        chunk: shard,
                        reason: infera_faults::injected_error(infera_faults::sites::SHARD_EXEC),
                    });
                }
                _ => {
                    return Err(DbError::Io(infera_faults::injected_error(
                        infera_faults::sites::SHARD_EXEC,
                    )))
                }
            }
        }
        morsel::execute_partial(&self.shards[shard], &frag.plan)
    }

    /// Combine the shards' runs, behind the merge fault site. A transient
    /// fault there is retried. The combine itself consumes the runs and
    /// runs once: it is a pure function of in-memory values, so an error
    /// from it would only repeat.
    fn combine_with_retry(&self, plan: &PhysicalPlan, runs: Vec<PartialRun>) -> DbResult<DataFrame> {
        let mut retries = 0u32;
        while let Some(mode) = infera_faults::check(infera_faults::sites::SHARD_MERGE) {
            self.obs.metrics.inc(metric_names::FAULT_INJECTED, 1);
            let reason = infera_faults::injected_error(infera_faults::sites::SHARD_MERGE);
            if mode == infera_faults::FaultMode::Corrupt {
                return Err(DbError::Corrupt(reason));
            }
            if retries == FRAGMENT_RETRIES {
                return Err(DbError::Io(reason));
            }
            retries += 1;
            self.obs.metrics.inc(metric_names::RETRY_ATTEMPTS, 1);
        }
        fragment::combine(plan, runs, &self.shards[0])
    }

    /// Gather fallback: merge every referenced table into a scratch
    /// database (partitioned tables concatenated in shard order, which
    /// is the serial row order) and execute there.
    fn run_gather(&self, sel: &SelectStmt, plan: &PhysicalPlan) -> DbResult<(DataFrame, ExecStats)> {
        let span = self.obs.tracer.span("shard:gather");
        let scratch_dir = self
            .root
            .join(format!(".gather_{:016x}", plan.plan_hash()));
        std::fs::remove_dir_all(&scratch_dir).ok();
        let scratch = Database::create(&scratch_dir)?;
        let mut tables: Vec<&str> = plan.scans.iter().map(|s| s.spec.table.as_str()).collect();
        tables.sort_unstable();
        tables.dedup();
        let result = self
            .gather_into(&scratch, &tables)
            .and_then(|()| sql_exec::run_select(&scratch, sel));
        drop(scratch);
        std::fs::remove_dir_all(&scratch_dir).ok();
        span.set_attr("tables", tables.len() as u64);
        result
    }

    fn gather_into(&self, scratch: &Database, tables: &[&str]) -> DbResult<()> {
        for table in tables {
            let schema = self.shards[0].table_schema(table)?;
            scratch.create_table(table, &schema)?;
            let cols: Vec<&str> = schema.iter().map(|(n, _)| n.as_str()).collect();
            if self.is_partitioned(table)? {
                for db in &self.shards {
                    if db.n_rows(table)? == 0 {
                        continue;
                    }
                    let frame = db.scan_all(table, &cols)?;
                    scratch.append(table, &frame)?;
                }
            } else {
                if self.shards[0].n_rows(table)? == 0 {
                    continue;
                }
                let frame = self.shards[0].scan_all(table, &cols)?;
                scratch.append(table, &frame)?;
            }
        }
        Ok(())
    }
}

/// Whether an error is worth retrying: anything except typed
/// corruption, which is permanent by definition.
fn is_transient(e: &DbError) -> bool {
    !matches!(e, DbError::CorruptChunk { .. } | DbError::Corrupt(_))
}

/// Render the shard-split section appended to EXPLAIN output.
fn render_shard_split(plan: &PhysicalPlan, info: &ShardRunInfo) -> String {
    let mut out = String::new();
    match info.strategy {
        Strategy::ShardLocal => {
            out.push_str("Shard split: none (all tables replicated; executed on shard 0)\n");
            return out;
        }
        Strategy::Gather => {
            out.push_str(
                "Shard split: gather fallback (partitioned build side; tables merged \
                 in shard order, executed serially)\n",
            );
            return out;
        }
        Strategy::Scatter => {}
    }
    let mode = match info.fragment_mode {
        Some(FragmentMode::PartialAggregate) => "partial-aggregate",
        Some(FragmentMode::Rows) => "rows",
        None => "?",
    };
    let n = info.per_shard.len();
    out.push_str(&format!(
        "Shard split: scatter-gather over {n} shard(s); base '{}' partitioned by sim; \
         fragment={mode} plan_hash={:016x}\n",
        plan.scans[0].spec.table,
        plan.plan_hash(),
    ));
    let est_per_shard = info.est_rows / (n.max(1) as u64);
    for s in &info.per_shard {
        out.push_str(&format!(
            "  shard {} [sims {}..{}): 1 fragment, partial est_rows={} actual_rows={} \
             morsels={} workers={} rows_scanned={}{}\n",
            s.shard,
            s.sim_lo,
            s.sim_hi,
            est_per_shard,
            s.partial_rows,
            s.morsels,
            s.workers,
            s.rows_scanned,
            if s.retries > 0 {
                format!(" retries={}", s.retries)
            } else {
                String::new()
            },
        ));
    }
    let step = match info.fragment_mode {
        Some(FragmentMode::PartialAggregate) => "final aggregate merge (shard order)",
        _ => "row concatenation (shard order)",
    };
    out.push_str(&format!(
        "  Combine: {step} est_rows={} actual_rows={} combine_ms={:.3}\n",
        info.est_rows, info.rows_output, info.combine_ms,
    ));
    out
}

/// Planner statistics summed across the shard set: partitioned tables
/// aggregate over every shard, replicated tables read shard 0.
struct CombinedStats<'a> {
    db: &'a ShardedDb,
}

impl CombinedStats<'_> {
    fn partitioned(&self, table: &str) -> bool {
        self.db.is_partitioned(table).unwrap_or(false)
    }
}

impl Stats for CombinedStats<'_> {
    fn row_count(&self, table: &str) -> DbResult<u64> {
        self.db.n_rows(table)
    }

    fn byte_count(&self, table: &str) -> DbResult<u64> {
        if self.partitioned(table) {
            let mut total = 0u64;
            for db in self.db.shards() {
                total += db.table_logical_bytes(table)?;
            }
            Ok(total)
        } else {
            self.db.shards()[0].table_logical_bytes(table)
        }
    }

    fn column_count(&self, table: &str) -> DbResult<usize> {
        Ok(self.db.shards()[0].table_schema(table)?.len())
    }

    fn distinct(&self, table: &str, column: &str) -> DbResult<u64> {
        if self.partitioned(table) {
            let mut total = 0u64;
            for db in self.db.shards() {
                total += db.distinct_estimate(table, column)?;
            }
            Ok(total.min(self.row_count(table)?.max(1)))
        } else {
            self.db.shards()[0].distinct_estimate(table, column)
        }
    }

    fn zone_match_fraction(
        &self,
        table: &str,
        zf: &infera_columnar::sql::plan::ZoneFilter,
    ) -> DbResult<f64> {
        if !self.partitioned(table) {
            return <Database as Stats>::zone_match_fraction(&self.db.shards()[0], table, zf);
        }
        // Chunk-weighted mean of per-shard zone survival.
        let mut matched = 0.0f64;
        let mut chunks = 0u64;
        for db in self.db.shards() {
            let n = db.n_chunks(table)? as u64;
            let frac = <Database as Stats>::zone_match_fraction(db, table, zf)?;
            matched += frac * n as f64;
            chunks += n;
        }
        Ok(if chunks == 0 {
            1.0
        } else {
            matched / chunks as f64
        })
    }
}
