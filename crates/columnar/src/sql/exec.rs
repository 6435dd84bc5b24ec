//! SELECT execution: resolve → logical plan → cost-based physical plan
//! → morsel-driven execution ([`super::morsel`]).
//!
//! This module owns the statement dispatch, the post-pipeline steps
//! (HAVING, DISTINCT, ORDER BY, LIMIT), the aggregation accumulator
//! machinery shared with the morsel executor, and a deliberately naive
//! reference executor ([`run_select_naive`]) used by
//! `Database::query_unoptimized` and the optimizer-equivalence tests:
//! syntactic join order, eager whole-table reads, no pushdown, no
//! fast paths.

use super::ast::{JoinType, SelectStmt, Statement};
use super::morsel::MorselRun;
use super::physical::{ExplainActuals, PhysicalPlan};
use super::plan::{resolve, AggItem, QueryShape};
use crate::db::Database;
use crate::error::{DbError, DbResult};
use infera_frame::key::encode_value;
use infera_frame::{
    AggKind, Column, DType, DataFrame, Expr, JoinKind, KeyCol, KeyMode, RowGrouper, SortOrder,
    Value,
};
use infera_obs::metric_names;
use std::collections::HashMap;

/// Execution statistics, reported for provenance and the efficiency
/// benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub chunks_total: usize,
    pub chunks_skipped: usize,
    pub rows_scanned: u64,
    pub rows_output: u64,
    /// Rows the late-materializing scan never decoded: they failed the
    /// predicate, so only their predicate columns were ever read.
    pub rows_pruned: u64,
}

/// Result of executing any statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Result rows (empty frame for DDL).
    pub frame: DataFrame,
    pub stats: ExecStats,
}

/// Execute a parsed statement.
pub fn execute(db: &Database, stmt: &Statement) -> DbResult<ExecOutcome> {
    match stmt {
        Statement::Select(sel) => {
            let (frame, stats) = run_select(db, sel)?;
            Ok(ExecOutcome { frame, stats })
        }
        Statement::CreateTableAs { name, select } => {
            let (frame, stats) = run_select(db, select)?;
            if frame.n_cols() == 0 {
                return Err(DbError::Exec("CREATE TABLE AS produced no columns".into()));
            }
            db.create_table(name, &frame.schema())?;
            db.append(name, &frame)?;
            Ok(ExecOutcome {
                frame: DataFrame::new(),
                stats,
            })
        }
        Statement::DropTable { name, if_exists } => {
            match db.drop_table(name) {
                Ok(()) => {}
                Err(DbError::UnknownTable { .. }) if *if_exists => {}
                Err(e) => return Err(e),
            }
            Ok(ExecOutcome {
                frame: DataFrame::new(),
                stats: ExecStats::default(),
            })
        }
    }
}

/// Resolve and cost-optimize a SELECT into its physical plan.
fn plan_select(db: &Database, sel: &SelectStmt) -> DbResult<PhysicalPlan> {
    let span = db.obs().tracer.span("sql:plan");
    let resolved = match resolve(sel, db) {
        Ok(r) => r,
        Err(e) => {
            span.set_attr("error", e.to_string());
            db.obs().metrics.inc(metric_names::SQL_PLAN_ERRORS, 1);
            return Err(e);
        }
    };
    let lp = super::logical::build(resolved);
    let plan = super::physical::optimize(db, &lp);
    span.set_attr("candidates", plan.candidates_considered);
    db.obs().metrics.inc(
        metric_names::PLAN_CANDIDATES_CONSIDERED,
        plan.candidates_considered,
    );
    if plan.predicates_pushed > 0 {
        db.obs()
            .metrics
            .inc(metric_names::PLAN_PREDICATES_PUSHED, plan.predicates_pushed);
    }
    if plan.preagg.is_some() {
        db.obs().metrics.inc(metric_names::PLAN_PREAGG_APPLIED, 1);
    }
    Ok(plan)
}

/// Execute a planned SELECT on `db`: the morsel executor under a
/// `sql:exec` span, with `rows_output` filled in. Every caller that holds
/// a plan — [`run_select`], [`explain_select`], a shard set answering from
/// one shard — runs it through here.
pub fn run_plan(db: &Database, plan: &PhysicalPlan) -> DbResult<MorselRun> {
    let exec_span = db.obs().tracer.span("sql:exec");
    let mut run = super::morsel::execute(db, plan)?;
    let stats = &mut run.stats;
    stats.rows_output = run.frame.n_rows() as u64;
    exec_span.set_attr("rows_output", stats.rows_output);
    exec_span.set_attr("rows_scanned", stats.rows_scanned);
    exec_span.set_attr("chunks_total", stats.chunks_total);
    exec_span.set_attr("chunks_skipped", stats.chunks_skipped);
    exec_span.set_attr("rows_pruned", stats.rows_pruned);
    Ok(run)
}

/// Execute a SELECT through the optimizer and morsel executor.
pub fn run_select(db: &Database, sel: &SelectStmt) -> DbResult<(DataFrame, ExecStats)> {
    let run = run_plan(db, &plan_select(db, sel)?)?;
    Ok((run.frame, run.stats))
}

/// EXPLAIN: optimize, execute, and render the physical plan tree with
/// per-node estimates and the observed execution counters.
pub fn explain_select(db: &Database, sel: &SelectStmt) -> DbResult<String> {
    let plan = plan_select(db, sel)?;
    let run = run_plan(db, &plan)?;
    let actuals = ExplainActuals {
        stats: run.stats,
        morsels: run.morsels,
        workers: run.workers,
    };
    Ok(plan.render(Some(&actuals)))
}

/// Post-pipeline steps applied to the executor's output, shared by the
/// optimized and naive paths: HAVING, DISTINCT, ORDER BY, LIMIT.
pub(crate) fn post_steps(
    mut out: DataFrame,
    having: Option<&Expr>,
    distinct: bool,
    order_by: &[(String, bool)],
    limit: Option<usize>,
) -> DbResult<DataFrame> {
    if let Some(having) = having {
        out = out.filter_expr(having)?;
    }
    // DISTINCT: group on all output columns (first-seen order) and keep
    // only the keys.
    if distinct && out.n_rows() > 1 {
        let names: Vec<String> = out.names().to_vec();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        out = out.group_by(&refs, &[])?;
    }
    if !order_by.is_empty() {
        let keys: Vec<(&str, SortOrder)> = order_by
            .iter()
            .map(|(n, desc)| {
                (
                    n.as_str(),
                    if *desc {
                        SortOrder::Descending
                    } else {
                        SortOrder::Ascending
                    },
                )
            })
            .collect();
        out = out.sort_by(&keys)?;
    }
    if let Some(limit) = limit {
        out = out.head(limit);
    }
    Ok(out)
}

/// The naive reference executor: read everything eagerly, join in
/// syntactic order, filter after all joins, aggregate in one pass. No
/// pushdown, no zone pruning, no reordering, no dictionary fast paths —
/// the semantic ground truth the optimizer must reproduce.
pub(crate) fn run_select_naive(db: &Database, sel: &SelectStmt) -> DbResult<DataFrame> {
    let plan = resolve(sel, db)?;
    let base = plan.base();
    let schema = db.table_schema(&base.table)?;
    let mut frame = DataFrame::new();
    for name in &base.columns {
        let dtype = schema
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .unwrap_or(DType::F64);
        frame
            .add_column(name.clone(), Column::empty(dtype))
            .map_err(DbError::from)?;
    }
    let n_chunks = db.n_chunks(&base.table)?;
    for ci in 0..n_chunks {
        let chunk = db.read_chunk(&base.table, ci, &to_refs(&base.columns))?;
        frame.vstack(&chunk)?;
    }
    for j in &plan.joins {
        let spec = &plan.scans[j.scan_idx];
        let right = db.scan_all(&spec.table, &to_refs(&spec.columns))?;
        let kind = match j.kind {
            JoinType::Inner => JoinKind::Inner,
            JoinType::Left => JoinKind::Left,
        };
        frame = frame.join(&right, &j.left_col, &j.right_col, kind)?;
    }
    if let Some(pred) = &plan.predicate {
        frame = frame.filter_expr(pred)?;
    }
    let out = match &plan.shape {
        QueryShape::Projection { items } => {
            let mut o = DataFrame::new();
            for (name, expr) in items {
                o.add_column(name.clone(), expr.eval(&frame)?)
                    .map_err(DbError::from)?;
            }
            o
        }
        QueryShape::Aggregate { keys, aggs } => {
            let mut groups = chunk_partial(&frame, keys, aggs)?;
            if keys.is_empty() && groups.is_empty() {
                groups.push(PartialGroup::zero_rows(aggs));
            }
            assemble_groups(keys, aggs, &groups, || Ok(frame.clone()))?
        }
    };
    post_steps(
        out,
        plan.having.as_ref(),
        plan.distinct,
        &plan.order_by,
        plan.limit,
    )
}

pub(crate) fn to_refs(v: &[String]) -> Vec<&str> {
    v.iter().map(String::as_str).collect()
}

/// Evaluate a projection's `(output name, expression)` items over `frame`.
pub(crate) fn project(items: &[(String, Expr)], frame: &DataFrame) -> DbResult<DataFrame> {
    let mut out = DataFrame::new();
    for (name, expr) in items {
        out.add_column(name.clone(), expr.eval(frame)?)
            .map_err(DbError::from)?;
    }
    Ok(out)
}

/// Streaming accumulator for one (group, aggregate) cell.
#[derive(Debug, Clone)]
pub(crate) struct Accum {
    pub(crate) rows: u64,
    pub(crate) count: u64,
    pub(crate) sum: f64,
    pub(crate) sumsq: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) first: Option<f64>,
    pub(crate) last: Option<f64>,
    /// Retained values; only populated when a median is requested.
    pub(crate) values: Option<Vec<f64>>,
}

impl Accum {
    pub(crate) fn new(keep_values: bool) -> Accum {
        Accum {
            rows: 0,
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            first: None,
            last: None,
            values: keep_values.then(Vec::new),
        }
    }

    pub(crate) fn push(&mut self, v: f64) {
        self.rows += 1;
        if v.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.sumsq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.first.is_none() {
            self.first = Some(v);
        }
        self.last = Some(v);
        if let Some(vals) = &mut self.values {
            vals.push(v);
        }
    }

    /// For COUNT(*) and counts over non-numeric data: every row counts.
    pub(crate) fn push_counted_row(&mut self) {
        self.rows += 1;
        self.count += 1;
    }

    pub(crate) fn merge(&mut self, other: &Accum) {
        self.rows += other.rows;
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.first.is_none() {
            self.first = other.first;
        }
        if other.last.is_some() {
            self.last = other.last;
        }
        if let (Some(a), Some(b)) = (&mut self.values, &other.values) {
            a.extend_from_slice(b);
        }
    }

    /// Scale the linear moments by a join-match multiplicity `m`, as if
    /// every accumulated row had been pushed `m` times. Min/max and
    /// first/last are multiplicity-invariant; retained values (Median)
    /// are not, which is why the pre-aggregation rewrite excludes them.
    pub(crate) fn scale(&mut self, m: u32) {
        debug_assert!(self.values.is_none(), "cannot scale retained values");
        if m == 1 {
            return;
        }
        let mf = m as f64;
        self.rows *= m as u64;
        self.count *= m as u64;
        self.sum *= mf;
        self.sumsq *= mf;
    }

    pub(crate) fn finalize(&self, kind: AggKind) -> f64 {
        let n = self.count as f64;
        match kind {
            AggKind::Count => n,
            AggKind::Sum => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum
                }
            }
            AggKind::Mean => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / n
                }
            }
            AggKind::Min => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.min
                }
            }
            AggKind::Max => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.max
                }
            }
            AggKind::Std | AggKind::Var => {
                if self.count < 2 {
                    return f64::NAN;
                }
                // Sample variance from streaming moments.
                let var = (self.sumsq - self.sum * self.sum / n) / (n - 1.0);
                let var = var.max(0.0);
                if kind == AggKind::Std {
                    var.sqrt()
                } else {
                    var
                }
            }
            AggKind::Median => match &self.values {
                Some(vals) if !vals.is_empty() => {
                    let mut sorted = vals.clone();
                    sorted.sort_by(f64::total_cmp);
                    let mid = sorted.len() / 2;
                    if sorted.len() % 2 == 1 {
                        sorted[mid]
                    } else {
                        0.5 * (sorted[mid - 1] + sorted[mid])
                    }
                }
                _ => f64::NAN,
            },
            AggKind::First => self.first.unwrap_or(f64::NAN),
            AggKind::Last => self.last.unwrap_or(f64::NAN),
        }
    }
}

/// SQL grouping key normalization: integral floats unify with integers,
/// `-0.0` normalizes to `0.0`, `NaN` keys by its bit pattern. Matches
/// the retired per-row string `encode_key` codec exactly.
pub(crate) const SQL_GROUP_MODE: KeyMode = KeyMode::Unify {
    nan_never_matches: false,
};

/// One typed group-key token: the `u128` key encoding for numeric /
/// boolean keys, an owned string otherwise. A `Vec<KeyToken>` replaces
/// the old per-row `'\u{1f}'`-separated key strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyToken {
    Enc(u128),
    Str(String),
}

pub(crate) type GroupKey = Vec<KeyToken>;

/// One group of a partial aggregation: its key, the key's representative
/// values, one pre-finalize accumulator per aggregate, and the position
/// of its first row within the producing scan — what orders groups when
/// partials from several morsels, workers or shards merge.
pub(crate) struct PartialGroup {
    pub(crate) key: GroupKey,
    pub(crate) vals: Vec<Value>,
    pub(crate) accums: Vec<Accum>,
    pub(crate) first_pos: u64,
}

impl PartialGroup {
    /// The one group a whole-table aggregate yields over zero rows.
    pub(crate) fn zero_rows(aggs: &[AggItem]) -> PartialGroup {
        PartialGroup {
            key: GroupKey::new(),
            vals: Vec::new(),
            accums: new_accums(aggs),
            first_pos: 0,
        }
    }
}

pub(crate) fn new_accums(aggs: &[AggItem]) -> Vec<Accum> {
    aggs.iter()
        .map(|a| Accum::new(a.kind == AggKind::Median))
        .collect()
}

/// Merge of partial groups in visiting order: a key's first occurrence
/// fixes its place, representative values and `first_pos`; every later
/// one folds in through [`Accum::merge`]. Visiting groups in first-row
/// order therefore reproduces a sequential scan's first-seen group order
/// and accumulator states.
#[derive(Default)]
pub(crate) struct GroupMerger {
    groups: Vec<PartialGroup>,
    index: HashMap<GroupKey, u32>,
}

impl GroupMerger {
    pub(crate) fn push(&mut self, g: PartialGroup) {
        match self.index.get(&g.key) {
            Some(&i) => {
                let existing = &mut self.groups[i as usize];
                for (x, a) in existing.accums.iter_mut().zip(&g.accums) {
                    x.merge(a);
                }
            }
            None => {
                self.index.insert(g.key.clone(), self.groups.len() as u32);
                self.groups.push(g);
            }
        }
    }

    /// The merged groups, in first-occurrence order.
    pub(crate) fn finish(self) -> Vec<PartialGroup> {
        self.groups
    }
}

pub(crate) fn key_token(col: &Column, row: usize) -> KeyToken {
    match col {
        Column::Str(v) => KeyToken::Str(v[row].clone()),
        other => KeyToken::Enc(
            encode_value(&other.get(row), SQL_GROUP_MODE).expect("non-string key encodes"),
        ),
    }
}

/// Evaluated aggregate arguments for one chunk.
pub(crate) enum ArgData {
    Num(Vec<f64>),
    /// COUNT(*) or a count over non-numeric data: every row counts.
    Rows,
}

pub(crate) fn eval_arg_data(chunk: &DataFrame, aggs: &[AggItem]) -> DbResult<Vec<ArgData>> {
    aggs.iter()
        .map(|a| -> DbResult<ArgData> {
            match &a.arg {
                None => Ok(ArgData::Rows),
                Some(e) => {
                    let col = e.eval(chunk)?;
                    match col.to_f64_vec() {
                        Ok(v) => Ok(ArgData::Num(v)),
                        Err(_) if a.kind == AggKind::Count => Ok(ArgData::Rows),
                        Err(e) => Err(DbError::from(e)),
                    }
                }
            }
        })
        .collect()
}

pub(crate) fn push_row(accums: &mut [Accum], arg_data: &[ArgData], row: usize) {
    for (ai, data) in arg_data.iter().enumerate() {
        match data {
            ArgData::Num(v) => accums[ai].push(v[row]),
            ArgData::Rows => accums[ai].push_counted_row(),
        }
    }
}

/// Aggregate one chunk into its groups in first-seen row order
/// (`first_pos` is the group's index): typed row grouping via
/// [`RowGrouper`] (no per-row boxed values or key strings), then exact
/// accumulator fills per group in ascending row order.
pub(crate) fn chunk_partial(
    chunk: &DataFrame,
    keys: &[(String, Expr)],
    aggs: &[AggItem],
) -> DbResult<Vec<PartialGroup>> {
    let n = chunk.n_rows();
    let arg_data = eval_arg_data(chunk, aggs)?;
    if keys.is_empty() {
        // Whole-table aggregate: one global group (none for empty chunks;
        // the zero-row case is synthesized after the merge).
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut g = PartialGroup::zero_rows(aggs);
        for row in 0..n {
            push_row(&mut g.accums, &arg_data, row);
        }
        return Ok(vec![g]);
    }
    // Evaluate key expressions once per chunk, then group rows through
    // the typed key-extraction layer.
    let key_cols: Vec<Column> = keys
        .iter()
        .map(|(_, e)| e.eval(chunk))
        .collect::<Result<_, _>>()?;
    let extracted: Vec<KeyCol> = key_cols
        .iter()
        .map(|c| KeyCol::extract(c, SQL_GROUP_MODE))
        .collect();
    let groups = RowGrouper::new(extracted).group();
    let mut out = Vec::with_capacity(groups.len());
    for (seq, g) in groups.into_iter().enumerate() {
        let rep = g.rep as usize;
        let mut accums = new_accums(aggs);
        for &r in &g.rows {
            push_row(&mut accums, &arg_data, r as usize);
        }
        out.push(PartialGroup {
            key: key_cols.iter().map(|c| key_token(c, rep)).collect(),
            vals: key_cols.iter().map(|c| c.get(rep)).collect(),
            accums,
            first_pos: seq as u64,
        });
    }
    Ok(out)
}

/// Assemble the output frame from merged groups. `empty_input` supplies
/// a zero-row frame with the aggregation's input schema: key expressions
/// are evaluated over it for their dtypes when no group survives (zone
/// maps can skip every chunk), so a grouped aggregate never indexes into
/// an empty group table.
pub(crate) fn assemble_groups(
    keys: &[(String, Expr)],
    aggs: &[AggItem],
    groups: &[PartialGroup],
    empty_input: impl FnOnce() -> DbResult<DataFrame>,
) -> DbResult<DataFrame> {
    let mut out = DataFrame::new();
    let key_dtypes: Vec<DType> = match groups.first() {
        Some(g0) => g0.vals.iter().map(Value::dtype).collect(),
        None => {
            let empty = empty_input()?;
            keys.iter()
                .map(|(_, e)| Ok(e.eval(&empty)?.dtype()))
                .collect::<DbResult<_>>()?
        }
    };
    for (ki, (kname, _)) in keys.iter().enumerate() {
        let mut col = Column::empty(key_dtypes[ki]);
        for g in groups {
            col.push(g.vals[ki].clone()).map_err(DbError::from)?;
        }
        out.add_column(kname.clone(), col).map_err(DbError::from)?;
    }
    for (ai, item) in aggs.iter().enumerate() {
        let vals: Vec<f64> = groups
            .iter()
            .map(|g| g.accums[ai].finalize(item.kind))
            .collect();
        let col = if item.kind == AggKind::Count {
            Column::I64(vals.iter().map(|&v| v as i64).collect())
        } else {
            Column::F64(vals)
        };
        out.add_column(item.alias.clone(), col)
            .map_err(DbError::from)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("infera_exec_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn setup(name: &str) -> Database {
        let db = Database::create(&tmp(name)).unwrap();
        let halos = DataFrame::from_columns([
            ("fof_halo_tag", Column::from(vec![1i64, 2, 3, 4, 5, 6])),
            ("sim", Column::from(vec![0i64, 0, 0, 1, 1, 1])),
            (
                "fof_halo_mass",
                Column::from(vec![1e12, 5e13, 2e14, 8e11, 3e13, 9e14]),
            ),
            (
                "fof_halo_count",
                Column::from(vec![769i64, 38461, 153846, 615, 23076, 692307]),
            ),
        ])
        .unwrap();
        db.create_table("halos", &halos.schema()).unwrap();
        db.append_chunked("halos", &halos, 2).unwrap(); // 3 chunks
        let gals = DataFrame::from_columns([
            ("gal_tag", Column::from(vec![10i64, 11, 12, 13])),
            ("fof_halo_tag", Column::from(vec![1i64, 1, 3, 6])),
            ("gal_mass", Column::from(vec![1e10, 2e10, 5e11, 7e11])),
        ])
        .unwrap();
        db.create_table("galaxies", &gals.schema()).unwrap();
        db.append_chunked("galaxies", &gals, 10).unwrap();
        db
    }

    fn q(db: &Database, sql: &str) -> DataFrame {
        match parse(sql).unwrap() {
            Statement::Select(s) => run_select(db, &s).unwrap().0,
            other => execute(db, &other).unwrap().frame,
        }
    }

    fn q_naive(db: &Database, sql: &str) -> DataFrame {
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!("naive path only runs SELECT")
        };
        run_select_naive(db, &s).unwrap()
    }

    #[test]
    fn filter_and_project() {
        let db = setup("filter");
        let df = q(&db, "SELECT fof_halo_tag, fof_halo_mass FROM halos WHERE fof_halo_mass > 1e13");
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.names(), &["fof_halo_tag", "fof_halo_mass"]);
    }

    #[test]
    fn zone_maps_skip_chunks() {
        let db = setup("zones");
        let stmt = parse("SELECT fof_halo_tag FROM halos WHERE fof_halo_count > 600000").unwrap();
        let Statement::Select(sel) = stmt else { panic!() };
        let (df, stats) = run_select(&db, &sel).unwrap();
        assert_eq!(df.n_rows(), 1);
        assert!(stats.chunks_skipped >= 1, "{stats:?}");
        assert_eq!(stats.chunks_total, 3);
    }

    #[test]
    fn group_by_aggregation() {
        let db = setup("group");
        let df = q(
            &db,
            "SELECT sim, COUNT(*) AS n, AVG(fof_halo_mass) AS m, MAX(fof_halo_count) AS biggest FROM halos GROUP BY sim",
        );
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.cell("n", 0).unwrap(), Value::I64(3));
        let m0 = df.cell("m", 0).unwrap().as_f64().unwrap();
        assert!((m0 - (1e12 + 5e13 + 2e14) / 3.0).abs() / m0 < 1e-12);
        assert_eq!(df.cell("biggest", 1).unwrap(), Value::F64(692307.0));
    }

    #[test]
    fn whole_table_aggregates() {
        let db = setup("whole");
        let df = q(&db, "SELECT COUNT(*) AS n, SUM(fof_halo_mass) AS total, STDDEV(fof_halo_mass) AS sd, MEDIAN(fof_halo_mass) AS med FROM halos");
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.cell("n", 0).unwrap(), Value::I64(6));
        let med = df.cell("med", 0).unwrap().as_f64().unwrap();
        assert!((med - (3e13 + 5e13) / 2.0).abs() < 1.0, "median {med}");
        let sd = df.cell("sd", 0).unwrap().as_f64().unwrap();
        assert!(sd > 0.0);
    }

    #[test]
    fn std_matches_two_pass() {
        let db = setup("std");
        let df = q(&db, "SELECT STDDEV(fof_halo_mass) AS sd FROM halos");
        let masses = [1e12, 5e13, 2e14, 8e11, 3e13, 9e14];
        let expected = infera_frame::groupby::aggregate_f64(AggKind::Std, &masses);
        let sd = df.cell("sd", 0).unwrap().as_f64().unwrap();
        assert!((sd - expected).abs() / expected < 1e-10);
    }

    #[test]
    fn order_by_and_limit() {
        let db = setup("order");
        let df = q(
            &db,
            "SELECT fof_halo_tag, fof_halo_mass FROM halos ORDER BY fof_halo_mass DESC LIMIT 2",
        );
        assert_eq!(df.n_rows(), 2);
        assert_eq!(df.cell("fof_halo_tag", 0).unwrap(), Value::I64(6));
        assert_eq!(df.cell("fof_halo_tag", 1).unwrap(), Value::I64(3));
    }

    #[test]
    fn join_inner() {
        let db = setup("join");
        let df = q(
            &db,
            "SELECT fof_halo_tag, gal_mass FROM halos JOIN galaxies ON halos.fof_halo_tag = galaxies.fof_halo_tag ORDER BY gal_mass DESC",
        );
        assert_eq!(df.n_rows(), 4);
        assert_eq!(df.cell("fof_halo_tag", 0).unwrap(), Value::I64(6));
        // One shared build, one probe per scanned chunk.
        let m = &db.obs().metrics;
        assert_eq!(m.histogram(metric_names::JOIN_BUILD_MS).unwrap().count, 1);
        assert_eq!(m.histogram(metric_names::JOIN_PROBE_MS).unwrap().count, 3);
        assert!(m.gauge(metric_names::JOIN_PARTITIONS).unwrap() >= 1.0);
    }

    #[test]
    fn join_with_aggregation() {
        let db = setup("joinagg");
        let df = q(
            &db,
            "SELECT fof_halo_tag, COUNT(*) AS n_gal, SUM(gal_mass) AS total FROM halos JOIN galaxies ON halos.fof_halo_tag = galaxies.fof_halo_tag GROUP BY fof_halo_tag",
        );
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.cell("n_gal", 0).unwrap(), Value::I64(2)); // halo 1
    }

    #[test]
    fn pushed_predicate_matches_naive_with_join() {
        let db = setup("pushjoin");
        let sql = "SELECT sim, COUNT(*) AS n, SUM(gal_mass) AS total FROM halos \
                   JOIN galaxies ON halos.fof_halo_tag = galaxies.fof_halo_tag \
                   WHERE fof_halo_mass > 1e12 AND gal_mass > 1e10 GROUP BY sim";
        assert_eq!(q(&db, sql), q_naive(&db, sql));
        // Pushdown actually fired for both sides.
        let m = &db.obs().metrics;
        assert!(m.counter(metric_names::PLAN_PREDICATES_PUSHED) >= 2);
    }

    #[test]
    fn computed_expressions() {
        let db = setup("exprs");
        let df = q(
            &db,
            "SELECT fof_halo_tag, log10(fof_halo_mass) AS lm FROM halos WHERE fof_halo_tag = 3",
        );
        let lm = df.cell("lm", 0).unwrap().as_f64().unwrap();
        assert!((lm - 2e14f64.log10()).abs() < 1e-12);
    }

    #[test]
    fn create_table_as_and_drop() {
        let db = setup("ctas");
        let out = execute(
            &db,
            &parse("CREATE TABLE big AS SELECT * FROM halos WHERE fof_halo_mass > 1e13").unwrap(),
        )
        .unwrap();
        assert_eq!(out.frame.n_rows(), 0);
        let df = q(&db, "SELECT COUNT(*) AS n FROM big");
        assert_eq!(df.cell("n", 0).unwrap(), Value::I64(4));
        execute(&db, &parse("DROP TABLE big").unwrap()).unwrap();
        assert!(q_err(&db, "SELECT * FROM big"));
        // IF EXISTS swallows the error.
        execute(&db, &parse("DROP TABLE IF EXISTS big").unwrap()).unwrap();
    }

    fn q_err(db: &Database, sql: &str) -> bool {
        match parse(sql) {
            Ok(Statement::Select(s)) => run_select(db, &s).is_err(),
            _ => true,
        }
    }

    #[test]
    fn empty_result_keeps_schema() {
        let db = setup("empty");
        let df = q(&db, "SELECT fof_halo_tag FROM halos WHERE fof_halo_mass > 1e99");
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.names(), &["fof_halo_tag"]);
        // Whole-table aggregate over empty selection: one row, count 0.
        let df = q(&db, "SELECT COUNT(*) AS n FROM halos WHERE fof_halo_mass > 1e99");
        assert_eq!(df.cell("n", 0).unwrap(), Value::I64(0));
    }

    #[test]
    fn grouped_aggregate_with_all_chunks_skipped_keeps_schema() {
        // Zone maps skip every chunk; the grouped aggregate must come
        // back empty with correctly typed key columns (this used to
        // panic indexing the first group of an empty group table).
        let db = setup("skipallgroups");
        let df = q(
            &db,
            "SELECT sim, COUNT(*) AS n, AVG(fof_halo_mass) AS m FROM halos WHERE fof_halo_mass > 1e99 GROUP BY sim",
        );
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.names(), &["sim", "n", "m"]);
        assert_eq!(df.column("sim").unwrap().dtype(), DType::I64);
        assert_eq!(df.column("n").unwrap().dtype(), DType::I64);
    }

    /// 60 rows of 3 repeated names in 2 chunks — long/repetitive enough
    /// that the byte-cost heuristic picks the Dict codec.
    fn setup_dict(name: &str) -> Database {
        let db = Database::create(&tmp(name)).unwrap();
        let names: Vec<String> = (0..60)
            .map(|i| format!("simulation_{}", ["alpha", "beta", "gamma"][i % 3]))
            .collect();
        let masses: Vec<f64> = (0..60).map(|i| (i as f64 + 1.0) * 1e12).collect();
        let df = DataFrame::from_columns([
            ("sim_name", Column::Str(names)),
            ("mass", Column::F64(masses)),
        ])
        .unwrap();
        db.create_table("runs", &df.schema()).unwrap();
        db.append_chunked("runs", &df, 30).unwrap(); // 2 chunks
        db
    }

    fn add_sims(db: &Database) {
        let sims = DataFrame::from_columns([
            (
                "sim_name",
                Column::from(vec!["simulation_alpha", "simulation_beta"]),
            ),
            ("box_mpc", Column::from(vec![250.0, 500.0])),
        ])
        .unwrap();
        db.create_table("sims", &sims.schema()).unwrap();
        db.append("sims", &sims).unwrap();
    }

    #[test]
    fn dict_groupby_fast_path_matches_generic() {
        let db = setup_dict("dictgroup");
        let fast = q(
            &db,
            "SELECT sim_name, COUNT(*) AS n, SUM(mass) AS total FROM runs GROUP BY sim_name",
        );
        let m = &db.obs().metrics;
        assert_eq!(m.counter(metric_names::GROUPBY_DICT_FASTPATH_CHUNKS), 2);
        // 3 groups per chunk decoded, not 60 rows.
        assert_eq!(m.counter(metric_names::DICT_STRINGS_DECODED), 6);
        // The predicate disables the code path; `mass > 0` keeps all rows.
        let generic = q(
            &db,
            "SELECT sim_name, COUNT(*) AS n, SUM(mass) AS total FROM runs WHERE mass > 0 GROUP BY sim_name",
        );
        assert_eq!(fast, generic);
        assert_eq!(fast.n_rows(), 3);
        assert_eq!(m.counter(metric_names::GROUPBY_DICT_FASTPATH_CHUNKS), 2);
    }

    #[test]
    fn dict_groupby_fast_path_empty_table() {
        let db = Database::create(&tmp("dictgroupempty")).unwrap();
        let schema = vec![
            ("sim_name".to_string(), DType::Str),
            ("mass".to_string(), DType::F64),
        ];
        db.create_table("runs", &schema).unwrap();
        let df = q(&db, "SELECT sim_name, COUNT(*) AS n FROM runs GROUP BY sim_name");
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.column("sim_name").unwrap().dtype(), DType::Str);
    }

    #[test]
    fn dict_join_fast_path_matches_generic() {
        let db = setup_dict("dictjoin");
        add_sims(&db);
        // The key is only in the join condition: dict chunks probe the
        // dictionary (2 chunks), not the 60 rows. (SUM(box_mpc) reads the
        // build side, so the pre-aggregation rewrite stays off.)
        let fast = q(
            &db,
            "SELECT COUNT(*) AS n, SUM(box_mpc) AS b FROM runs JOIN sims ON runs.sim_name = sims.sim_name",
        );
        let m = &db.obs().metrics;
        assert_eq!(m.counter(metric_names::JOIN_DICT_FASTPATH_CHUNKS), 2);
        // Referencing the key in the projection forces the generic path.
        let generic = q(
            &db,
            "SELECT sim_name, box_mpc FROM runs JOIN sims ON runs.sim_name = sims.sim_name",
        );
        assert_eq!(m.counter(metric_names::JOIN_DICT_FASTPATH_CHUNKS), 2);
        // alpha: 20 rows, beta: 20 rows; gamma unmatched on inner join.
        assert_eq!(fast.cell("n", 0).unwrap(), Value::I64(40));
        let b = fast.cell("b", 0).unwrap().as_f64().unwrap();
        assert_eq!(b, 20.0 * 250.0 + 20.0 * 500.0);
        assert_eq!(generic.n_rows(), 40);
    }

    #[test]
    fn preagg_below_join_matches_naive() {
        let db = setup_dict("preagg");
        add_sims(&db);
        // The build side contributes only its key: the optimizer
        // aggregates below the join and scales by match multiplicity.
        let sql = "SELECT COUNT(*) AS n, SUM(mass) AS total FROM runs \
                   JOIN sims ON runs.sim_name = sims.sim_name";
        let fast = q(&db, sql);
        assert_eq!(db.obs().metrics.counter(metric_names::PLAN_PREAGG_APPLIED), 1);
        assert_eq!(fast.cell("n", 0).unwrap(), Value::I64(40));
        assert_eq!(fast, q_naive(&db, sql));
        // Grouping by the join key itself also pre-aggregates.
        let sql = "SELECT sim_name, COUNT(*) AS n FROM runs \
                   JOIN sims ON runs.sim_name = sims.sim_name GROUP BY sim_name";
        let fast = q(&db, sql);
        assert_eq!(fast.n_rows(), 2);
        assert_eq!(fast.cell("n", 0).unwrap(), Value::I64(20));
        assert_eq!(fast, q_naive(&db, sql));
    }

    #[test]
    fn preagg_left_join_keeps_unmatched_groups() {
        let db = setup_dict("preaggleft");
        add_sims(&db);
        let sql = "SELECT sim_name, COUNT(*) AS n FROM runs \
                   LEFT JOIN sims ON runs.sim_name = sims.sim_name GROUP BY sim_name";
        let fast = q(&db, sql);
        assert_eq!(fast.n_rows(), 3, "gamma survives the left join");
        assert_eq!(fast, q_naive(&db, sql));
    }

    #[test]
    fn explain_renders_plan_with_actuals() {
        let db = setup("explain");
        let Statement::Select(sel) = parse(
            "SELECT sim, COUNT(*) AS n FROM halos WHERE fof_halo_mass > 1e13 GROUP BY sim",
        )
        .unwrap() else {
            panic!()
        };
        let tree = explain_select(&db, &sel).unwrap();
        assert!(tree.contains("Aggregate keys=[sim]"), "{tree}");
        assert!(tree.contains("Scan halos"), "{tree}");
        assert!(tree.contains("est_rows="), "{tree}");
        assert!(tree.contains("actual rows_scanned="), "{tree}");
        assert!(tree.contains("Morsels: 3 over"), "{tree}");
    }

    #[test]
    fn limit_without_order_early_exits() {
        let db = setup("early");
        let df = q(&db, "SELECT fof_halo_tag FROM halos LIMIT 3");
        assert_eq!(df.n_rows(), 3);
    }

    #[test]
    fn having_filters_groups() {
        let db = setup("having");
        let df = q(
            &db,
            "SELECT sim, COUNT(*) AS n FROM halos GROUP BY sim HAVING n >= 3",
        );
        assert_eq!(df.n_rows(), 2); // both sims have 3 halos
        let df = q(
            &db,
            "SELECT sim, COUNT(*) AS n FROM halos WHERE fof_halo_mass > 1e13 GROUP BY sim HAVING COUNT(*) >= 2",
        );
        assert_eq!(df.n_rows(), 2);
        let df = q(
            &db,
            "SELECT sim, AVG(fof_halo_mass) AS m FROM halos GROUP BY sim HAVING m > 1e14",
        );
        assert_eq!(df.n_rows(), 1);
        assert_eq!(df.cell("sim", 0).unwrap(), Value::I64(1));
    }

    #[test]
    fn having_requires_aggregation_and_known_columns() {
        let db = setup("havingerr");
        assert!(db
            .query("SELECT fof_halo_tag FROM halos HAVING fof_halo_tag > 1")
            .is_err());
        assert!(db
            .query("SELECT sim, COUNT(*) AS n FROM halos GROUP BY sim HAVING bogus > 1")
            .is_err());
        // Aggregate in HAVING must match a selected aggregate.
        assert!(db
            .query("SELECT sim, COUNT(*) AS n FROM halos GROUP BY sim HAVING SUM(fof_halo_mass) > 1")
            .is_err());
    }

    #[test]
    fn distinct_deduplicates() {
        let db = setup("distinct");
        let df = q(&db, "SELECT DISTINCT sim FROM halos ORDER BY sim");
        assert_eq!(df.n_rows(), 2);
        // DISTINCT + LIMIT dedups before limiting.
        let df = q(&db, "SELECT DISTINCT sim FROM halos LIMIT 5");
        assert_eq!(df.n_rows(), 2);
        // Multi-column DISTINCT keeps genuinely distinct pairs.
        let df = q(&db, "SELECT DISTINCT sim, fof_halo_tag FROM halos");
        assert_eq!(df.n_rows(), 6);
    }

    #[test]
    fn group_by_expression_key() {
        let db = setup("exprkey");
        let df = q(
            &db,
            "SELECT floor(log10(fof_halo_mass)) AS dex, COUNT(*) AS n FROM halos GROUP BY floor(log10(fof_halo_mass)) ORDER BY dex",
        );
        assert!(df.n_rows() >= 3);
        let total: i64 = (0..df.n_rows())
            .map(|i| df.cell("n", i).unwrap().as_i64().unwrap())
            .sum();
        assert_eq!(total, 6);
    }
}
