//! Morsel-driven parallel execution of physical plans.
//!
//! The base table is split into chunk-aligned *morsels* pulled from a
//! shared atomic queue by a fixed pool of workers (one per available
//! core, never more than there are morsels). Each worker runs the fused
//! pipeline — zone-map skip, (late-materializing) scan, join probes
//! against shared build tables, residual filter, partial aggregation —
//! entirely on its own state, so there is no per-operator
//! fork/join barrier and no per-chunk group-table allocation: a worker
//! folds every morsel it pulls into one accumulator table.
//!
//! Determinism: each group records the position of its first row as
//! `(morsel_index << 32) | row`, and the cross-worker merge sorts by
//! that position before combining accumulators. Group order, counts,
//! MIN/MAX, MEDIAN and exactly representable sums are then those of a
//! sequential chunk-order scan, regardless of worker count or
//! scheduling, so serve-layer report digests are stable; FIRST/LAST,
//! which depend on the order a group's rows are met in, run on a single
//! worker (a rounded float SUM still follows the morsel-to-worker
//! assignment).

use super::ast::JoinType;
use super::exec::{
    chunk_partial, eval_arg_data, new_accums, project, push_row, to_refs, Accum, ExecStats,
    GroupMerger, KeyToken, PartialGroup,
};
use super::fragment::combine;
use super::physical::{PhysJoin, PhysScan, PhysicalPlan, PreAgg};
use super::plan::{AggItem, QueryShape};
use crate::db::Database;
use crate::error::{DbError, DbResult};
use infera_frame::{
    AggKind, Column, DType, DataFrame, Expr, JoinKind, JoinTable, KeyCol, KeyMode,
    SelectionVector, Value,
};
use infera_obs::metric_names;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Join-key comparison semantics (NaN never matches), mirroring the
/// frame layer's internal join mode.
const JOIN_KEY_MODE: KeyMode = KeyMode::Unify {
    nan_never_matches: true,
};

/// Result of one morsel-driven execution.
pub struct MorselRun {
    pub frame: DataFrame,
    /// Scan counters; `rows_output` is left to the caller.
    pub stats: ExecStats,
    /// Morsels dispatched (== base-table chunks).
    pub morsels: u64,
    /// Workers in the pool.
    pub workers: u64,
}

/// What one [`execute_partial`] leaves for [`combine`].
pub(crate) enum Partial {
    /// Aggregate shape: pre-finalize groups sorted by first-row position.
    Groups(Vec<PartialGroup>),
    /// Projection shape: the projected rows in scan order; `None` when no
    /// morsel produced a frame (empty table, or every chunk zone-skipped).
    Rows(Option<DataFrame>),
}

/// One source's share of a plan's work: scanned, probed, filtered and
/// folded, but not merged with other sources, finalized or post-processed
/// — the input of [`combine`], whether it came from the whole database or
/// from one shard's partition.
pub struct PartialRun {
    pub(crate) partial: Partial,
    /// Scan counters of this run (`rows_output` stays 0).
    pub stats: ExecStats,
    /// Morsels dispatched (== base-table chunks of this source).
    pub morsels: u64,
    /// Workers in the pool.
    pub workers: u64,
}

impl PartialRun {
    /// Partial groups or rows this run hands to the combiner.
    pub fn partial_rows(&self) -> usize {
        match &self.partial {
            Partial::Groups(gs) => gs.len(),
            Partial::Rows(frame) => frame.as_ref().map_or(0, DataFrame::n_rows),
        }
    }
}

/// Execute a physical plan to its final frame: [`combine`] over the one
/// [`PartialRun`] of the whole database.
pub fn execute(db: &Database, plan: &PhysicalPlan) -> DbResult<MorselRun> {
    let run = execute_partial(db, plan)?;
    let (stats, morsels, workers) = (run.stats, run.morsels, run.workers);
    Ok(MorselRun {
        frame: combine(plan, vec![run], db)?,
        stats,
        morsels,
        workers,
    })
}

/// Run a plan's pipeline over `db` up to, but excluding, the merge across
/// sources: scan each build table once and build one shared hash table
/// per join, then scan, probe, filter and fold the base table's morsels
/// and merge this run's workers. A projection keeps its LIMIT only when
/// no ORDER BY / DISTINCT follows, since then the first rows in scan
/// order are the answer's. Whatever needs every source's partial —
/// zero-row synthesis, empty-result typing, finalization, HAVING /
/// DISTINCT / ORDER BY / LIMIT — is [`combine`]'s.
pub fn execute_partial(db: &Database, plan: &PhysicalPlan) -> DbResult<PartialRun> {
    let n_chunks = db.n_chunks(&plan.scans[0].spec.table)?;
    // FIRST/LAST follow row order, and a worker folds the non-contiguous
    // morsels it pulls into one table: only a lone worker meets a group's
    // rows in scan order.
    let ordered = matches!(&plan.shape, QueryShape::Aggregate { aggs, .. }
        if aggs.iter().any(|a| matches!(a.kind, AggKind::First | AggKind::Last)));
    let workers = if ordered { 1 } else { worker_count(n_chunks) };
    let mut stats = ExecStats {
        chunks_total: n_chunks,
        ..ExecStats::default()
    };

    let rights: Vec<DataFrame> = plan
        .joins
        .iter()
        .map(|j| scan_build(db, &plan.scans[j.scan_idx]))
        .collect::<DbResult<_>>()?;
    let tables: Vec<JoinTable<'_>> = plan
        .joins
        .iter()
        .zip(&rights)
        .map(|(j, right)| -> DbResult<JoinTable<'_>> {
            let t0 = Instant::now();
            let table = JoinTable::build(right, &j.right_col)?;
            db.obs().metrics.observe(
                metric_names::JOIN_BUILD_MS,
                t0.elapsed().as_secs_f64() * 1e3,
            );
            db.obs()
                .metrics
                .set_gauge(metric_names::JOIN_PARTITIONS, table.n_partitions() as f64);
            Ok(table)
        })
        .collect::<DbResult<_>>()?;

    let pool = Pool {
        db,
        n_morsels: n_chunks,
        workers,
    };
    let partial = match &plan.shape {
        QueryShape::Aggregate { keys, aggs } => Partial::Groups(match &plan.preagg {
            Some(pre) => run_preagg(&pool, plan, pre, aggs, &tables[0], &mut stats)?,
            None => {
                let ctx = ScanCtx::new(db, plan, &plan.joins)?;
                fold_groups(&pool, &ctx, &tables, keys, aggs, &mut stats)?
            }
        }),
        QueryShape::Projection { items } => {
            let ctx = ScanCtx::new(db, plan, &plan.joins)?;
            Partial::Rows(run_projection(&pool, plan, &ctx, &tables, items, &mut stats)?)
        }
    };
    if stats.rows_pruned > 0 {
        db.obs()
            .metrics
            .inc(metric_names::SCAN_ROWS_PRUNED, stats.rows_pruned);
    }
    Ok(PartialRun {
        partial,
        stats,
        morsels: n_chunks as u64,
        workers: workers as u64,
    })
}

fn worker_count(n_morsels: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    hw.min(n_morsels).max(1)
}

pub(crate) fn kind_of(kind: JoinType) -> JoinKind {
    match kind {
        JoinType::Inner => JoinKind::Inner,
        JoinType::Left => JoinKind::Left,
    }
}

fn scan_build(db: &Database, scan: &PhysScan) -> DbResult<DataFrame> {
    let mut frame = db.scan_all(&scan.spec.table, &to_refs(&scan.spec.columns))?;
    if let Some(pred) = &scan.local_pred {
        frame = frame.filter_expr(pred)?;
    }
    Ok(frame)
}

/// The morsel worker pool of one run.
struct Pool<'a> {
    db: &'a Database,
    n_morsels: usize,
    workers: usize,
}

/// Drain the pool's morsel queue. `work(state, morsel)` returns `false` to
/// stop draining (single-worker early exit); errors propagate to the
/// caller. One state per worker comes back.
fn run_pool<S, I, F>(pool: &Pool<'_>, init: I, work: F) -> DbResult<Vec<S>>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> DbResult<bool> + Sync,
{
    let Pool {
        db,
        n_morsels,
        workers,
    } = *pool;
    db.obs()
        .metrics
        .inc(metric_names::MORSEL_COUNT, n_morsels as u64);
    let next = AtomicUsize::new(0);
    let drain = |state: &mut S| -> DbResult<()> {
        let started = Instant::now();
        let mut busy = std::time::Duration::ZERO;
        loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= n_morsels {
                break;
            }
            let t0 = Instant::now();
            let keep_going = work(state, ci)?;
            busy += t0.elapsed();
            if !keep_going {
                break;
            }
        }
        // Time spent on queue coordination and end-of-scan imbalance
        // rather than morsel work.
        db.obs().metrics.observe(
            metric_names::MORSEL_QUEUE_WAIT_MS,
            started.elapsed().saturating_sub(busy).as_secs_f64() * 1e3,
        );
        Ok(())
    };
    if workers == 1 {
        let mut state = init();
        drain(&mut state)?;
        return Ok(vec![state]);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    drain(&mut state).map(|()| state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(DbError::Exec("morsel worker panicked".into())))
            })
            .collect()
    })
}

/// Per-execution scan context shared (immutably) by all workers.
struct ScanCtx<'a> {
    base: &'a PhysScan,
    /// Joins probed per morsel (empty under the pre-aggregation rewrite).
    joins: &'a [PhysJoin],
    residual: Option<&'a Expr>,
    /// Columns the pushed predicate needs (late materialization).
    pred_cols: Vec<String>,
    /// Remaining projected columns, decoded only for surviving rows.
    rest_cols: Vec<String>,
    late: bool,
    /// First join probes on dictionary codes instead of key strings.
    dict_join: bool,
}

impl<'a> ScanCtx<'a> {
    fn new(db: &Database, plan: &'a PhysicalPlan, joins: &'a [PhysJoin]) -> DbResult<ScanCtx<'a>> {
        let base = &plan.scans[0];
        let pred_cols: Vec<String> = match &base.local_pred {
            Some(pred) => {
                let mut cols = pred.referenced_columns();
                cols.sort();
                cols.dedup();
                cols
            }
            None => Vec::new(),
        };
        let late = !pred_cols.is_empty();
        let rest_cols: Vec<String> = base
            .spec
            .columns
            .iter()
            .filter(|c| !pred_cols.contains(c))
            .cloned()
            .collect();
        let dict_join = !late && dict_join_eligible(db, plan, joins)?;
        Ok(ScanCtx {
            base,
            joins,
            residual: plan.residual.as_ref(),
            pred_cols,
            rest_cols,
            late,
            dict_join,
        })
    }
}

/// Is the first join's left key a Str column consumed *only* by that
/// join? Then Dict-encoded key chunks can probe on codes and the per-row
/// key strings are never decoded.
fn dict_join_eligible(db: &Database, plan: &PhysicalPlan, joins: &[PhysJoin]) -> DbResult<bool> {
    let Some(j0) = joins.first() else {
        return Ok(false);
    };
    if plan.scans[0].local_pred.is_some() {
        return Ok(false);
    }
    let schema = db.table_schema(&plan.scans[0].spec.table)?;
    if !schema
        .iter()
        .any(|(n, d)| n == &j0.left_col && *d == DType::Str)
    {
        return Ok(false);
    }
    // A right column named like the left key would get its `_right`
    // suffix only when the key is materialized; keep the generic path so
    // output names never depend on chunk codecs.
    let right = &plan.scans[j0.scan_idx];
    if right
        .spec
        .columns
        .iter()
        .any(|c| c != &j0.right_col && c == &j0.left_col)
    {
        return Ok(false);
    }
    let mut referenced: Vec<String> = Vec::new();
    if let Some(r) = &plan.residual {
        referenced.extend(r.referenced_columns());
    }
    match &plan.shape {
        QueryShape::Projection { items } => {
            for (_, e) in items {
                referenced.extend(e.referenced_columns());
            }
        }
        QueryShape::Aggregate { keys, aggs } => {
            for (_, e) in keys {
                referenced.extend(e.referenced_columns());
            }
            for a in aggs {
                if let Some(e) = &a.arg {
                    referenced.extend(e.referenced_columns());
                }
            }
        }
    }
    for j in &joins[1..] {
        referenced.push(j.left_col.clone());
    }
    Ok(!referenced.iter().any(|c| c == &j0.left_col))
}

/// One morsel through the fused scan pipeline: zone skip (`None`),
/// late-materializing or eager read, join probes, residual filter.
/// Returns `(rows_scanned, rows_pruned, frame)`.
fn read_morsel(
    db: &Database,
    ctx: &ScanCtx<'_>,
    tables: &[JoinTable<'_>],
    ci: usize,
) -> DbResult<Option<(u64, u64, DataFrame)>> {
    let base = ctx.base;
    for zf in &base.zone_filters {
        let zone = db.zone(&base.spec.table, &zf.column, ci)?;
        let str_zone = db.str_zone(&base.spec.table, &zf.column, ci)?;
        if !zf.may_match(zone, str_zone.as_ref()) {
            return Ok(None);
        }
    }
    let rows_in;
    let mut pruned = 0u64;
    let mut frame;
    if ctx.late {
        let pred = base.local_pred.as_ref().expect("late path has predicate");
        let pred_chunk = db.read_chunk(&base.spec.table, ci, &to_refs(&ctx.pred_cols))?;
        rows_in = pred_chunk.n_rows() as u64;
        let sv = SelectionVector::from_mask(&pred.eval_mask(&pred_chunk)?);
        pruned = rows_in - sv.len() as u64;
        let rest = db.read_chunk_rows(&base.spec.table, ci, &to_refs(&ctx.rest_cols), sv.rows())?;
        let mut chunk = DataFrame::new();
        for name in &base.spec.columns {
            let col = if ctx.pred_cols.contains(name) {
                sv.gather_column(pred_chunk.column(name)?)
            } else {
                rest.column(name)?.clone()
            };
            chunk.add_column(name.clone(), col).map_err(DbError::from)?;
        }
        frame = chunk;
    } else {
        if ctx.dict_join {
            let j0 = &ctx.joins[0];
            if let Some((dict, codes)) =
                db.read_chunk_dict_codes(&base.spec.table, ci, &j0.left_col)?
            {
                let rest: Vec<&str> = base
                    .spec
                    .columns
                    .iter()
                    .filter(|c| *c != &j0.left_col)
                    .map(String::as_str)
                    .collect();
                let chunk = db.read_chunk(&base.spec.table, ci, &rest)?;
                let t0 = Instant::now();
                // The per-chunk dictionary holds exactly the chunk's
                // distinct keys, so probing it covers every row.
                let dkey = KeyCol::Str(&dict);
                let (dl, dr) = tables[0].probe(&dkey, JoinKind::Left);
                let mut matches: Vec<Vec<u32>> = vec![Vec::new(); dict.len()];
                for (l, r) in dl.iter().zip(&dr) {
                    if *r != u32::MAX {
                        matches[*l as usize].push(*r);
                    }
                }
                let kind = kind_of(j0.kind);
                let mut left_idx: Vec<u32> = Vec::with_capacity(codes.len());
                let mut right_idx: Vec<u32> = Vec::with_capacity(codes.len());
                for (row, &c) in codes.iter().enumerate() {
                    let ms = &matches[c as usize];
                    if ms.is_empty() {
                        if kind == JoinKind::Left {
                            left_idx.push(row as u32);
                            right_idx.push(u32::MAX);
                        }
                    } else {
                        for &r in ms {
                            left_idx.push(row as u32);
                            right_idx.push(r);
                        }
                    }
                }
                let joined = tables[0].gather_joined(&chunk, &left_idx, &right_idx)?;
                db.obs().metrics.observe(
                    metric_names::JOIN_PROBE_MS,
                    t0.elapsed().as_secs_f64() * 1e3,
                );
                db.obs()
                    .metrics
                    .inc(metric_names::JOIN_DICT_FASTPATH_CHUNKS, 1);
                db.obs()
                    .metrics
                    .inc(metric_names::DICT_STRINGS_DECODED, dict.len() as u64);
                // First join done on codes; probe the rest below.
                return finish_morsel(db, ctx, tables, 1, codes.len() as u64, pruned, joined);
            }
        }
        frame = db.read_chunk(&base.spec.table, ci, &to_refs(&base.spec.columns))?;
        rows_in = frame.n_rows() as u64;
        // A pushed predicate with no column references cannot
        // late-materialize; apply it directly.
        if let Some(pred) = &base.local_pred {
            frame = frame.filter_expr(pred)?;
        }
    }
    finish_morsel(db, ctx, tables, 0, rows_in, pruned, frame)
}

fn finish_morsel(
    db: &Database,
    ctx: &ScanCtx<'_>,
    tables: &[JoinTable<'_>],
    start_join: usize,
    rows_in: u64,
    pruned: u64,
    mut frame: DataFrame,
) -> DbResult<Option<(u64, u64, DataFrame)>> {
    for (k, j) in ctx.joins.iter().enumerate().skip(start_join) {
        let t0 = Instant::now();
        frame = frame.join_with_table(&tables[k], &j.left_col, kind_of(j.kind))?;
        db.obs().metrics.observe(
            metric_names::JOIN_PROBE_MS,
            t0.elapsed().as_secs_f64() * 1e3,
        );
    }
    if let Some(r) = ctx.residual {
        frame = frame.filter_expr(r)?;
    }
    Ok(Some((rows_in, pruned, frame)))
}

fn pos(ci: usize, seq: usize) -> u64 {
    ((ci as u64) << 32) | seq as u64
}

/// Worker-local accumulator table for one aggregation.
enum AggTable {
    /// Single plain Str group key: probe by `&str`, clone each group
    /// name once on first occurrence.
    Str {
        map: HashMap<String, u32>,
        entries: Vec<StrEntry>,
    },
    Generic(GroupMerger),
}

struct StrEntry {
    name: String,
    accums: Vec<Accum>,
    first_pos: u64,
}

#[derive(Default)]
struct WorkerCounters {
    skipped: usize,
    scanned: u64,
    pruned: u64,
    fast_chunks: u64,
    decoded: u64,
    folded: u64,
}

struct AggWorker {
    table: AggTable,
    counters: WorkerCounters,
}

/// Shared state of one aggregation run (plain or pre-aggregating).
struct AggRun<'a> {
    keys: &'a [(String, Expr)],
    aggs: &'a [AggItem],
    /// `Some(key column)` when the single-Str-key fast path applies.
    str_key: Option<String>,
    /// Dictionary-code grouping applies on Dict-encoded chunks.
    dict_ok: bool,
    /// Columns the aggregate arguments read (dict fast path).
    arg_cols: Vec<String>,
}

impl<'a> AggRun<'a> {
    fn new(
        db: &Database,
        ctx: &ScanCtx<'_>,
        keys: &'a [(String, Expr)],
        aggs: &'a [AggItem],
    ) -> DbResult<AggRun<'a>> {
        let mut str_key = None;
        if ctx.joins.is_empty() && ctx.residual.is_none() {
            if let [(_, Expr::Col(k))] = keys {
                let schema = db.table_schema(&ctx.base.spec.table)?;
                if schema.iter().any(|(n, d)| n == k && *d == DType::Str) {
                    str_key = Some(k.clone());
                }
            }
        }
        // Dictionary-code grouping additionally needs the aggregate
        // arguments evaluable without the key column (and referencing at
        // least one column so argument lengths track the chunk).
        let mut dict_ok = str_key.is_some() && ctx.base.local_pred.is_none();
        let mut arg_cols: Vec<String> = Vec::new();
        if dict_ok {
            let key = str_key.as_ref().expect("str key set");
            for a in aggs {
                if let Some(e) = &a.arg {
                    let cols = e.referenced_columns();
                    if cols.is_empty() || cols.iter().any(|c| c == key) {
                        dict_ok = false;
                        break;
                    }
                    arg_cols.extend(cols);
                }
            }
            arg_cols.sort();
            arg_cols.dedup();
        }
        Ok(AggRun {
            keys,
            aggs,
            str_key,
            dict_ok,
            arg_cols,
        })
    }

    fn new_table(&self) -> AggTable {
        if self.str_key.is_some() {
            AggTable::Str {
                map: HashMap::new(),
                entries: Vec::new(),
            }
        } else {
            AggTable::Generic(GroupMerger::default())
        }
    }
}

/// Fold one morsel into a worker's accumulator table.
fn fold_morsel(
    db: &Database,
    ctx: &ScanCtx<'_>,
    tables: &[JoinTable<'_>],
    run: &AggRun<'_>,
    w: &mut AggWorker,
    ci: usize,
) -> DbResult<()> {
    if let Some(key) = &run.str_key {
        if run.dict_ok {
            if let Some((dict, codes)) = db.read_chunk_dict_codes(&ctx.base.spec.table, ci, key)? {
                fold_dict_codes(db, ctx, run, w, ci, &dict, &codes)?;
                return Ok(());
            }
        }
        let Some((rows_in, pruned, frame)) = read_morsel(db, ctx, tables, ci)? else {
            w.counters.skipped += 1;
            return Ok(());
        };
        w.counters.scanned += rows_in;
        w.counters.pruned += pruned;
        let col = frame.column(key)?;
        let Column::Str(names) = col else {
            return Err(DbError::Exec(format!("expected Str group key `{key}`")));
        };
        let arg_data = eval_arg_data(&frame, run.aggs)?;
        let AggTable::Str { map, entries } = &mut w.table else {
            unreachable!("str worker has Str table")
        };
        for (row, s) in names.iter().enumerate() {
            let id = match map.get(s.as_str()) {
                Some(&i) => i as usize,
                None => {
                    let i = entries.len();
                    map.insert(s.clone(), i as u32);
                    entries.push(StrEntry {
                        name: s.clone(),
                        accums: new_accums(run.aggs),
                        first_pos: pos(ci, row),
                    });
                    i
                }
            };
            push_row(&mut entries[id].accums, &arg_data, row);
        }
        w.counters.folded += 1;
        return Ok(());
    }
    let Some((rows_in, pruned, frame)) = read_morsel(db, ctx, tables, ci)? else {
        w.counters.skipped += 1;
        return Ok(());
    };
    w.counters.scanned += rows_in;
    w.counters.pruned += pruned;
    let AggTable::Generic(merger) = &mut w.table else {
        unreachable!("generic worker has Generic table")
    };
    for mut g in chunk_partial(&frame, run.keys, run.aggs)? {
        g.first_pos = pos(ci, g.first_pos as usize);
        merger.push(g);
    }
    w.counters.folded += 1;
    Ok(())
}

/// Dictionary-code grouping for one Dict-encoded morsel: group ids are
/// assigned per code in first-seen row order; only representative
/// strings leave the dictionary.
fn fold_dict_codes(
    db: &Database,
    ctx: &ScanCtx<'_>,
    run: &AggRun<'_>,
    w: &mut AggWorker,
    ci: usize,
    dict: &[String],
    codes: &[u32],
) -> DbResult<()> {
    let rest = db.read_chunk(&ctx.base.spec.table, ci, &to_refs(&run.arg_cols))?;
    let arg_data = eval_arg_data(&rest, run.aggs)?;
    let AggTable::Str { map, entries } = &mut w.table else {
        unreachable!("str worker has Str table")
    };
    let mut gid_of_code: Vec<u32> = vec![u32::MAX; dict.len()];
    let mut decoded = 0u64;
    for (row, &code) in codes.iter().enumerate() {
        let c = code as usize;
        let mut id = gid_of_code[c];
        if id == u32::MAX {
            decoded += 1;
            let s = &dict[c];
            id = match map.get(s.as_str()) {
                Some(&i) => i,
                None => {
                    let i = entries.len() as u32;
                    map.insert(s.clone(), i);
                    entries.push(StrEntry {
                        name: s.clone(),
                        accums: new_accums(run.aggs),
                        first_pos: pos(ci, row),
                    });
                    i
                }
            };
            gid_of_code[c] = id;
        }
        push_row(&mut entries[id as usize].accums, &arg_data, row);
    }
    w.counters.scanned += codes.len() as u64;
    w.counters.fast_chunks += 1;
    w.counters.decoded += decoded;
    w.counters.folded += 1;
    Ok(())
}

/// Fold every morsel into per-worker tables and merge them in first-row
/// order: duplicate groups across workers keep the smallest `first_pos`
/// (entries are visited in sorted position order, so the first
/// occurrence wins). `tables` is empty when the pre-aggregation rewrite
/// scans the base table alone.
fn fold_groups(
    pool: &Pool<'_>,
    ctx: &ScanCtx<'_>,
    tables: &[JoinTable<'_>],
    keys: &[(String, Expr)],
    aggs: &[AggItem],
    stats: &mut ExecStats,
) -> DbResult<Vec<PartialGroup>> {
    let db = pool.db;
    let run = AggRun::new(db, ctx, keys, aggs)?;
    let states = run_pool(
        pool,
        || AggWorker {
            table: run.new_table(),
            counters: WorkerCounters::default(),
        },
        |w, ci| fold_morsel(db, ctx, tables, &run, w, ci).map(|()| true),
    )?;

    let mut totals = WorkerCounters::default();
    let mut entries: Vec<PartialGroup> = Vec::new();
    for w in states {
        stats.chunks_skipped += w.counters.skipped;
        stats.rows_scanned += w.counters.scanned;
        stats.rows_pruned += w.counters.pruned;
        totals.fast_chunks += w.counters.fast_chunks;
        totals.decoded += w.counters.decoded;
        totals.folded += w.counters.folded;
        match w.table {
            AggTable::Str { entries: es, .. } => entries.extend(es.into_iter().map(|e| {
                PartialGroup {
                    key: vec![KeyToken::Str(e.name.clone())],
                    vals: vec![Value::Str(e.name)],
                    accums: e.accums,
                    first_pos: e.first_pos,
                }
            })),
            AggTable::Generic(merger) => entries.extend(merger.finish()),
        }
    }
    if totals.fast_chunks > 0 {
        db.obs()
            .metrics
            .inc(metric_names::GROUPBY_DICT_FASTPATH_CHUNKS, totals.fast_chunks);
        db.obs()
            .metrics
            .inc(metric_names::DICT_STRINGS_DECODED, totals.decoded);
    }
    db.obs()
        .metrics
        .inc(metric_names::GROUPBY_PARTIALS_MERGED, totals.folded);

    entries.sort_unstable_by_key(|e| e.first_pos);
    let mut merged = GroupMerger::default();
    for e in entries {
        merged.push(e);
    }
    Ok(merged.finish())
}

/// The projection's rows in chunk order, `None` when no morsel produced
/// a frame.
fn run_projection(
    pool: &Pool<'_>,
    plan: &PhysicalPlan,
    ctx: &ScanCtx<'_>,
    tables: &[JoinTable<'_>],
    items: &[(String, Expr)],
    stats: &mut ExecStats,
) -> DbResult<Option<DataFrame>> {
    struct ProjWorker {
        frames: Vec<(usize, DataFrame)>,
        counters: WorkerCounters,
        produced: u64,
    }
    let db = pool.db;
    // Without ORDER BY / DISTINCT the first LIMIT rows in scan order are
    // all the answer can use. Stopping early is only order-preserving
    // when a single worker drains the queue.
    let local_limit = plan
        .limit
        .filter(|_| plan.order_by.is_empty() && !plan.distinct);
    let early_limit = local_limit.filter(|_| pool.workers == 1);
    let states = run_pool(
        pool,
        || ProjWorker {
            frames: Vec::new(),
            counters: WorkerCounters::default(),
            produced: 0,
        },
        |w, ci| -> DbResult<bool> {
            let Some((rows_in, pruned, frame)) = read_morsel(db, ctx, tables, ci)? else {
                w.counters.skipped += 1;
                return Ok(true);
            };
            w.counters.scanned += rows_in;
            w.counters.pruned += pruned;
            let projected = project(items, &frame)?;
            w.produced += projected.n_rows() as u64;
            w.frames.push((ci, projected));
            if let Some(lim) = early_limit {
                if w.produced >= lim as u64 {
                    return Ok(false);
                }
            }
            Ok(true)
        },
    )?;
    let mut all: Vec<(usize, DataFrame)> = Vec::new();
    for w in states {
        stats.chunks_skipped += w.counters.skipped;
        stats.rows_scanned += w.counters.scanned;
        stats.rows_pruned += w.counters.pruned;
        all.extend(w.frames);
    }
    all.sort_unstable_by_key(|(ci, _)| *ci);
    let mut out: Option<DataFrame> = None;
    for (_, f) in all {
        match &mut out {
            Some(acc) => acc.vstack(&f)?,
            None => out = Some(f),
        }
    }
    Ok(match (out, local_limit) {
        (Some(frame), Some(limit)) => Some(frame.head(limit)),
        (out, _) => out,
    })
}

/// Pre-aggregation below the join: aggregate the base table by
/// `group keys ∪ {join key}`, probe each subgroup's key once for its
/// match multiplicity, scale the linear accumulators, and merge
/// subgroups into final groups in first-seen order (a final group keeps
/// its first surviving subgroup's position).
fn run_preagg(
    pool: &Pool<'_>,
    plan: &PhysicalPlan,
    pre: &PreAgg,
    aggs: &[AggItem],
    table: &JoinTable<'_>,
    stats: &mut ExecStats,
) -> DbResult<Vec<PartialGroup>> {
    let db = pool.db;
    // Scan the base table only — the join is replaced by multiplicity
    // scaling, so no morsel ever probes it.
    let ctx = ScanCtx::new(db, plan, &[])?;
    let subgroups = fold_groups(pool, &ctx, &[], &pre.keys, aggs, stats)?;
    let Some(first) = subgroups.first() else {
        return Ok(subgroups);
    };

    // One representative join-key value per subgroup.
    let mut key_col = Column::empty(first.vals[pre.key_idx].dtype());
    for g in &subgroups {
        key_col
            .push(g.vals[pre.key_idx].clone())
            .map_err(DbError::from)?;
    }
    let t0 = Instant::now();
    let extracted = KeyCol::extract(&key_col, JOIN_KEY_MODE);
    let counts = table.match_counts(&extracted);
    db.obs().metrics.observe(
        metric_names::JOIN_PROBE_MS,
        t0.elapsed().as_secs_f64() * 1e3,
    );

    let inner = plan.joins[0].kind == JoinType::Inner;
    let mut merged = GroupMerger::default();
    for (mut g, m) in subgroups.into_iter().zip(counts) {
        if inner && m == 0 {
            continue;
        }
        let eff = if inner { m } else { m.max(1) };
        for a in &mut g.accums {
            a.scale(eff);
        }
        if pre.key_appended {
            g.key.remove(pre.key_idx);
            g.vals.remove(pre.key_idx);
        }
        merged.push(g);
    }
    Ok(merged.finish())
}
