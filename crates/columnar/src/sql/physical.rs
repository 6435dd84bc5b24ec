//! Physical plan: execution decisions chosen by the cost model.
//!
//! Turns a [`LogicalPlan`] into a [`PhysicalPlan`] by deciding, per
//! query:
//!
//! - **Predicate placement** — single-scope conjuncts move below the
//!   joins into their scan (local filter + zone-map pruning) whenever
//!   semantics allow: base-table conjuncts always; build-side conjuncts
//!   only through INNER joins (filtering the right side of a LEFT join
//!   before the join would change which rows null-extend).
//! - **Join order** — when every join is inner, keyed on the base
//!   table, free of cross-table name collisions, and the output shape
//!   is order-insensitive, builds are probed smallest-first (greedy by
//!   estimated build-side cardinality).
//! - **Pre-aggregation below the join** — a grouped aggregate whose
//!   build side contributes only its join key is rewritten to aggregate
//!   the base table by `group keys ∪ {join key}` and scale each
//!   subgroup by the key's match multiplicity, skipping the join
//!   row-expansion entirely.
//!
//! Physical plans are fully deterministic functions of the catalog and
//! statistics, so repeated runs of one query produce identical plans
//! (and identical result digests).

use super::ast::JoinType;
use super::cost::{self, NodeEst, Stats};
use super::exec::ExecStats;
use super::logical::{and_exprs, LogicalPlan};
use super::plan::{AggItem, Conjunct, QueryShape, ScanSpec, ZoneFilter};
use infera_frame::{AggKind, Expr};
use serde::Serialize;

/// One physical table scan: pruned columns plus every conjunct the
/// optimizer pushed down to it.
#[derive(Debug, Clone, Serialize)]
pub struct PhysScan {
    pub spec: ScanSpec,
    /// Conjunction of pushed predicates in scan-local column names.
    pub local_pred: Option<Expr>,
    /// Zone-map filters extracted from the pushed predicates.
    pub zone_filters: Vec<ZoneFilter>,
    pub est: NodeEst,
}

/// One hash join in execution (probe) order.
#[derive(Debug, Clone, Serialize)]
pub struct PhysJoin {
    /// Index of the build-side scan in [`PhysicalPlan::scans`].
    pub scan_idx: usize,
    pub kind: JoinType,
    /// Probe key: cumulative output-column name on the accumulated left
    /// side.
    pub left_col: String,
    /// Build key on the build-side table.
    pub right_col: String,
    /// Estimated cumulative output after this join.
    pub est: NodeEst,
}

/// Pre-aggregation below the join: subgroup keys and where the join key
/// sits among them.
#[derive(Debug, Clone, Serialize)]
pub struct PreAgg {
    /// Final group keys plus — if absent — the join key appended.
    pub keys: Vec<(String, Expr)>,
    /// Index of the join key within `keys`.
    pub key_idx: usize,
    /// Whether the join key was appended (and must be dropped after the
    /// multiplicity merge).
    pub key_appended: bool,
}

/// The physical plan the morsel executor runs.
#[derive(Debug, Clone, Serialize)]
pub struct PhysicalPlan {
    /// All scans; `scans[0]` is the probe-side base table.
    pub scans: Vec<PhysScan>,
    /// Joins in chosen execution order.
    pub joins: Vec<PhysJoin>,
    /// Conjuncts that could not be pushed below a join, ANDed.
    pub residual: Option<Expr>,
    /// Pre-aggregation rewrite, when chosen.
    pub preagg: Option<PreAgg>,
    pub shape: QueryShape,
    pub distinct: bool,
    pub having: Option<Expr>,
    pub order_by: Vec<(String, bool)>,
    pub limit: Option<usize>,
    /// Estimated final output.
    pub est: NodeEst,
    /// Conjuncts placed below a join (0 for join-free queries).
    pub predicates_pushed: u64,
    /// Plan alternatives scored while optimizing.
    pub candidates_considered: u64,
}

/// Choose the physical plan for a logical one.
pub fn optimize(stats: &dyn Stats, lp: &LogicalPlan) -> PhysicalPlan {
    let mut predicates_pushed = 0u64;
    let mut candidates_considered = 1u64; // the syntactic-order plan itself
    let mut residual_conjuncts: Vec<Conjunct> = Vec::new();

    // ---- predicate placement -------------------------------------------
    let mut scans: Vec<PhysScan> = Vec::with_capacity(lp.scans.len());
    for (i, scan) in lp.scans.iter().enumerate() {
        // Base conjuncts are always pushable; build-side conjuncts only
        // through an inner join.
        let scope_pushable = i == 0 || lp.joins[i - 1].kind == JoinType::Inner;
        let mut pushed: Vec<Conjunct> = Vec::new();
        let mut local_exprs: Vec<Expr> = Vec::new();
        let mut zone_filters: Vec<ZoneFilter> = Vec::new();
        for c in &lp.scoped[i] {
            match (&c.local, scope_pushable) {
                (Some(local), true) => {
                    local_exprs.push(local.clone());
                    zone_filters.extend(c.zone.iter().cloned());
                    pushed.push(c.clone());
                    if !lp.joins.is_empty() {
                        predicates_pushed += 1;
                    }
                }
                _ => residual_conjuncts.push(c.clone()),
            }
        }
        let est = cost::scan_est(stats, &scan.table, scan.columns.len(), &pushed);
        scans.push(PhysScan {
            spec: scan.clone(),
            local_pred: and_exprs(local_exprs),
            zone_filters,
            est,
        });
    }
    residual_conjuncts.extend(lp.residual.iter().cloned());
    let residual = and_exprs(
        residual_conjuncts
            .iter()
            .map(|c| c.post_join.clone())
            .collect(),
    );

    // ---- join order ----------------------------------------------------
    let mut order: Vec<usize> = (0..lp.joins.len()).collect();
    if reorder_safe(lp, residual.is_some()) {
        let mut remaining: Vec<usize> = (0..lp.joins.len()).collect();
        let mut chosen = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            candidates_considered += remaining.len() as u64;
            let best = remaining
                .iter()
                .copied()
                .min_by_key(|&ji| (scans[lp.joins[ji].scan_idx].est.rows, ji))
                .expect("non-empty");
            remaining.retain(|&x| x != best);
            chosen.push(best);
        }
        order = chosen;
    }

    // Cumulative size estimates along the chosen pipeline.
    let base_table = &lp.scans[0].table;
    let mut running = scans[0].est;
    let mut joins: Vec<PhysJoin> = Vec::with_capacity(order.len());
    for &ji in &order {
        let j = &lp.joins[ji];
        let right_table = &lp.scans[j.scan_idx].table;
        running = cost::join_est(
            stats,
            running,
            base_table,
            j,
            right_table,
            scans[j.scan_idx].est,
        );
        joins.push(PhysJoin {
            scan_idx: j.scan_idx,
            kind: j.kind,
            left_col: j.left_col.clone(),
            right_col: j.right_col.clone(),
            est: running,
        });
    }

    // ---- pre-aggregation below the join --------------------------------
    let preagg = decide_preagg(stats, lp, &scans, residual.is_none());
    if preagg.is_some() {
        candidates_considered += 1;
    }

    let est = match &lp.shape {
        QueryShape::Projection { .. } => running,
        QueryShape::Aggregate { keys, .. } => {
            let rows = agg_group_estimate(stats, base_table, keys, running.rows);
            NodeEst {
                rows,
                bytes: (rows as f64 * running.bytes as f64 / running.rows.max(1) as f64).ceil()
                    as u64,
            }
        }
    };

    PhysicalPlan {
        scans,
        joins,
        residual,
        preagg,
        shape: lp.shape.clone(),
        distinct: lp.distinct,
        having: lp.having.clone(),
        order_by: lp.order_by.clone(),
        limit: lp.limit,
        est,
        predicates_pushed,
        candidates_considered,
    }
}

/// Is greedy join reordering output-preserving for this query?
///
/// Requires: at least two joins, all inner, all keyed on base-table
/// columns, no used column name shared between two build tables (their
/// `_right` suffixing would depend on join order), and an aggregate
/// output whose group keys come from the base table with no
/// order-sensitive aggregates — then every output row of one base row
/// falls in one group and per-group value multisets are order-invariant.
fn reorder_safe(lp: &LogicalPlan, has_residual: bool) -> bool {
    if lp.joins.len() < 2
        || has_residual
        || !lp
            .joins
            .iter()
            .all(|j| j.kind == JoinType::Inner && j.left_scope == 0)
    {
        return false;
    }
    // Cross-build-table collisions flip `_right` suffixes under reorder.
    let mut seen: Vec<&str> = Vec::new();
    for j in &lp.joins {
        for c in &lp.scans[j.scan_idx].columns {
            if c == &j.right_col {
                continue;
            }
            if seen.contains(&c.as_str()) {
                return false;
            }
            seen.push(c);
        }
    }
    let QueryShape::Aggregate { keys, aggs } = &lp.shape else {
        return false;
    };
    let base_cols = &lp.scans[0].columns;
    let keys_on_base = keys.iter().all(|(_, e)| {
        e.referenced_columns()
            .iter()
            .all(|c| base_cols.contains(c))
    });
    keys_on_base && aggs.iter().all(|a| order_insensitive(a.kind))
}

fn order_insensitive(kind: AggKind) -> bool {
    !matches!(kind, AggKind::First | AggKind::Last)
}

/// Decide whether to aggregate below the join. See module docs; the
/// cost gate requires the estimated subgroup count to be well below the
/// base row count, otherwise the pre-aggregation does the work of the
/// full grouping without shrinking anything.
fn decide_preagg(
    stats: &dyn Stats,
    lp: &LogicalPlan,
    scans: &[PhysScan],
    no_residual: bool,
) -> Option<PreAgg> {
    if lp.joins.len() != 1 || !no_residual {
        return None;
    }
    let j = &lp.joins[0];
    if j.left_scope != 0 {
        return None;
    }
    // Build side must contribute nothing but its join key.
    if lp.scans[1].columns != [j.right_col.clone()] {
        return None;
    }
    let QueryShape::Aggregate { keys, aggs } = &lp.shape else {
        return None;
    };
    // First/Last depend on joined-row order; Median would need its
    // retained values repeated per match.
    if aggs
        .iter()
        .any(|a| matches!(a.kind, AggKind::First | AggKind::Last | AggKind::Median))
    {
        return None;
    }
    // Group keys must be computable on the base table alone.
    let base_cols = &lp.scans[0].columns;
    if !keys.iter().all(|(_, e)| {
        e.referenced_columns()
            .iter()
            .all(|c| base_cols.contains(c))
    }) {
        return None;
    }
    let base = &lp.scans[0].table;
    let rows = scans[0].est.rows;
    let d_key = stats.distinct(base, &j.left_col).unwrap_or(rows).max(1);
    let mut est_sub = d_key;
    for (_, e) in keys {
        let d = match e {
            Expr::Col(c) => stats.distinct(base, c).unwrap_or(rows).max(1),
            _ => (rows / 3).max(1),
        };
        est_sub = est_sub.saturating_mul(d).min(rows.max(1));
    }
    if est_sub.saturating_mul(2) > rows {
        return None;
    }
    let key_expr = Expr::col(j.left_col.clone());
    let key_idx = keys.iter().position(|(_, e)| *e == key_expr);
    let mut sub_keys = keys.clone();
    let (key_idx, key_appended) = match key_idx {
        Some(i) => (i, false),
        None => {
            sub_keys.push(("__preagg_key".to_string(), key_expr));
            (sub_keys.len() - 1, true)
        }
    };
    Some(PreAgg {
        keys: sub_keys,
        key_idx,
        key_appended,
    })
}

fn agg_group_estimate(
    stats: &dyn Stats,
    base_table: &str,
    keys: &[(String, Expr)],
    input_rows: u64,
) -> u64 {
    if keys.is_empty() {
        return 1;
    }
    let mut est = 1u64;
    for (_, e) in keys {
        let d = match e {
            Expr::Col(c) => stats.distinct(base_table, c).unwrap_or(input_rows).max(1),
            _ => (input_rows / 3).max(1),
        };
        est = est.saturating_mul(d);
    }
    est.min(input_rows.max(1))
}

/// Actual execution counters attached to the rendered plan by EXPLAIN.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplainActuals {
    pub stats: ExecStats,
    pub morsels: u64,
    pub workers: u64,
}

impl PhysicalPlan {
    /// Stable hash of the plan: FNV-1a over the canonical JSON
    /// serialization. Derive-generated field order is deterministic, so
    /// equal plans hash equally across processes and sessions. It costs
    /// a serialization, so it is computed only where it is shown (the
    /// shard EXPLAIN) or names something (the gather scratch directory),
    /// never per query.
    pub fn plan_hash(&self) -> u64 {
        let json = serde_json::to_string(self).unwrap_or_default();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Render the plan as an indented tree, one node per line, with
    /// per-node `est_rows`/`est_bytes` and — when `actual` is given —
    /// the observed execution counters.
    pub fn render(&self, actual: Option<&ExplainActuals>) -> String {
        let mut out = String::new();
        let mut depth = 0usize;
        let pad = |d: usize| "  ".repeat(d);

        match &self.shape {
            QueryShape::Projection { items } => {
                let cols: Vec<&str> = items.iter().map(|(n, _)| n.as_str()).collect();
                out.push_str(&format!(
                    "Project [{}] est_rows={} est_bytes={}",
                    cols.join(", "),
                    self.est.rows,
                    self.est.bytes
                ));
            }
            QueryShape::Aggregate { keys, aggs } => {
                let ks: Vec<&str> = keys.iter().map(|(n, _)| n.as_str()).collect();
                let ags: Vec<String> = aggs.iter().map(render_agg).collect();
                out.push_str(&format!(
                    "Aggregate keys=[{}] aggs=[{}] est_rows={} est_bytes={}",
                    ks.join(", "),
                    ags.join(", "),
                    self.est.rows,
                    self.est.bytes
                ));
            }
        }
        if let Some(a) = actual {
            out.push_str(&format!(" (actual rows={})", a.stats.rows_output));
        }
        out.push('\n');
        depth += 1;

        if let Some(p) = &self.preagg {
            let ks: Vec<&str> = p.keys.iter().map(|(n, _)| n.as_str()).collect();
            out.push_str(&format!(
                "{}PreAggregate below join keys=[{}] (scale by match multiplicity)\n",
                pad(depth),
                ks.join(", ")
            ));
            depth += 1;
        }
        if let Some(r) = &self.residual {
            out.push_str(&format!("{}Filter residual={r:?}\n", pad(depth)));
            depth += 1;
        }
        for j in self.joins.iter().rev() {
            let right = &self.scans[j.scan_idx];
            let kind = match j.kind {
                JoinType::Inner => "inner",
                JoinType::Left => "left",
            };
            out.push_str(&format!(
                "{}Join {kind} {}.{} = {} est_rows={} est_bytes={}\n",
                pad(depth),
                right.spec.table,
                j.right_col,
                j.left_col,
                j.est.rows,
                j.est.bytes
            ));
            out.push_str(&render_scan(right, &pad(depth + 1), None));
            depth += 1;
        }
        let base_actual = actual.map(|a| a.stats);
        out.push_str(&render_scan(&self.scans[0], &pad(depth), base_actual));
        if let Some(a) = actual {
            out.push_str(&format!(
                "Morsels: {} over {} worker(s); plan candidates considered: {}; predicates pushed: {}\n",
                a.morsels, a.workers, self.candidates_considered, self.predicates_pushed
            ));
        }
        out
    }
}

fn render_agg(a: &AggItem) -> String {
    match &a.arg {
        Some(e) => format!("{}={:?}({e:?})", a.alias, a.kind),
        None => format!("{}={:?}(*)", a.alias, a.kind),
    }
}

fn render_scan(s: &PhysScan, pad: &str, actual: Option<ExecStats>) -> String {
    let mut line = format!(
        "{pad}Scan {} cols=[{}]",
        s.spec.table,
        s.spec.columns.join(", ")
    );
    if let Some(p) = &s.local_pred {
        line.push_str(&format!(" pred={p:?}"));
    }
    if !s.zone_filters.is_empty() {
        line.push_str(&format!(" zone_filters={}", s.zone_filters.len()));
    }
    line.push_str(&format!(" est_rows={} est_bytes={}", s.est.rows, s.est.bytes));
    if let Some(a) = actual {
        line.push_str(&format!(
            " (actual rows_scanned={} chunks_skipped={}/{} rows_pruned={})",
            a.rows_scanned, a.chunks_skipped, a.chunks_total, a.rows_pruned
        ));
    }
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DbResult;
    use crate::sql::ast::Statement;
    use crate::sql::logical;
    use crate::sql::parser::parse;
    use crate::sql::plan::{resolve, Catalog};

    struct FakeDb;
    impl Catalog for FakeDb {
        fn columns_of(&self, table: &str) -> DbResult<Vec<String>> {
            Ok(match table {
                "events" => vec!["host".into(), "val".into(), "tag".into()],
                "hosts" => vec!["host".into(), "weight".into()],
                "racks" => vec!["tag".into(), "rack".into()],
                _ => panic!("unknown table {table}"),
            })
        }
    }
    impl Stats for FakeDb {
        fn row_count(&self, t: &str) -> DbResult<u64> {
            Ok(match t {
                "events" => 100_000,
                "hosts" => 5_000,
                "racks" => 40,
                _ => 0,
            })
        }
        fn byte_count(&self, t: &str) -> DbResult<u64> {
            Ok(self.row_count(t)? * 24)
        }
        fn column_count(&self, t: &str) -> DbResult<usize> {
            Ok(self.columns_of(t)?.len())
        }
        fn distinct(&self, t: &str, c: &str) -> DbResult<u64> {
            Ok(match (t, c) {
                ("events", "host") => 500,
                ("events", "tag") => 40,
                ("events", "val") => 90_000,
                ("hosts", _) => 5_000,
                ("racks", _) => 40,
                _ => 10,
            })
        }
        fn zone_match_fraction(&self, _: &str, _: &ZoneFilter) -> DbResult<f64> {
            Ok(0.5)
        }
    }

    fn phys(sql: &str) -> PhysicalPlan {
        let Statement::Select(s) = parse(sql).unwrap() else {
            panic!()
        };
        let lp = logical::build(resolve(&s, &FakeDb).unwrap());
        optimize(&FakeDb, &lp)
    }

    #[test]
    fn pushes_inner_build_side_predicate() {
        let p = phys(
            "SELECT host, SUM(val) AS s FROM events JOIN hosts ON events.host = hosts.host \
             WHERE weight > 1.0 AND val > 2.0 GROUP BY host",
        );
        assert!(p.scans[1].local_pred.is_some(), "weight pushed to hosts");
        assert!(p.scans[0].local_pred.is_some(), "val pushed to events");
        assert_eq!(p.scans[1].zone_filters.len(), 1);
        assert!(p.residual.is_none());
        assert_eq!(p.predicates_pushed, 2);
    }

    #[test]
    fn left_join_keeps_build_side_predicate_residual() {
        let p = phys(
            "SELECT host, SUM(val) AS s FROM events LEFT JOIN hosts ON events.host = hosts.host \
             WHERE weight > 1.0 GROUP BY host",
        );
        assert!(p.scans[1].local_pred.is_none());
        assert!(p.residual.is_some(), "weight must filter post-join");
        assert_eq!(p.predicates_pushed, 0);
    }

    #[test]
    fn greedy_reorder_probes_smallest_build_first() {
        let p = phys(
            "SELECT tag, COUNT(*) AS n, SUM(weight) AS w FROM events \
             JOIN hosts ON events.host = hosts.host \
             JOIN racks ON events.tag = racks.tag GROUP BY tag",
        );
        // racks (40 rows) must be probed before hosts (5000 rows).
        assert_eq!(p.scans[p.joins[0].scan_idx].spec.table, "racks");
        assert_eq!(p.scans[p.joins[1].scan_idx].spec.table, "hosts");
        assert!(p.candidates_considered > 1);
    }

    #[test]
    fn left_join_disables_reorder() {
        let p = phys(
            "SELECT tag, COUNT(*) AS n FROM events \
             LEFT JOIN hosts ON events.host = hosts.host \
             JOIN racks ON events.tag = racks.tag GROUP BY tag",
        );
        assert_eq!(p.scans[p.joins[0].scan_idx].spec.table, "hosts");
        assert_eq!(p.scans[p.joins[1].scan_idx].spec.table, "racks");
    }

    #[test]
    fn preagg_applies_when_build_side_is_key_only() {
        let p = phys(
            "SELECT tag, COUNT(*) AS n FROM events \
             JOIN hosts ON events.host = hosts.host GROUP BY tag",
        );
        let pre = p.preagg.expect("preagg applies");
        assert_eq!(pre.keys.len(), 2, "tag plus appended host key");
        assert_eq!(pre.key_idx, 1);
        assert!(pre.key_appended);
    }

    #[test]
    fn preagg_skipped_when_build_columns_used() {
        let p = phys(
            "SELECT tag, SUM(weight) AS w FROM events \
             JOIN hosts ON events.host = hosts.host GROUP BY tag",
        );
        assert!(p.preagg.is_none(), "weight is read from the build side");
    }

    #[test]
    fn preagg_skipped_for_key_like_subgroups() {
        // val has ~90k distinct values over 100k rows: grouping by it
        // gains nothing, the cost gate must reject.
        let p = phys(
            "SELECT val, COUNT(*) AS n FROM events \
             JOIN hosts ON events.host = hosts.host GROUP BY val",
        );
        assert!(p.preagg.is_none());
    }

    #[test]
    fn render_tree_shape() {
        let p = phys(
            "SELECT host, SUM(val) AS s FROM events JOIN hosts ON events.host = hosts.host \
             WHERE val > 2.0 GROUP BY host",
        );
        let tree = p.render(None);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("Aggregate keys=[host]"), "{tree}");
        assert!(tree.contains("Join inner hosts.host = host"), "{tree}");
        assert!(tree.contains("Scan events"), "{tree}");
        assert!(tree.contains("est_rows="), "{tree}");
        // Build-side scan is indented deeper than its join line.
        let join_line = lines.iter().position(|l| l.contains("Join inner")).unwrap();
        assert!(lines[join_line + 1].starts_with("    Scan hosts"), "{tree}");
    }
}
