//! Cost model for physical planning.
//!
//! Estimates are fed by storage statistics: table row counts, logical
//! (uncompressed) byte sizes, per-column distinct-value estimates
//! (dictionary cardinality where chunks are dict-encoded, sampled
//! otherwise), and zone maps. All estimates are deliberately coarse —
//! they only have to rank alternatives (join orders, rewrite
//! decisions), not predict wall time.

use super::plan::{CmpOp, Conjunct, JoinSpec, ZoneFilter};
use crate::db::Database;
use crate::error::DbResult;
use crate::sql::ast::JoinType;

/// Selectivity assumed for a conjunct the model cannot analyze (no
/// zone-filter form, e.g. an arbitrary expression or OR of ranges).
pub const DEFAULT_SELECTIVITY: f64 = 0.33;

/// Statistics provider the planner consults. `Database` implements it
/// over the storage layer; tests substitute fixed tables.
pub trait Stats {
    /// Total rows of a table.
    fn row_count(&self, table: &str) -> DbResult<u64>;
    /// Logical (uncompressed) bytes of a table.
    fn byte_count(&self, table: &str) -> DbResult<u64>;
    /// Number of columns in a table's schema.
    fn column_count(&self, table: &str) -> DbResult<usize>;
    /// Estimated distinct values of one column.
    fn distinct(&self, table: &str, column: &str) -> DbResult<u64>;
    /// Fraction of the table's chunks whose zone maps may satisfy the
    /// filter (1.0 when zone maps are absent).
    fn zone_match_fraction(&self, table: &str, zf: &ZoneFilter) -> DbResult<f64>;
}

impl Stats for Database {
    fn row_count(&self, table: &str) -> DbResult<u64> {
        self.n_rows(table)
    }

    fn byte_count(&self, table: &str) -> DbResult<u64> {
        self.table_logical_bytes(table)
    }

    fn column_count(&self, table: &str) -> DbResult<usize> {
        Ok(self.table_schema(table)?.len())
    }

    fn distinct(&self, table: &str, column: &str) -> DbResult<u64> {
        self.distinct_estimate(table, column)
    }

    fn zone_match_fraction(&self, table: &str, zf: &ZoneFilter) -> DbResult<f64> {
        let n = self.n_chunks(table)?;
        if n == 0 {
            return Ok(1.0);
        }
        let mut matched = 0usize;
        for ci in 0..n {
            let zone = self.zone(table, &zf.column, ci)?;
            let str_zone = self.str_zone(table, &zf.column, ci)?;
            if zf.may_match(zone, str_zone.as_ref()) {
                matched += 1;
            }
        }
        Ok(matched as f64 / n as f64)
    }
}

/// Estimated output of one plan node.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct NodeEst {
    pub rows: u64,
    pub bytes: u64,
}

impl NodeEst {
    pub const ZERO: NodeEst = NodeEst { rows: 0, bytes: 0 };

    /// Bytes per row, guarded against zero-row estimates.
    fn row_width(&self) -> f64 {
        self.bytes as f64 / (self.rows.max(1)) as f64
    }
}

/// Selectivity of one scan-local conjunct against `table`.
///
/// Equality against a column uses `1 / distinct`; range comparisons use
/// the fraction of chunks whose zone maps survive, halved (rows within
/// a surviving chunk are assumed ~50% selective). Conjuncts with no
/// zone-filter form fall back to [`DEFAULT_SELECTIVITY`].
pub fn conjunct_selectivity(stats: &dyn Stats, table: &str, c: &Conjunct) -> f64 {
    if c.zone.is_empty() {
        return DEFAULT_SELECTIVITY;
    }
    let mut sel = 1.0f64;
    for zf in &c.zone {
        let s = match zf.op {
            CmpOp::Eq => stats
                .distinct(table, &zf.column)
                .map(|d| 1.0 / d.max(1) as f64)
                .unwrap_or(DEFAULT_SELECTIVITY),
            _ => stats
                .zone_match_fraction(table, zf)
                .unwrap_or(1.0)
                .max(0.02)
                * 0.5,
        };
        sel *= s;
    }
    sel.clamp(1e-6, 1.0)
}

/// Estimated output of scanning `table` reading `used_cols` of its
/// columns with `pushed` conjuncts applied at the scan.
pub fn scan_est(stats: &dyn Stats, table: &str, used_cols: usize, pushed: &[Conjunct]) -> NodeEst {
    let rows = stats.row_count(table).unwrap_or(0);
    let bytes = stats.byte_count(table).unwrap_or(0);
    let ncols = stats.column_count(table).unwrap_or(used_cols.max(1)).max(1);
    let sel: f64 = pushed
        .iter()
        .map(|c| conjunct_selectivity(stats, table, c))
        .product();
    let col_frac = (used_cols.max(1) as f64 / ncols as f64).min(1.0);
    NodeEst {
        rows: ((rows as f64) * sel).ceil() as u64,
        bytes: ((bytes as f64) * col_frac * sel).ceil() as u64,
    }
}

/// Estimated output of joining `left` (probe side, keyed on a column of
/// the base table) with `right` (build side): the classic
/// `|L| * |R| / max(d(L.k), d(R.k))` containment estimate. A LEFT join
/// never yields fewer rows than its probe side.
pub fn join_est(
    stats: &dyn Stats,
    left: NodeEst,
    base_table: &str,
    j: &JoinSpec,
    right_table: &str,
    right: NodeEst,
) -> NodeEst {
    let d_left = stats.distinct(base_table, &j.left_col).unwrap_or(1).max(1);
    let d_right = stats
        .distinct(right_table, &j.right_col)
        .unwrap_or(1)
        .max(1);
    let d = d_left.max(d_right);
    let mut rows = ((left.rows as f64) * (right.rows as f64) / d as f64).ceil() as u64;
    if j.kind == JoinType::Left {
        rows = rows.max(left.rows);
    }
    let width = left.row_width() + right.row_width();
    NodeEst {
        rows,
        bytes: (rows as f64 * width).ceil() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::plan::{ZoneFilter, ZoneValue};
    use infera_frame::Expr;

    struct FixedStats;
    impl Stats for FixedStats {
        fn row_count(&self, t: &str) -> DbResult<u64> {
            Ok(if t == "big" { 100_000 } else { 100 })
        }
        fn byte_count(&self, t: &str) -> DbResult<u64> {
            Ok(self.row_count(t)? * 40)
        }
        fn column_count(&self, _: &str) -> DbResult<usize> {
            Ok(5)
        }
        fn distinct(&self, _: &str, c: &str) -> DbResult<u64> {
            Ok(if c == "key" { 100 } else { 10 })
        }
        fn zone_match_fraction(&self, _: &str, _: &ZoneFilter) -> DbResult<f64> {
            Ok(0.25)
        }
    }

    fn conjunct(op: CmpOp, col: &str) -> Conjunct {
        Conjunct {
            post_join: Expr::col(col),
            scope: Some(0),
            local: Some(Expr::col(col)),
            zone: vec![ZoneFilter {
                column: col.into(),
                op,
                value: ZoneValue::Num(1.0),
            }],
        }
    }

    #[test]
    fn equality_uses_distinct() {
        let s = FixedStats;
        let sel = conjunct_selectivity(&s, "big", &conjunct(CmpOp::Eq, "flag"));
        assert!((sel - 0.1).abs() < 1e-12, "{sel}");
    }

    #[test]
    fn range_uses_zone_fraction() {
        let s = FixedStats;
        let sel = conjunct_selectivity(&s, "big", &conjunct(CmpOp::Gt, "flag"));
        assert!((sel - 0.125).abs() < 1e-12, "{sel}");
    }

    #[test]
    fn scan_scales_rows_and_bytes() {
        let s = FixedStats;
        let est = scan_est(&s, "big", 2, &[conjunct(CmpOp::Eq, "flag")]);
        assert_eq!(est.rows, 10_000);
        // 2 of 5 columns, 10% of rows.
        assert_eq!(est.bytes, 160_000);
    }

    #[test]
    fn join_estimate_uses_key_cardinality() {
        use crate::sql::ast::JoinType;
        use crate::sql::plan::JoinSpec;
        let s = FixedStats;
        let left = scan_est(&s, "big", 5, &[]);
        let right = scan_est(&s, "small", 5, &[]);
        let j = JoinSpec {
            scan_idx: 1,
            kind: JoinType::Inner,
            left_col: "key".into(),
            right_col: "key".into(),
            left_scope: 0,
        };
        let est = join_est(&s, left, "big", &j, "small", right);
        // 100k * 100 / max(100, 100) = 100k.
        assert_eq!(est.rows, 100_000);
        let j_left = JoinSpec {
            kind: JoinType::Left,
            ..j
        };
        let est = join_est(&s, NodeEst { rows: 100_000, bytes: 0 }, "big", &j_left, "small", NodeEst::ZERO);
        assert!(est.rows >= 100_000);
    }
}
