//! Partial → combine: the one executor contract.
//!
//! A plan runs as one [`PartialRun`] per source
//! ([`super::morsel::execute_partial`]) followed by one [`combine`] over
//! the runs in source order. A single database is one source; a shard
//! set is one source per shard, each running a [`PlanFragment`]: the
//! plan with the pre-aggregation rewrite stripped (every shard folds its
//! joined rows in row order, which is what the determinism argument on
//! [`combine`] is stated over) and with LIMIT kept only where taking the
//! first rows per shard is safe — no ORDER BY / DISTINCT, since then
//! concatenation in shard order preserves global row order.
//!
//! Runs are in-memory values: accumulators keep their `±inf` rest
//! states and NaN payloads, key tokens their `u128` encodings, and
//! frames their cells, because nothing is re-encoded between a source
//! and the combiner.

use super::exec::{self, GroupMerger, PartialGroup};
use super::morsel::{kind_of, Partial, PartialRun};
use super::physical::PhysicalPlan;
use super::plan::QueryShape;
use crate::db::Database;
use crate::error::{DbError, DbResult};
use infera_frame::{Column, DType, DataFrame};

/// What a shard hands the combiner for this fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragmentMode {
    /// Grouped/whole-table aggregate: pre-finalize partial groups.
    PartialAggregate,
    /// Projection: the shard's (optionally limited) result rows.
    Rows,
}

/// A physical plan packaged for partition-local execution.
#[derive(Debug, Clone)]
pub struct PlanFragment {
    pub mode: FragmentMode,
    pub plan: PhysicalPlan,
}

impl PlanFragment {
    /// Package a plan for shard execution. Strips the pre-aggregation
    /// rewrite and, for projections that cannot limit locally
    /// (ORDER BY / DISTINCT present), clears the fragment-local LIMIT.
    pub fn from_plan(plan: &PhysicalPlan) -> PlanFragment {
        let mut plan = plan.clone();
        plan.preagg = None;
        let mode = match &plan.shape {
            QueryShape::Aggregate { .. } => FragmentMode::PartialAggregate,
            QueryShape::Projection { .. } => {
                if !plan.order_by.is_empty() || plan.distinct {
                    plan.limit = None;
                }
                FragmentMode::Rows
            }
        };
        PlanFragment { mode, plan }
    }
}

/// Zero-row frame with the plan's joined schema: the base scan's pruned
/// columns joined through every build side. Types the result when no
/// source produced a group or a row.
fn empty_joined(db: &Database, plan: &PhysicalPlan) -> DbResult<DataFrame> {
    let empty_of = |scan_idx: usize| -> DbResult<DataFrame> {
        let spec = &plan.scans[scan_idx].spec;
        let schema = db.table_schema(&spec.table)?;
        let mut frame = DataFrame::new();
        for name in &spec.columns {
            let dtype = schema
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| *d)
                .unwrap_or(DType::F64);
            frame
                .add_column(name.clone(), Column::empty(dtype))
                .map_err(DbError::from)?;
        }
        Ok(frame)
    };
    let mut frame = empty_of(0)?;
    for j in &plan.joins {
        let right = empty_of(j.scan_idx)?;
        frame = frame.join(&right, &j.left_col, &j.right_col, kind_of(j.kind))?;
    }
    Ok(frame)
}

/// Merge the runs of `plan` — one per source, in source order — into the
/// final frame: merge, synthesize, finalize, then HAVING / DISTINCT /
/// ORDER BY / LIMIT. `plan` is the statement's plan, not a fragment's
/// copy (whose final-only LIMIT is stripped).
///
/// Determinism argument: a partitioned table assigns each shard a
/// contiguous sim range and appends preserve within-shard row order, so
/// shard-order concatenation *is* the serial global row order; within
/// one run, groups arrive sorted by first-row position. Visiting groups
/// in `(source, first_pos)` order therefore reproduces the serial
/// first-seen group order exactly, and [`exec::Accum::merge`] in that
/// order reproduces the serial accumulator states (FIRST takes the
/// earliest source's value, LAST the latest; MEDIAN re-sorts its carried
/// values at finalize). With one run nothing merges, so a single
/// database is the one-shard case of the same code.
///
/// What only the combiner can know lives here and nowhere else: a
/// whole-table aggregate over zero rows still yields one row (an empty
/// partition must not fabricate a group per shard), and a result with no
/// group or row at all takes its column types from `schema_db`'s catalog
/// (any shard — schemas are identical).
pub fn combine(
    plan: &PhysicalPlan,
    runs: Vec<PartialRun>,
    schema_db: &Database,
) -> DbResult<DataFrame> {
    let frame = match &plan.shape {
        QueryShape::Aggregate { keys, aggs } => {
            let mut merged = GroupMerger::default();
            for run in runs {
                let Partial::Groups(groups) = run.partial else {
                    return Err(DbError::Exec(
                        "aggregate combine received a projection's rows".into(),
                    ));
                };
                for g in groups {
                    merged.push(g);
                }
            }
            let mut groups = merged.finish();
            if keys.is_empty() && groups.is_empty() {
                groups.push(PartialGroup::zero_rows(aggs));
            }
            exec::assemble_groups(keys, aggs, &groups, || empty_joined(schema_db, plan))?
        }
        QueryShape::Projection { items } => {
            let mut acc: Option<DataFrame> = None;
            for run in runs {
                let Partial::Rows(rows) = run.partial else {
                    return Err(DbError::Exec(
                        "projection combine received an aggregate's groups".into(),
                    ));
                };
                match (&mut acc, rows) {
                    (Some(a), Some(frame)) => a.vstack(&frame)?,
                    (None, Some(frame)) => acc = Some(frame),
                    (_, None) => {}
                }
            }
            match acc {
                Some(frame) => frame,
                None => exec::project(items, &empty_joined(schema_db, plan)?)?,
            }
        }
    };
    exec::post_steps(
        frame,
        plan.having.as_ref(),
        plan.distinct,
        &plan.order_by,
        plan.limit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Statement;
    use crate::sql::{logical, parser, physical, plan as sql_plan};

    fn plan_of(db: &Database, sql: &str) -> PhysicalPlan {
        let Statement::Select(sel) = parser::parse(sql).unwrap() else {
            panic!("expected SELECT")
        };
        let lp = logical::build(sql_plan::resolve(&sel, db).unwrap());
        physical::optimize(db, &lp)
    }

    #[test]
    fn from_plan_strips_preagg_and_final_only_limit() {
        let dir = std::env::temp_dir().join("infera_fragment_tests/from_plan");
        std::fs::remove_dir_all(&dir).ok();
        let db = Database::create(&dir).unwrap();
        let halos = DataFrame::from_columns([
            ("id", Column::I64((0..200).collect())),
            ("tag", Column::Str((0..200).map(|i| format!("t{}", i % 4)).collect())),
        ])
        .unwrap();
        let dim = DataFrame::from_columns([("tag", Column::Str(vec!["t0".into(), "t1".into()]))])
            .unwrap();
        for (name, frame) in [("halos", &halos), ("dim", &dim)] {
            db.create_table(name, &frame.schema()).unwrap();
            db.append(name, frame).unwrap();
        }
        // Key-only build side over a low-cardinality key: pre-aggregated.
        let plan = plan_of(
            &db,
            "SELECT COUNT(*) AS n FROM halos JOIN dim ON halos.tag = dim.tag",
        );
        assert!(plan.preagg.is_some(), "fixture must trigger the rewrite");
        let frag = PlanFragment::from_plan(&plan);
        assert_eq!(frag.mode, FragmentMode::PartialAggregate);
        assert!(frag.plan.preagg.is_none());

        let limit_of = |sql: &str| {
            let frag = PlanFragment::from_plan(&plan_of(&db, sql));
            assert_eq!(frag.mode, FragmentMode::Rows);
            frag.plan.limit
        };
        assert_eq!(limit_of("SELECT id FROM halos LIMIT 7"), Some(7));
        assert_eq!(limit_of("SELECT id FROM halos ORDER BY id LIMIT 7"), None);
        assert_eq!(limit_of("SELECT DISTINCT tag FROM halos LIMIT 7"), None);
    }
}
