//! Hygiene checks for the shard observability counters and the EXPLAIN
//! shard split.

use infera_frame::{Column, DataFrame};
use infera_obs::metric_names;
use infera_shard::{ShardLayout, ShardedDb};
use std::path::PathBuf;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("infera_shard_golden")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fixture_frame() -> DataFrame {
    let n = 48usize;
    DataFrame::from_columns([
        (
            "sim",
            Column::I64((0..n).map(|i| (i / 12) as i64).collect()),
        ),
        (
            "mass",
            Column::F64((0..n).map(|i| f64::from((i as u32 * 37) % 100)).collect()),
        ),
        (
            "tag",
            Column::Str((0..n).map(|i| format!("t{}", i % 3)).collect()),
        ),
    ])
    .unwrap()
}

const SQL: &str = "SELECT tag, COUNT(*) AS n, SUM(mass) AS m, MEDIAN(mass) AS med \
                   FROM halos WHERE mass > 10 GROUP BY tag ORDER BY tag";

#[test]
fn shard_metrics_are_declared_and_move() {
    // Hygiene: every shard counter is declared in the metric registry's
    // canonical name list (undeclared names panic in debug builds
    // elsewhere; here we pin the names themselves).
    for name in [
        "shard.fragments_sent",
        "shard.partials_merged",
        "shard.combine_ms",
    ] {
        assert!(
            metric_names::is_declared(name),
            "metric '{name}' not declared in metric_names::all()"
        );
    }
    assert_eq!(metric_names::SHARD_FRAGMENTS_SENT, "shard.fragments_sent");
    assert_eq!(metric_names::SHARD_PARTIALS_MERGED, "shard.partials_merged");
    assert_eq!(metric_names::SHARD_COMBINE_MS, "shard.combine_ms");

    // And they move under a real scatter-gather run.
    let dir = fresh_dir("metrics");
    let obs = infera_obs::Obs::new();
    let db = ShardedDb::create(&dir, ShardLayout::build(3, 6, 1), obs.clone()).unwrap();
    let frame = fixture_frame();
    db.create_table("halos", &frame.schema()).unwrap();
    db.append("halos", &frame).unwrap();

    db.query(SQL).unwrap();
    assert_eq!(
        obs.metrics.counter(metric_names::SHARD_FRAGMENTS_SENT),
        3,
        "one fragment per shard"
    );
    assert!(obs.metrics.counter(metric_names::SHARD_PARTIALS_MERGED) > 0);
    let combine = obs
        .metrics
        .histogram(metric_names::SHARD_COMBINE_MS)
        .expect("combine_ms histogram populated");
    assert_eq!(combine.count, 1);

    db.query(SQL).unwrap();
    assert_eq!(obs.metrics.counter(metric_names::SHARD_FRAGMENTS_SENT), 6);

    // EXPLAIN renders the shard split: the scatter header, one line per
    // shard with estimated vs actual rows, and the combine step.
    let explain = db.explain(SQL).unwrap();
    assert!(
        explain.contains("Shard split: scatter-gather over 3 shard(s)"),
        "missing shard split header:\n{explain}"
    );
    for shard in 0..3 {
        assert!(
            explain.contains(&format!("shard {shard} [sims ")),
            "missing per-shard line {shard}:\n{explain}"
        );
    }
    assert!(explain.contains("fragment=partial-aggregate plan_hash="));
    assert!(explain.contains("est_rows=") && explain.contains("actual_rows="));
    assert!(
        explain.contains("Combine: final aggregate merge (shard order)"),
        "missing combine step:\n{explain}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The shard set plans a statement once, from the combined statistics,
/// and every strategy — and EXPLAIN — runs that plan: the single-database
/// planner, which counts the candidates it considers, is never asked to
/// plan the statement again.
#[test]
fn a_statement_is_planned_once_whatever_the_strategy() {
    let dir = fresh_dir("planned_once");
    let obs = infera_obs::Obs::new();
    let db = ShardedDb::create(&dir, ShardLayout::build(3, 6, 1), obs.clone()).unwrap();
    let frame = fixture_frame();
    db.create_table("halos", &frame.schema()).unwrap();
    db.append("halos", &frame).unwrap();
    let dim = DataFrame::from_columns([
        ("tag", Column::Str(vec!["t0".into(), "t1".into()])),
        ("weight", Column::F64(vec![2.0, 5.0])),
    ])
    .unwrap();
    db.create_table("dim", &dim.schema()).unwrap();
    db.append("dim", &dim).unwrap();

    for (sql, split) in [
        (SQL, "Shard split: scatter-gather over 3 shard(s)"),
        (
            "SELECT tag, SUM(weight) AS w FROM dim GROUP BY tag ORDER BY tag",
            "Shard split: none (all tables replicated; executed on shard 0)",
        ),
        (
            "SELECT tag, COUNT(*) AS n FROM dim JOIN halos ON dim.tag = halos.tag \
             GROUP BY tag ORDER BY tag",
            "Shard split: gather fallback",
        ),
    ] {
        let rows = db.query(sql).unwrap().n_rows();
        assert!(rows > 0, "{sql}");
        let explain = db.explain(sql).unwrap();
        assert!(explain.contains(split), "{sql}:\n{explain}");
        assert!(explain.contains(&format!("(actual rows={rows})")), "{sql}:\n{explain}");
    }
    assert_eq!(
        obs.metrics
            .counter(metric_names::PLAN_CANDIDATES_CONSIDERED),
        0
    );
    std::fs::remove_dir_all(&dir).ok();
}
