//! Count gate on the write path (DESIGN.md §17): timings cannot gate on a
//! shared host, counts can. A load flushes each table's `meta.json` once,
//! however many files it ingests, and a run renders each distinct frame to
//! CSV once, however often the frame reaches the provenance store. Run by
//! name from `scripts/verify.sh` and `scripts/offline-check.sh`.

use infera::agents::data_loading::run_load;
use infera::agents::{AgentContext, LoadSpec, Plan, RunConfig, RunState, TableLoad};
use infera::obs::metric_names;
use infera::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn base(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("infera_write_path_counts").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// 4 simulations × 8 steps: 32 halo files.
fn ensemble(dir: &std::path::Path) -> Manifest {
    let spec = EnsembleSpec {
        n_sims: 4,
        steps: EnsembleSpec::evenly_spaced_steps(8),
        ..EnsembleSpec::tiny(5)
    };
    infera::hacc::generate(&spec, dir).unwrap()
}

#[test]
fn a_32_file_load_flushes_meta_once_per_table_per_shard() {
    for shards in [0usize, 2] {
        let dir = base(&format!("load_{shards}"));
        let manifest = Arc::new(ensemble(&dir.join("ens")));
        let config = RunConfig {
            shards,
            ..RunConfig::default()
        };
        let ctx = AgentContext::new(
            manifest.clone(),
            &dir.join("session"),
            7,
            BehaviorProfile::perfect(),
            config,
        )
        .unwrap();
        let spec = LoadSpec {
            sims: (0..4).collect(),
            steps: manifest.steps.clone(),
            tables: vec![TableLoad {
                entity: "halos".into(),
                columns: vec!["fof_halo_tag".into(), "fof_halo_mass".into()],
                output: "halos".into(),
            }],
            include_params: false,
        };
        assert_eq!(spec.sims.len() * spec.steps.len(), 32);
        let mut state = RunState::new("q", SemanticLevel::Easy, Plan::default());
        let stats = run_load(&ctx, &mut state, &spec).unwrap();
        assert_eq!(ctx.db.n_rows("halos").unwrap(), stats.rows_loaded);
        // The counter starts after a table's creating flush: what is left
        // is the load's own — one per shard database holding the table.
        assert_eq!(
            ctx.obs.metrics.counter(metric_names::STORAGE_META_FLUSHES),
            shards.max(1) as u64,
            "{shards} shards"
        );
    }
}

#[test]
fn a_full_run_renders_each_distinct_frame_once() {
    let dir = base("run");
    let session = InferA::from_manifest(ensemble(&dir.join("ens")))
        .work_dir(dir.join("work"))
        .seed(3)
        .profile(BehaviorProfile::perfect())
        .build()
        .unwrap();
    let report = session
        .ask("Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?")
        .unwrap();
    assert!(report.completed, "{}", report.summary);
    let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
    let csv_artifacts = std::fs::read_dir(dir.join("work/run_0001/provenance/artifacts"))
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            name.to_string_lossy().ends_with(".csv")
        })
        .count() as u64;
    assert!(csv_artifacts >= 2, "{csv_artifacts}");
    assert_eq!(counter(metric_names::PROV_FRAMES_RENDERED), csv_artifacts);
    // Step outputs are put twice (their step, then the final checkpoint).
    assert!(counter(metric_names::PROV_FRAMES_PUT) > csv_artifacts);
    // One load step, 32 files into one table: one flush.
    assert_eq!(counter(metric_names::STORAGE_META_FLUSHES), 1);
    assert!(report.kernel_breakdown_text().contains("frames rendered"));
}
