//! Serving-layer correctness under concurrency: the scheduler may
//! change *when* work happens, never *what* it computes.

use infera_core::{InferA, SessionConfig};
use infera_hacc::EnsembleSpec;
use infera_llm::BehaviorProfile;
use infera_serve::{JobSpec, ResultCache, ResultKey, Scheduler, ServeConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn build_session(name: &str, config: SessionConfig) -> (Arc<InferA>, infera_hacc::Manifest) {
    let base = std::env::temp_dir().join("infera_serve_it").join(name);
    std::fs::remove_dir_all(&base).ok();
    let manifest = infera_hacc::generate(&EnsembleSpec::tiny(81), &base.join("ens")).unwrap();
    let session = Arc::new(
        InferA::from_manifest(manifest.clone())
            .work_dir(base.join("work"))
            .config(config)
            .build()
            .unwrap(),
    );
    (session, manifest)
}

const QUESTIONS: &[&str] = &[
    "What is the maximum fof_halo_mass at timestep 624 in simulation 1?",
    "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
    "How many halos are there at each timestep in simulation 0? Plot the count over time.",
    "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
];

/// Digests per question salt for one scheduler configuration.
fn run_with_workers(name: &str, workers: usize) -> HashMap<u64, u64> {
    let (session, _) = build_session(
        name,
        SessionConfig::default().with_profile(BehaviorProfile::perfect()),
    );
    let sched = Scheduler::new(
        session,
        ServeConfig::with_pool(workers, QUESTIONS.len() * 2),
    );
    for (i, q) in QUESTIONS.iter().enumerate() {
        sched
            .submit(JobSpec::new(*q, (i as u64 + 1) * 100))
            .unwrap();
    }
    let results = sched.shutdown();
    assert_eq!(results.len(), QUESTIONS.len());
    results
        .iter()
        .map(|r| {
            assert!(
                r.report().is_some(),
                "job {} failed under {} workers",
                r.id,
                workers
            );
            (r.salt, r.digest)
        })
        .collect()
}

#[test]
fn concurrent_reports_are_bit_identical_to_serial() {
    let serial = run_with_workers("serial", 1);
    for workers in [2, 4] {
        let concurrent = run_with_workers(&format!("conc_{workers}"), workers);
        assert_eq!(
            serial, concurrent,
            "digests diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn shared_cache_survives_hammering() {
    // 8 workers resolving the same question with different salts all
    // read the ensemble through one shared decoded-batch cache.
    let (session, _) = build_session(
        "hammer",
        SessionConfig::default().with_profile(BehaviorProfile::perfect()),
    );
    let sched = Scheduler::new(
        session.clone(),
        ServeConfig::with_pool(8, 32),
    );
    for salt in 0..16u64 {
        sched
            .submit(JobSpec::new(QUESTIONS[0], salt))
            .unwrap();
    }
    let results = sched.shutdown();
    assert_eq!(results.len(), 16);
    assert!(results.iter().all(|r| r.report().is_some()));
    // Distinct salts are distinct cache keys — these were real runs, so
    // the decoded-batch cache absorbed the repeated ensemble reads.
    assert!(
        session.shared_cache().hit_count() > 0,
        "decoded-batch cache took no hits across 16 concurrent runs"
    );
    // All 16 runs load the same file selection, so the cache holds one
    // entry set, not 16 copies.
    let entries_after = session.shared_cache().len();
    assert!(entries_after > 0);
    let sched2 = Scheduler::new(
        session.clone(),
        ServeConfig::with_pool(8, 32),
    );
    for salt in 0..16u64 {
        sched2
            .submit(JobSpec::new(QUESTIONS[0], salt))
            .unwrap();
    }
    let second = sched2.shutdown();
    assert_eq!(second.len(), 16);
    assert_eq!(
        session.shared_cache().len(),
        entries_after,
        "re-asking adds no duplicate cache entries"
    );
}

#[test]
fn result_cache_invalidates_on_fingerprint_change() {
    let cache = ResultCache::new(16);
    let base = std::env::temp_dir().join("infera_serve_it/fingerprint");
    std::fs::remove_dir_all(&base).ok();
    let m1 = infera_hacc::generate(&EnsembleSpec::tiny(83), &base.join("ens1")).unwrap();
    let m2 = infera_hacc::generate(&EnsembleSpec::tiny(84), &base.join("ens2")).unwrap();
    assert_ne!(m1.fingerprint(), m2.fingerprint());

    cache.validate_fingerprint(m1.fingerprint());
    let (session, _) = build_session(
        "fingerprint_run",
        SessionConfig::default().with_profile(BehaviorProfile::perfect()),
    );
    let report = Arc::new(session.ask(QUESTIONS[0]).unwrap());
    let key = |fp: u64| ResultKey {
        question: QUESTIONS[0].to_string(),
        fingerprint: fp,
        seed: 42,
        salt: 1,
        semantic: "easy".to_string(),
    };
    cache.insert(key(m1.fingerprint()), report);
    assert_eq!(cache.len(), 1);

    // Same ensemble again: entries survive.
    assert!(!cache.validate_fingerprint(m1.fingerprint()));
    assert_eq!(cache.len(), 1);

    // Regenerated ensemble: everything cached is stale and dropped.
    assert!(cache.validate_fingerprint(m2.fingerprint()));
    assert_eq!(cache.len(), 0);
    assert!(cache.get(&key(m2.fingerprint())).is_none());
}
