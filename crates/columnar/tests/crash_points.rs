//! Crash points of the batched append, enumerated (ROADMAP adversarial
//! item (c)): a fault at every chunk write and at the one meta flush.
//!
//! A batched append of N batches into a C-column table makes one
//! `storage.append` check per chunk per column and one `storage.meta`
//! check at the end. Whichever of them fails — an error, a torn write
//! (half the chunk lands, then the call dies) or a panic — the table on
//! disk must be exactly the table before the call: same `meta.json`, same
//! bytes under every recorded chunk, every checksum valid. Retrying the
//! append must then give the clean table's answers.
//!
//! Fault plans are process-global, so the whole enumeration is one test.

use infera_columnar::{Database, TableStore};
use infera_frame::{Column, DataFrame};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const COLS: [&str; 3] = ["id", "mass", "name"];
const SQL: &str = "SELECT name, COUNT(*) AS n, SUM(mass) AS m, MAX(id) AS top \
                   FROM t GROUP BY name ORDER BY name";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("infera_crash_point_tests")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn batch(n: usize, base: i64) -> DataFrame {
    DataFrame::from_columns([
        ("id", Column::I64((0..n as i64).map(|i| base + i).collect())),
        (
            // Halves: sums are exact, so SQL answers cannot depend on the
            // order morsel workers merge their partial sums in.
            "mass",
            Column::F64((0..n).map(|i| base as f64 + i as f64 / 2.0).collect()),
        ),
        (
            "name",
            Column::Str((0..n).map(|i| format!("h{}", (base + i as i64) % 5)).collect()),
        ),
    ])
    .unwrap()
}

/// A database holding table `t` with one earlier append: the pre-append
/// table every crash must leave behind.
fn seeded(dir: &Path) -> Database {
    let mut db = Database::create(dir).unwrap();
    db.chunk_rows = 25;
    db.create_table("t", &batch(1, 0).schema()).unwrap();
    db.append("t", &batch(30, 0)).unwrap();
    db
}

fn reopen(dir: &Path) -> Database {
    let mut db = Database::open(dir).unwrap();
    db.chunk_rows = 25;
    db
}

#[test]
fn every_crash_point_leaves_the_old_table_and_a_retry_completes() {
    infera_faults::clear();
    // 25-row chunks: the three batches make 2 + 1 + 3 chunks.
    let batches = [batch(40, 100), batch(10, 200), batch(60, 300)];
    let refs: Vec<&DataFrame> = batches.iter().collect();
    let chunk_writes = (2 + 1 + 3) * COLS.len();

    let clean_dir = tmp("clean");
    let clean = seeded(&clean_dir);
    let before_meta = std::fs::read(clean_dir.join("t/meta.json")).unwrap();
    let before_cols: Vec<Vec<u8>> = (0..COLS.len())
        .map(|i| std::fs::read(clean_dir.join(format!("t/col_{i}.bin"))).unwrap())
        .collect();
    let before_rows = clean.scan_all("t", &COLS).unwrap();
    clean.append_batches("t", &refs).unwrap();
    let clean_rows = clean.scan_all("t", &COLS).unwrap();
    let clean_answer = clean.query(SQL).unwrap();

    let mut plans: Vec<String> = Vec::new();
    for mode in ["error", "torn", "panic"] {
        for k in 1..=chunk_writes {
            plans.push(format!("seed=1;storage.append=nth{k}:{mode}"));
        }
    }
    for mode in ["error", "panic"] {
        plans.push(format!("seed=1;storage.meta=nth1:{mode}"));
    }

    let dir = tmp("crashed");
    for plan in &plans {
        std::fs::remove_dir_all(&dir).ok();
        let db = seeded(&dir);
        infera_faults::install(infera_faults::FaultPlan::parse(plan).unwrap());
        // The injected panics are expected: keep their backtraces out of
        // the test output, and put the hook back before any assertion.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| db.append_batches("t", &refs)));
        std::panic::set_hook(hook);
        let injected: u64 = infera_faults::injected_counts().values().sum();
        infera_faults::clear();
        assert_eq!(injected, 1, "{plan}: the fault fired exactly once");
        match outcome {
            Ok(result) => {
                let err = result.expect_err(plan);
                assert!(err.to_string().contains(infera_faults::INJECTED_MARKER), "{plan}: {err}");
                // The handle that saw the failure still serves the old table.
                assert_eq!(db.scan_all("t", &COLS).unwrap(), before_rows, "{plan}: in memory");
            }
            Err(_) => assert!(plan.ends_with("panic"), "{plan}: unexpected panic"),
        }
        drop(db);

        // Reopen: exactly the pre-append table, every checksum valid.
        assert!(
            std::fs::read(dir.join("t/meta.json")).unwrap() == before_meta,
            "{plan}: meta.json changed"
        );
        for (i, old) in before_cols.iter().enumerate() {
            let now = std::fs::read(dir.join(format!("t/col_{i}.bin"))).unwrap();
            assert!(now.starts_with(old), "{plan}: col_{i}.bin lost recorded bytes");
        }
        let table = TableStore::open(&dir.join("t")).unwrap();
        assert_eq!(table.quarantined_count(), 0, "{plan}");
        for chunk in 0..table.meta.n_chunks() {
            table.read_chunk(chunk, &COLS).unwrap();
        }
        assert_eq!(table.quarantined_count(), 0, "{plan}: a checksum failed");
        let db = reopen(&dir);
        assert_eq!(db.scan_all("t", &COLS).unwrap(), before_rows, "{plan}: reopened");

        // The retried append lands the clean table's rows and answers.
        db.append_batches("t", &refs).unwrap();
        assert_eq!(db.scan_all("t", &COLS).unwrap(), clean_rows, "{plan}: retried rows");
        assert_eq!(db.query(SQL).unwrap(), clean_answer, "{plan}: retried answer");
        let retried = reopen(&dir);
        assert_eq!(retried.query(SQL).unwrap(), clean_answer, "{plan}: retried, reopened");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}
