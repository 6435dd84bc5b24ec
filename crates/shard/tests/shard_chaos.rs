//! Chaos tests for the shard-worker fault boundary.
//!
//! Contract under faults:
//! * transient failures (injected errors, failed fragment hand-overs in
//!   any mode) are retried and the final answer is bit-identical to the
//!   no-fault run;
//! * permanent corruption of a shard's partition surfaces as a typed
//!   [`DbError::CorruptChunk`]-class error — **never** a partial
//!   answer;
//! * exhausted retries surface the underlying error, also never a
//!   partial answer.
//!
//! Fault plans are process-global, so every scenario lives in one test
//! function and tears its plan down before the next.

use infera_columnar::{Database, DbError};
use infera_frame::{Column, DataFrame};
use infera_shard::{ShardLayout, ShardedDb};
use std::path::PathBuf;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("infera_shard_chaos")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn load(db: &ShardedDb) {
    let n_sims = db.layout().n_sims;
    let mut sim = Vec::new();
    let mut mass = Vec::new();
    let mut tag = Vec::new();
    for s in 0..n_sims {
        for r in 0..30u32 {
            sim.push(i64::from(s));
            mass.push(f64::from((s * 31 + r) % 97));
            tag.push(format!("t{}", (s + r) % 3));
        }
    }
    let frame = DataFrame::from_columns([
        ("sim", Column::I64(sim)),
        ("mass", Column::F64(mass)),
        ("tag", Column::Str(tag)),
    ])
    .unwrap();
    db.create_table("halos", &frame.schema()).unwrap();
    db.append("halos", &frame).unwrap();
}

fn digest(frame: &DataFrame) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in frame.to_csv_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const SQL: &str =
    "SELECT tag, COUNT(*) AS n, SUM(mass) AS m, MEDIAN(mass) AS med \
     FROM halos GROUP BY tag ORDER BY tag";

fn install(spec: &str) {
    infera_faults::install(infera_faults::FaultPlan::parse(spec).unwrap());
}

#[test]
fn faults_retry_or_fail_typed_never_partial() {
    infera_faults::clear();
    let dir = fresh_dir("db");
    let layout = ShardLayout::build(4, 8, 0xabcd);
    let obs = infera_obs::Obs::new();
    let db = ShardedDb::create(&dir, layout, obs.clone()).unwrap();
    load(&db);

    // Anchor: the no-fault answer, cross-checked against a serial run.
    let baseline = db.query(SQL).unwrap();
    let anchor = digest(&baseline);
    {
        let serial_dir = fresh_dir("serial");
        let serial = Database::create(&serial_dir).unwrap();
        let schema = db.table_schema("halos").unwrap();
        serial.create_table("halos", &schema).unwrap();
        let cols: Vec<&str> = schema.iter().map(|(n, _)| n.as_str()).collect();
        for shard in db.shards() {
            serial
                .append("halos", &shard.scan_all("halos", &cols).unwrap())
                .unwrap();
        }
        assert_eq!(digest(&serial.query(SQL).unwrap()), anchor, "serial anchor");
        std::fs::remove_dir_all(&serial_dir).ok();
    }

    // 1. Transient send failure: retried, bit-identical digest.
    install("seed=7;shard.send=nth1:error");
    let (frame, _, info) = db.query_traced(SQL).unwrap();
    assert_eq!(digest(&frame), anchor, "transient send error");
    assert_eq!(
        info.per_shard.iter().map(|s| s.retries).sum::<u32>(),
        1,
        "one retry consumed"
    );
    infera_faults::clear();

    // 2. Corrupt-mode send: the fragment is a value in this process, so
    //    there are no bytes to tear — the hand-over fails as a transient
    //    error, the combiner hands it over again, digest unchanged.
    install("seed=7;shard.send=nth1:corrupt");
    let (frame, _, info) = db.query_traced(SQL).unwrap();
    assert_eq!(digest(&frame), anchor, "torn send retried");
    assert!(info.per_shard.iter().any(|s| s.retries > 0));
    infera_faults::clear();
    //    Persisting, it exhausts the retries like any transient error.
    install("seed=7;shard.send=every1:corrupt");
    let before = obs.metrics.counter(infera_obs::metric_names::RETRY_EXHAUSTED);
    let err = db.query(SQL).unwrap_err();
    assert!(
        matches!(err, DbError::Io(ref m) if m.contains(infera_faults::INJECTED_MARKER)),
        "a hand-over that keeps failing surfaces the injected error: {err:?}"
    );
    assert!(obs.metrics.counter(infera_obs::metric_names::RETRY_EXHAUSTED) > before);
    infera_faults::clear();

    // 3. Transient execute failure on a shard: retried, digest unchanged.
    install("seed=7;shard.exec=nth2:error");
    let frame = db.query(SQL).unwrap();
    assert_eq!(digest(&frame), anchor, "transient exec error");
    infera_faults::clear();

    // 4. Permanently corrupt shard partition: a typed CorruptChunk
    //    error naming the shard — never retried, never a partial frame.
    install("seed=7;shard.exec=nth1:corrupt");
    let before = obs.metrics.counter(infera_obs::metric_names::RETRY_ATTEMPTS);
    let err = db.query(SQL).unwrap_err();
    match &err {
        DbError::CorruptChunk {
            table,
            column,
            chunk,
            reason,
        } => {
            assert_eq!(table, "halos");
            assert_eq!(column, "<shard-partition>");
            assert_eq!(*chunk, 0, "first shard's partition");
            assert!(
                reason.contains(infera_faults::INJECTED_MARKER),
                "reason carries the injection marker: {reason}"
            );
        }
        other => panic!("expected CorruptChunk, got {other:?}"),
    }
    assert_eq!(
        obs.metrics.counter(infera_obs::metric_names::RETRY_ATTEMPTS),
        before,
        "corruption is permanent: no retry burned"
    );
    infera_faults::clear();

    // 5. Persistent transient failure: retries exhaust, the error
    //    propagates (not a partial answer) and the exhaustion counter
    //    moves.
    install("seed=7;shard.exec=every1:error");
    let before = obs.metrics.counter(infera_obs::metric_names::RETRY_EXHAUSTED);
    let err = db.query(SQL).unwrap_err();
    assert!(
        matches!(err, DbError::Io(ref m) if m.contains(infera_faults::INJECTED_MARKER)),
        "exhausted retries surface the injected error: {err:?}"
    );
    assert!(
        obs.metrics.counter(infera_obs::metric_names::RETRY_EXHAUSTED) > before,
        "retry exhaustion recorded"
    );
    infera_faults::clear();

    // 6. Transient merge failure: combine retries, digest unchanged.
    install("seed=7;shard.merge=nth1:error");
    let frame = db.query(SQL).unwrap();
    assert_eq!(digest(&frame), anchor, "transient merge error");
    infera_faults::clear();

    // 7. Corrupt merge: typed corruption error, no partial answer.
    install("seed=7;shard.merge=nth1:corrupt");
    let err = db.query(SQL).unwrap_err();
    assert!(
        matches!(err, DbError::Corrupt(_)),
        "merge corruption is typed: {err:?}"
    );
    infera_faults::clear();

    // After all that chaos the database still answers correctly.
    assert_eq!(digest(&db.query(SQL).unwrap()), anchor, "post-chaos run");
    std::fs::remove_dir_all(&dir).ok();
}
