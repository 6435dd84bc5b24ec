//! Scatter-gather equivalence: a [`ShardedDb`] must produce results
//! bit-identical to a single [`Database`] holding the same rows, for
//! every execution strategy (scatter, shard-local, gather fallback),
//! every shard count 1..=8 (including layouts with empty shards), and
//! the full query surface: filters, joins, grouped aggregates
//! (including the value-carrying MEDIAN/FIRST/LAST), projections and
//! LIMIT.
//!
//! Measures are integer-valued f64 so that sums are exact: bitwise
//! equality across accumulation orders is only meaningful when the
//! arithmetic itself is order-independent. On top of those the fixture
//! carries the values a partial result must not lose on its way to the
//! combiner — `NaN`, `±inf`, `-0.0`, a group that is `NaN` throughout
//! (its MIN/MAX accumulators rest at `±inf` on every shard) and an `F64`
//! group key (the `u128` key encoding) — in groups of their own, so the
//! ordinary groups keep their exact sums.

use infera_columnar::Database;
use infera_frame::{Column, DataFrame};
use infera_shard::{ShardLayout, ShardedDb};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("infera_shard_equiv")
        .join(format!("{tag}_{id}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Both sides of the comparison, loaded with identical batches.
struct Pair {
    single: Database,
    sharded: ShardedDb,
    single_dir: PathBuf,
    sharded_dir: PathBuf,
}

impl Pair {
    fn new(n_shards: usize, n_sims: u32) -> Pair {
        let single_dir = fresh_dir("single");
        let sharded_dir = fresh_dir("sharded");
        let single = Database::create(&single_dir).unwrap();
        let layout = ShardLayout::build(n_shards, n_sims, 0xfeed);
        let sharded = ShardedDb::create(&sharded_dir, layout, infera_obs::Obs::new()).unwrap();
        Pair {
            single,
            sharded,
            single_dir,
            sharded_dir,
        }
    }

    fn create_table(&self, name: &str, schema: &[(String, infera_frame::DType)]) {
        self.single.create_table(name, schema).unwrap();
        self.sharded.create_table(name, schema).unwrap();
    }

    fn append(&self, name: &str, batch: &DataFrame) {
        self.single.append(name, batch).unwrap();
        self.sharded.append(name, batch).unwrap();
    }

    fn check(&self, sql: &str) {
        let expected = self.single.query(sql).unwrap();
        let actual = self.sharded.query(sql).unwrap();
        assert_frames_bit_identical(&expected, &actual, sql);
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.single_dir).ok();
        std::fs::remove_dir_all(&self.sharded_dir).ok();
    }
}

/// Bit-exact frame equality: same schema, same row count, and f64
/// columns compared by bit pattern (NaN payloads and signed zeros
/// included), which `PartialEq` cannot express.
fn assert_frames_bit_identical(expected: &DataFrame, actual: &DataFrame, sql: &str) {
    assert_eq!(expected.schema(), actual.schema(), "schema for {sql}");
    assert_eq!(expected.n_rows(), actual.n_rows(), "row count for {sql}");
    for (name, _) in expected.schema() {
        let e = expected.column(&name).unwrap();
        let a = actual.column(&name).unwrap();
        match (e, a) {
            (Column::F64(x), Column::F64(y)) => {
                for (i, (p, q)) in x.iter().zip(y.iter()).enumerate() {
                    assert_eq!(
                        p.to_bits(),
                        q.to_bits(),
                        "column '{name}' row {i} for {sql}: {p} vs {q}"
                    );
                }
            }
            _ => assert_eq!(e, a, "column '{name}' for {sql}"),
        }
    }
}

/// Deterministic halo-like table, ordered by sim ascending so that the
/// single database's global row order equals the shard-order
/// concatenation (the invariant the combiner relies on).
fn halos_frame(n_sims: u32, rows_per_sim: usize) -> DataFrame {
    halos_frame_range(0, n_sims, rows_per_sim, 0x9e37)
}

/// Masses of the special rows, by tag: `t4` is `NaN` throughout, `t5`
/// mixes the infinities in, `t6` has `-0.0` as its minimum (and no
/// `+0.0`, whose tie with it `f64::min` may break either way).
const T5_MASSES: [f64; 4] = [f64::INFINITY, f64::NAN, f64::NEG_INFINITY, 7.0];
const T6_MASSES: [f64; 4] = [-0.0, f64::NAN, 7.0, 3.0];
/// `bin` values of the special rows: `-0.0` and `0.0` are one group key
/// (shown as whichever came first), `NaN` keys by its bit pattern.
const SPECIAL_BINS: [f64; 6] = [
    -0.0,
    f64::NAN,
    f64::INFINITY,
    0.0,
    f64::NEG_INFINITY,
    2.5,
];

fn halos_frame_range(sim_lo: u32, sim_hi: u32, rows_per_sim: usize, salt: u64) -> DataFrame {
    let mut sim = Vec::new();
    let mut step = Vec::new();
    let mut mass = Vec::new();
    let mut npart = Vec::new();
    let mut tag = Vec::new();
    let mut bin = Vec::new();
    let mut state = salt;
    for s in sim_lo..sim_hi {
        for r in 0..rows_per_sim {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sim.push(i64::from(s));
            step.push((r % 3) as i64);
            npart.push((state >> 17) as i64 % 500);
            // Every fifth row is a special one; which kind varies with the
            // sim, so a shard may hold a group's NaNs and another its
            // numbers.
            let k = s as usize + r / 5;
            if r % 5 != 4 {
                mass.push(f64::from((state >> 33) as u32 % 1000));
                tag.push(format!("t{}", state % 4));
                bin.push(f64::from((state >> 41) as u32 % 4) * 0.5);
                continue;
            }
            let (t, m) = match k % 3 {
                0 => (4, f64::NAN),
                1 => (5, T5_MASSES[k / 3 % 4]),
                _ => (6, T6_MASSES[k / 3 % 4]),
            };
            mass.push(m);
            tag.push(format!("t{t}"));
            bin.push(SPECIAL_BINS[k % 6]);
        }
    }
    DataFrame::from_columns([
        ("sim", Column::I64(sim)),
        ("step", Column::I64(step)),
        ("mass", Column::F64(mass)),
        ("npart", Column::I64(npart)),
        ("tag", Column::Str(tag)),
        ("bin", Column::F64(bin)),
    ])
    .unwrap()
}

/// Replicated dimension table (no `sim` column → copied to all shards).
fn dim_frame() -> DataFrame {
    DataFrame::from_columns([
        (
            "tag",
            Column::Str((0..4).map(|t| format!("t{t}")).collect()),
        ),
        ("weight", Column::F64(vec![2.0, 5.0, 7.0, 11.0])),
        (
            "label",
            Column::Str(["low", "low", "high", "high"].map(String::from).to_vec()),
        ),
    ])
    .unwrap()
}

/// The query surface under test. Every strategy appears: scatter
/// (partitioned base), shard-local (replicated only), gather fallback
/// (partitioned build side).
const QUERIES: &[&str] = &[
    // Grouped aggregates over the partitioned table.
    "SELECT sim, COUNT(*) AS n FROM halos GROUP BY sim ORDER BY sim",
    "SELECT tag, SUM(mass) AS m, MIN(mass) AS lo, MAX(mass) AS hi \
     FROM halos GROUP BY tag ORDER BY tag",
    "SELECT tag, AVG(mass) AS avg_m, STD(mass) AS std_m \
     FROM halos GROUP BY tag ORDER BY tag",
    // Value-shipping aggregates: exact across any partitioning.
    "SELECT tag, MEDIAN(mass) AS med, FIRST(mass) AS f, LAST(mass) AS l \
     FROM halos GROUP BY tag ORDER BY tag",
    "SELECT step, MEDIAN(npart) AS med_n, FIRST(sim) AS f, LAST(sim) AS l \
     FROM halos GROUP BY step ORDER BY step",
    // The special groups (t4 all-NaN, t5 infinities, t6 signed zero):
    // accumulator rest states, NaN payloads and zero signs must reach the
    // combiner as they left the shard.
    "SELECT tag, MIN(mass) AS lo, MAX(mass) AS hi, SUM(mass) AS m, MEDIAN(mass) AS med \
     FROM halos GROUP BY tag ORDER BY tag",
    "SELECT tag, COUNT(mass) AS n, FIRST(mass) AS f, LAST(mass) AS l \
     FROM halos GROUP BY tag ORDER BY tag",
    "SELECT MIN(mass) AS lo, MAX(mass) AS hi, SUM(mass) AS m, MEDIAN(mass) AS med \
     FROM halos WHERE tag = 't4'",
    // F64 group keys (the u128 key encoding), alone and beside a Str
    // token; no ORDER BY, so the first-seen group order itself is compared.
    "SELECT bin, COUNT(*) AS n, MIN(mass) AS lo, MAX(mass) AS hi, SUM(npart) AS p, \
     MEDIAN(mass) AS med, FIRST(mass) AS f, LAST(mass) AS l FROM halos GROUP BY bin",
    "SELECT bin, tag, COUNT(*) AS n, MAX(mass) AS hi, LAST(npart) AS l \
     FROM halos GROUP BY bin, tag",
    // Whole-table aggregates, including the zero-row synthesis path.
    "SELECT COUNT(*) AS n, SUM(mass) AS m, MEDIAN(mass) AS med FROM halos",
    "SELECT COUNT(*) AS n, MAX(mass) AS hi, FIRST(mass) AS f FROM halos WHERE mass < -1",
    // Filters and projections, with and without ORDER BY / LIMIT.
    "SELECT sim, mass FROM halos WHERE mass > 500 ORDER BY sim, mass LIMIT 20",
    "SELECT sim, step, mass FROM halos WHERE step = 1 LIMIT 17",
    "SELECT sim, tag, mass FROM halos WHERE tag = 't2' AND npart > 100 \
     ORDER BY mass, sim LIMIT 9",
    // Joins against the replicated dimension (scatter with build side).
    "SELECT tag, SUM(weight) AS w, COUNT(*) AS n \
     FROM halos JOIN dim ON halos.tag = dim.tag GROUP BY tag ORDER BY tag",
    "SELECT label, COUNT(*) AS n, MEDIAN(mass) AS med \
     FROM halos JOIN dim ON halos.tag = dim.tag GROUP BY label ORDER BY label",
    "SELECT sim, mass, weight FROM halos JOIN dim ON halos.tag = dim.tag \
     WHERE mass > 300 ORDER BY sim, mass, weight LIMIT 50",
    // Replicated-only query: shard-local strategy.
    "SELECT tag, SUM(weight) AS w FROM dim GROUP BY tag ORDER BY tag",
    // Partitioned build side: gather fallback.
    "SELECT tag, COUNT(*) AS n FROM dim JOIN halos ON dim.tag = halos.tag \
     GROUP BY tag ORDER BY tag",
];

fn run_suite(n_shards: usize, n_sims: u32, rows_per_sim: usize) {
    let pair = Pair::new(n_shards, n_sims);
    let halos = halos_frame(n_sims, rows_per_sim);
    let dim = dim_frame();
    pair.create_table("halos", &halos.schema());
    pair.create_table("dim", &dim.schema());
    pair.append("halos", &halos);
    pair.append("dim", &dim);
    for sql in QUERIES {
        pair.check(sql);
    }
}

#[test]
fn equivalence_across_shard_counts() {
    for n_shards in 1..=8 {
        run_suite(n_shards, 6, 40);
    }
}

#[test]
fn equivalence_with_empty_shards() {
    // More shards than sims: some shards own empty ranges and ship
    // zero-row partials; the combiner must be indifferent.
    run_suite(8, 3, 25);
    run_suite(5, 2, 30);
}

/// The special groups are really there and really special — otherwise the
/// equivalence above would hold them vacuously.
#[test]
fn special_values_reach_the_result() {
    let pair = Pair::new(3, 6);
    let halos = halos_frame(6, 40);
    pair.create_table("halos", &halos.schema());
    pair.append("halos", &halos);
    let by_tag = pair
        .sharded
        .query(
            "SELECT tag, COUNT(mass) AS n, MIN(mass) AS lo, MAX(mass) AS hi \
             FROM halos GROUP BY tag ORDER BY tag",
        )
        .unwrap();
    assert_eq!(by_tag.n_rows(), 7, "t0..t6");
    let cell = |c: &str, row: usize| by_tag.cell(c, row).unwrap().as_f64().unwrap();
    // t4: no value ever reached its accumulators.
    assert!(cell("n", 4) == 0.0 && cell("lo", 4).is_nan() && cell("hi", 4).is_nan());
    // t5: both infinities; t6: the minimum keeps its sign.
    assert_eq!((cell("lo", 5), cell("hi", 5)), (f64::NEG_INFINITY, f64::INFINITY));
    assert_eq!(cell("lo", 6).to_bits(), (-0.0f64).to_bits());

    let by_bin = pair
        .sharded
        .query("SELECT bin, COUNT(*) AS n FROM halos GROUP BY bin")
        .unwrap();
    let bins: Vec<f64> = (0..by_bin.n_rows())
        .map(|i| by_bin.cell("bin", i).unwrap().as_f64().unwrap())
        .collect();
    assert!(bins.iter().any(|b| b.is_nan()), "{bins:?}");
    assert!(bins.contains(&f64::INFINITY) && bins.contains(&f64::NEG_INFINITY), "{bins:?}");
    assert_eq!(bins.iter().filter(|b| **b == 0.0).count(), 1, "±0.0 is one key: {bins:?}");
}

/// Queries whose result depends on physical row order: FIRST/LAST ship
/// the first/last value *in append order*, and a LIMIT without a total
/// ORDER BY picks whichever rows come first. These are bit-identical
/// only under the loader's append discipline (sims non-decreasing
/// across batches); everything else is order-insensitive and exact for
/// any append order.
const ORDER_SENSITIVE: &[&str] = &[
    "SELECT tag, MEDIAN(mass) AS med, FIRST(mass) AS f, LAST(mass) AS l \
     FROM halos GROUP BY tag ORDER BY tag",
    "SELECT step, MEDIAN(npart) AS med_n, FIRST(sim) AS f, LAST(sim) AS l \
     FROM halos GROUP BY step ORDER BY step",
    "SELECT sim, step, mass FROM halos WHERE step = 1 LIMIT 17",
    "SELECT tag, COUNT(mass) AS n, FIRST(mass) AS f, LAST(mass) AS l \
     FROM halos GROUP BY tag ORDER BY tag",
    "SELECT bin, COUNT(*) AS n, MIN(mass) AS lo, MAX(mass) AS hi, SUM(npart) AS p, \
     MEDIAN(mass) AS med, FIRST(mass) AS f, LAST(mass) AS l FROM halos GROUP BY bin",
    "SELECT bin, tag, COUNT(*) AS n, MAX(mass) AS hi, LAST(npart) AS l \
     FROM halos GROUP BY bin, tag",
];

#[test]
fn equivalence_with_multiple_batches() {
    // Appends arrive in several sim-monotonic batches (the ensemble
    // loader's discipline: one batch per file, files in sim order) —
    // routing must keep per-shard row order equal to the serial append
    // order, so even FIRST/LAST agree.
    let pair = Pair::new(4, 8);
    let dim = dim_frame();
    let schema = halos_frame(1, 1).schema();
    pair.create_table("halos", &schema);
    pair.create_table("dim", &dim.schema());
    pair.append("dim", &dim);
    pair.append("halos", &halos_frame_range(0, 3, 10, 1));
    pair.append("halos", &halos_frame_range(3, 6, 7, 2));
    pair.append("halos", &halos_frame_range(6, 8, 5, 3));
    for sql in QUERIES {
        pair.check(sql);
    }
}

#[test]
fn equivalence_with_out_of_order_batches() {
    // Batches revisit earlier sims, so shard-order concatenation is a
    // permutation of the serial append order. Order-insensitive results
    // (counts, exact sums, min/max, median, ordered projections) must
    // still be bit-identical.
    let pair = Pair::new(4, 8);
    let dim = dim_frame();
    let schema = halos_frame(1, 1).schema();
    pair.create_table("halos", &schema);
    pair.create_table("dim", &dim.schema());
    pair.append("dim", &dim);
    pair.append("halos", &halos_frame_range(0, 8, 10, 4));
    pair.append("halos", &halos_frame_range(0, 8, 7, 5));
    pair.append("halos", &halos_frame_range(2, 4, 5, 6));
    for sql in QUERIES {
        if !ORDER_SENSITIVE.contains(sql) {
            pair.check(sql);
        }
    }
}

#[test]
fn create_table_as_matches() {
    let pair = Pair::new(3, 6);
    let halos = halos_frame(6, 20);
    pair.create_table("halos", &halos.schema());
    pair.append("halos", &halos);
    let sql = "CREATE TABLE per_sim AS \
               SELECT sim, COUNT(*) AS n, SUM(mass) AS m FROM halos GROUP BY sim ORDER BY sim";
    pair.single.execute_sql(sql).unwrap();
    pair.sharded.execute_sql(sql).unwrap();
    // The derived table carries `sim` so it partitions too; reading it
    // back must agree.
    pair.check("SELECT sim, n, m FROM per_sim ORDER BY sim");
}

/// Every file under `root`, by path relative to it.
fn tree_files(root: &std::path::Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
    let mut out = std::collections::BTreeMap::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// One batched append leaves every shard the files — `meta.json` and
/// column bytes — that one append per batch leaves: per-file batches
/// (one sim each), a batch spanning both shards, an empty one, and a
/// replicated table.
#[test]
fn batched_append_leaves_each_shard_the_bytes_of_one_append_per_batch() {
    let batches = [
        halos_frame_range(0, 1, 30, 1),
        halos_frame_range(3, 4, 20, 2),
        halos_frame_range(0, 4, 5, 3),
        halos_frame_range(2, 2, 0, 4),
        halos_frame_range(1, 2, 40, 5),
    ];
    let dims = [dim_frame(), dim_frame()];
    let open = |tag: &str| {
        let layout = ShardLayout::build(2, 4, 0xfeed);
        let db = ShardedDb::create(&fresh_dir(tag), layout, infera_obs::Obs::new()).unwrap();
        db.create_table("halos", &batches[0].schema()).unwrap();
        db.create_table("dims", &dims[0].schema()).unwrap();
        db
    };
    let one_by_one = open("append_each");
    for b in &batches {
        one_by_one.append("halos", b).unwrap();
    }
    for d in &dims {
        one_by_one.append("dims", d).unwrap();
    }
    let batched = open("append_batched");
    batched
        .append_batches("halos", &batches.iter().collect::<Vec<_>>())
        .unwrap();
    batched
        .append_batches("dims", &dims.iter().collect::<Vec<_>>())
        .unwrap();

    let expected = tree_files(one_by_one.root());
    let got = tree_files(batched.root());
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>()
    );
    for (file, bytes) in &expected {
        assert!(got[file] == *bytes, "{} differs", file.display());
    }
    assert!(expected.keys().any(|f| f.ends_with("halos/meta.json")));
    for db in [&one_by_one, &batched] {
        assert_eq!(db.n_rows("halos").unwrap(), 30 + 20 + 20 + 40);
        std::fs::remove_dir_all(db.root()).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random data shapes and shard counts: the full query list must be
    /// bit-identical between single and sharded execution.
    #[test]
    fn random_data_is_bit_identical(
        n_shards in 1usize..=8,
        n_sims in 1u32..=10,
        rows_per_sim in 1usize..=60,
    ) {
        run_suite(n_shards, n_sims, rows_per_sim);
    }
}
