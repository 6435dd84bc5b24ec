//! Property-based tests for the dataframe core: invariants that must hold
//! for arbitrary data, not just hand-picked cases.

use infera_frame::{decimal, AggKind, AggSpec, Column, DataFrame, JoinKind, SortOrder};
use proptest::prelude::*;

/// Arbitrary small frame: i64 key column, f64 value column (with NaNs),
/// and a low-cardinality string group column.
fn arb_frame() -> impl Strategy<Value = DataFrame> {
    (1usize..60).prop_flat_map(|rows| {
        (
            proptest::collection::vec(any::<i64>(), rows),
            proptest::collection::vec(
                prop_oneof![
                    4 => -1.0e12f64..1.0e12,
                    1 => Just(f64::NAN),
                ],
                rows,
            ),
            proptest::collection::vec(0u8..4, rows),
        )
            .prop_map(|(keys, vals, groups)| {
                DataFrame::from_columns([
                    ("key", Column::I64(keys)),
                    ("val", Column::F64(vals)),
                    (
                        "grp",
                        Column::Str(groups.into_iter().map(|g| format!("g{g}")).collect()),
                    ),
                ])
                .expect("equal lengths")
            })
    })
}

proptest! {
    /// CSV serialization round-trips schema and values exactly (NaN
    /// compares as missing on both sides).
    #[test]
    fn csv_roundtrip(df in arb_frame()) {
        let text = df.to_csv_string();
        let back = DataFrame::from_csv_string(&text).unwrap();
        prop_assert_eq!(back.schema(), df.schema());
        prop_assert_eq!(back.n_rows(), df.n_rows());
        for row in 0..df.n_rows() {
            let a = df.cell("val", row).unwrap();
            let b = back.cell("val", row).unwrap();
            prop_assert!(a == b || (a.is_missing() && b.is_missing()),
                "row {}: {:?} vs {:?}", row, a, b);
            prop_assert_eq!(df.cell("key", row).unwrap(), back.cell("key", row).unwrap());
        }
    }

    /// Sorting is a permutation (same multiset of keys) and is ordered.
    #[test]
    fn sort_is_ordered_permutation(df in arb_frame()) {
        let sorted = df.sort_by(&[("key", SortOrder::Ascending)]).unwrap();
        prop_assert_eq!(sorted.n_rows(), df.n_rows());
        let mut original: Vec<i64> =
            df.column("key").unwrap().as_i64_slice().unwrap().to_vec();
        let mut after: Vec<i64> =
            sorted.column("key").unwrap().as_i64_slice().unwrap().to_vec();
        prop_assert!(after.windows(2).all(|w| w[0] <= w[1]));
        original.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(original, after);
    }

    /// Filtering returns exactly the rows matching the predicate, in
    /// original order.
    #[test]
    fn filter_matches_scan(df in arb_frame(), threshold in -1.0e12f64..1.0e12) {
        use infera_frame::expr::BinOp;
        use infera_frame::Expr;
        let pred = Expr::bin(Expr::col("val"), BinOp::Gt, Expr::lit(threshold));
        let filtered = df.filter_expr(&pred).unwrap();
        let vals = df.column("val").unwrap().as_f64_slice().unwrap();
        let expected: Vec<usize> =
            (0..df.n_rows()).filter(|&i| vals[i] > threshold).collect();
        prop_assert_eq!(filtered.n_rows(), expected.len());
        for (out_row, &src_row) in expected.iter().enumerate() {
            prop_assert_eq!(
                filtered.cell("key", out_row).unwrap(),
                df.cell("key", src_row).unwrap()
            );
        }
    }

    /// Group-by count partitions the rows: counts sum to n_rows and every
    /// key is distinct.
    #[test]
    fn group_by_partitions(df in arb_frame()) {
        let g = df
            .group_by(&["grp"], &[AggSpec::new("*", AggKind::Count).with_alias("n")])
            .unwrap();
        let total: i64 = g.column("n").unwrap().as_i64_slice().unwrap().iter().sum();
        prop_assert_eq!(total as usize, df.n_rows());
        let mut keys: Vec<String> =
            g.column("grp").unwrap().as_str_slice().unwrap().to_vec();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(before, keys.len());
    }

    /// Mean lies within [min, max] of the non-NaN values.
    #[test]
    fn aggregate_bounds(df in arb_frame()) {
        let mean = df.aggregate("val", AggKind::Mean).unwrap();
        let min = df.aggregate("val", AggKind::Min).unwrap();
        let max = df.aggregate("val", AggKind::Max).unwrap();
        if !mean.is_nan() {
            prop_assert!(min <= mean + 1e-6 && mean <= max + 1e-6,
                "min={} mean={} max={}", min, mean, max);
        }
    }

    /// Inner self-join on a unique key returns exactly the original rows.
    #[test]
    fn self_join_on_unique_key(rows in 1usize..40) {
        let keys: Vec<i64> = (0..rows as i64).collect();
        let vals: Vec<f64> = (0..rows).map(|i| i as f64 * 1.5).collect();
        let df = DataFrame::from_columns([
            ("key", Column::I64(keys)),
            ("val", Column::F64(vals)),
        ]).unwrap();
        let j = df.join(&df, "key", "key", JoinKind::Inner).unwrap();
        prop_assert_eq!(j.n_rows(), rows);
        for r in 0..rows {
            prop_assert_eq!(j.cell("val", r).unwrap(), j.cell("val_right", r).unwrap());
        }
    }

    /// Left join never loses left rows.
    #[test]
    fn left_join_preserves_left(df in arb_frame(), other in arb_frame()) {
        let j = df.join(&other, "key", "key", JoinKind::Left).unwrap();
        prop_assert!(j.n_rows() >= df.n_rows());
    }

    /// head(n) + tail(rows-n) partition the frame.
    #[test]
    fn head_tail_partition(df in arb_frame(), frac in 0.0f64..1.0) {
        let n = (df.n_rows() as f64 * frac) as usize;
        let mut head = df.head(n);
        let tail = df.tail(df.n_rows() - n);
        head.vstack(&tail).unwrap();
        prop_assert_eq!(head.n_rows(), df.n_rows());
        for r in 0..df.n_rows() {
            prop_assert_eq!(head.cell("key", r).unwrap(), df.cell("key", r).unwrap());
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(df in arb_frame(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = df.quantile_of("val", lo).unwrap();
        let b = df.quantile_of("val", hi).unwrap();
        if !a.is_nan() && !b.is_nan() {
            prop_assert!(a <= b + 1e-9, "q{}={} > q{}={}", lo, a, hi, b);
        }
    }
}

// ---------------------------------------------------------------- CSV bytes

/// The per-cell writer `to_csv_string` replaced — a `Value` and a `String`
/// per cell, every field scanned for quoting — kept as the reference the
/// typed writer must match byte for byte: artifact ids are hashes of
/// these bytes.
fn reference_csv(df: &DataFrame) -> String {
    fn write_field(out: &mut String, s: &str) {
        if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
            out.push('"');
            for c in s.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(s);
        }
    }
    let mut out = String::new();
    for (i, name) in df.names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, name);
    }
    out.push('\n');
    for row in 0..df.n_rows() {
        for (i, (_, col)) in df.iter_columns().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let text = match col.get(row) {
                infera_frame::Value::F64(v) if v.is_finite() && v.fract() == 0.0 => {
                    format!("{v:.1}")
                }
                v => v.to_string(),
            };
            write_field(&mut out, &text);
        }
        out.push('\n');
    }
    out
}

/// Floats around every branch of the writer: missing, infinite, signed
/// zero, whole numbers below and beyond 1e16 and at the i64 boundary,
/// fractions, subnormals.
fn arb_csv_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(0.0f64),
        1 => Just(-0.0f64),
        1 => Just(9_223_372_036_854_775_808.0f64),
        1 => Just(-9_223_372_036_854_775_808.0f64),
        1 => Just(9_223_372_036_854_774_784.0f64),
        1 => Just(9_007_199_254_740_993.0f64),
        1 => Just(f64::MAX),
        1 => Just(f64::MIN_POSITIVE / 8.0),
        4 => (-1.0e16f64..1.0e16).prop_map(f64::trunc),
        3 => (1.0e16f64..1.0e22).prop_map(|v| -v.trunc()),
        2 => (1.0e22f64..1.0e300).prop_map(f64::trunc),
        4 => -1.0e6f64..1.0e6,
        3 => any::<f64>(),
    ]
}

fn arb_csv_text() -> impl Strategy<Value = String> {
    const ALPHABET: [char; 10] = ['a', 'Z', '7', ' ', ',', '"', '\n', '\r', 'é', '.'];
    proptest::collection::vec(0usize..ALPHABET.len(), 0..7)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Frames of all four dtypes, 0 to 150 rows (the writer sizes its buffer
/// at row 64), under headers that do and do not need quoting.
fn arb_csv_frame() -> impl Strategy<Value = DataFrame> {
    (0usize..150, 0usize..4).prop_flat_map(|(rows, header)| {
        (
            proptest::collection::vec(arb_csv_f64(), rows),
            proptest::collection::vec(
                prop_oneof![6 => any::<i64>(), 1 => Just(i64::MIN), 1 => Just(i64::MAX), 2 => -9i64..10],
                rows,
            ),
            proptest::collection::vec(arb_csv_text(), rows),
            proptest::collection::vec(any::<bool>(), rows),
        )
            .prop_map(move |(floats, ints, texts, flags)| {
                let names = [
                    ["f", "i", "s", "b"],
                    ["mass, total", "i", "say \"hi\"", "b"],
                    ["f", "line\nbreak", "s", "cr\rhere"],
                    ["é", "", " ", "\""],
                ][header];
                DataFrame::from_columns([
                    (names[0], Column::F64(floats)),
                    (names[1], Column::I64(ints)),
                    (names[2], Column::Str(texts)),
                    (names[3], Column::Bool(flags)),
                ])
                .expect("equal lengths, distinct names")
            })
    })
}

proptest! {
    /// The typed single-pass writer produces the reference writer's bytes.
    #[test]
    fn csv_bytes_match_reference_writer(df in arb_csv_frame()) {
        prop_assert_eq!(df.to_csv_string(), reference_csv(&df));
    }

    /// Column by column too: a one-column frame has no separators to hide
    /// a misplaced byte behind.
    #[test]
    fn csv_float_column_matches_reference(vals in proptest::collection::vec(arb_csv_f64(), 0..200)) {
        let df = DataFrame::from_columns([("v", Column::F64(vals))]).unwrap();
        prop_assert_eq!(df.to_csv_string(), reference_csv(&df));
    }
}

#[test]
fn csv_of_empty_frames_matches_reference() {
    let no_columns = DataFrame::new();
    assert_eq!(no_columns.to_csv_string(), "\n");
    assert_eq!(no_columns.to_csv_string(), reference_csv(&no_columns));
    let no_rows = DataFrame::from_columns([
        ("a,b", Column::F64(Vec::new())),
        ("c", Column::Str(Vec::new())),
    ])
    .unwrap();
    assert_eq!(no_rows.to_csv_string(), "\"a,b\",c\n");
    assert_eq!(no_rows.to_csv_string(), reference_csv(&no_rows));
}

// ----------------------------------------------------------- decimal kernel

fn kernel_f64(v: f64) -> String {
    let mut out = Vec::new();
    decimal::push_f64(&mut out, v);
    String::from_utf8(out).expect("digits")
}

/// The floats `arb_csv_f64` is thin on, weighted towards what the store
/// actually renders.
fn arb_kernel_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        // The production distribution: f32 columns widened to f64 — any
        // magnitude, and the range halo positions and velocities live in.
        6 => any::<f32>().prop_map(f64::from),
        4 => (-1.0e4f32..1.0e4).prop_map(f64::from),
        // Where exact ties between two shortest candidates come from: an
        // odd 24-bit mantissa × 2^-n has n fractional digits, the last a 5.
        4 => (0u32..1 << 23, 0i32..80).prop_map(|(m, n)| f64::from(2 * m + 1) * 2f64.powi(-n)),
        // The first and last two mantissas of every binary exponent (the
        // first has the narrow interval below it), subnormals included.
        3 => (0u64..2047, 0usize..4, any::<bool>()).prop_map(|(exponent, which, negative)| {
            let mantissa = [0, 1, (1 << 52) - 2, (1 << 52) - 1][which];
            f64::from_bits((u64::from(negative) << 63) | (exponent << 52) | mantissa)
        }),
        // Powers of ten and their neighbours.
        3 => (-323i32..309, -1i64..2).prop_map(|(power, ulps)| {
            let exact: f64 = format!("1e{power}").parse().expect("a float");
            f64::from_bits((exact.to_bits() as i64 + ulps) as u64)
        }),
        2 => any::<f64>(),
        2 => any::<u64>().prop_map(f64::from_bits),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The kernel prints what `{}` prints, for every float.
    #[test]
    fn kernel_floats_match_std(v in arb_kernel_f64()) {
        prop_assert_eq!(kernel_f64(v), format!("{v}"), "bits {:#018x}", v.to_bits());
        prop_assert_eq!(kernel_f64(-v), format!("{}", -v), "bits {:#018x}", (-v).to_bits());
    }

    /// Inside its domain the digits read back as the value and carry no
    /// trailing zero; outside it there are none, and `push_f64` went
    /// through `{}` (covered by the equality above).
    #[test]
    fn kernel_digits_read_back(v in arb_kernel_f64()) {
        match decimal::shortest_decimal(v) {
            Some((digits, exp10)) => {
                prop_assert!(v.is_normal());
                prop_assert!(digits % 10 != 0 && digits < 100_000_000_000_000_000);
                let back: f64 = format!("{digits}e{exp10}").parse().expect("a float");
                prop_assert_eq!(back.to_bits(), v.abs().to_bits());
            }
            None => prop_assert!(!v.is_normal()),
        }
    }

    #[test]
    fn kernel_ints_match_std(
        i in prop_oneof![
            6 => any::<i64>(),
            3 => any::<i64>().prop_map(|v| v >> 40),
            2 => -1000i64..1000,
            1 => Just(i64::MIN),
            1 => Just(i64::MAX),
        ],
        shift in 0u32..64,
    ) {
        for v in [i, i >> shift] {
            let mut out = Vec::new();
            decimal::push_i64(&mut out, v);
            prop_assert_eq!(String::from_utf8(out).expect("digits"), format!("{v}"));
        }
    }
}

/// Every f32 of one binade, widened: 2^23 consecutive mantissas, so no
/// rounding case of the production distribution hides between samples.
/// [512, 1024) because it is the binade of exact ties: an odd mantissa
/// there is a multiple of 2^-14 with 14 fractional digits, the last a 5,
/// and a double that size resolves 13 — so each of the 2^22 odd mantissas
/// sits exactly halfway between its two 16-digit candidates, and
/// round-half-even would print half of them differently from std.
#[test]
fn kernel_matches_std_on_every_f32_of_a_binade() {
    use std::fmt::Write as _;
    let (mut kernel, mut std_text) = (Vec::new(), String::new());
    for mantissa in 0..1u32 << 23 {
        let v = f64::from(f32::from_bits(512f32.to_bits() | mantissa));
        kernel.clear();
        std_text.clear();
        decimal::push_f64(&mut kernel, v);
        write!(std_text, "{v}").expect("a String");
        assert_eq!(kernel, std_text.as_bytes(), "mantissa {mantissa:#x}: {v:?}");
    }
}
