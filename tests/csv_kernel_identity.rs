//! Identity gate on the CSV number kernel (DESIGN.md §18): artifact bytes
//! are a contract — ids, digests and `store_bytes_per_answer` hang on them —
//! so the kernel that renders them is held, on a fixed 200 000-value mix
//! shaped like the store's own frames, to `format!` and to the per-cell
//! `Value` writer it replaced. Run by name from `scripts/verify.sh` and
//! required present by `scripts/offline-check.sh`.

use infera::frame::{Column, DataFrame, Value};

/// SplitMix64: the mix must not depend on which `rand` is linked.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn float(&mut self) -> f64 {
        const SPECIALS: [f64; 10] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            9_223_372_036_854_775_808.0,
            1e23,
        ];
        match self.next() % 20 {
            // f32 columns widened, as the HACC reader hands them over:
            // positions, velocities, masses.
            0..=4 => f64::from((self.unit() * 256.0) as f32),
            5..=7 => f64::from(((self.unit() - 0.5) * 2000.0) as f32),
            8..=9 => f64::from(10f32.powf(10.0 + 5.0 * self.unit() as f32)),
            10..=11 => f64::from(f32::from_bits(self.next() as u32)),
            // Computed doubles: means, ratios, whole-number sums.
            12..=13 => (self.unit() - 0.5) * 1.0e6,
            14..=15 => ((self.unit() - 0.5) * 1.0e9).trunc(),
            // Exact ties, two-decimal values, raw bit patterns, specials.
            16 => (((self.next() >> 40) | 1) as f64) * 2f64.powi(-((self.next() % 60) as i32)),
            17 => (self.next() % 1_000_000) as f64 / 100.0,
            18 => f64::from_bits(self.next()),
            _ => SPECIALS[(self.next() % SPECIALS.len() as u64) as usize],
        }
    }

    fn int(&mut self) -> i64 {
        match self.next() % 8 {
            0..=2 => self.next() as i64,
            3..=5 => (self.next() % 2_000_000) as i64 - 1_000_000,
            6 => (self.next() as i64) >> (self.next() % 64),
            _ => [i64::MIN, i64::MAX, 0, -1][(self.next() % 4) as usize],
        }
    }
}

/// What the CSV writer promises for a float, said with `format!` alone.
fn std_float(v: f64) -> String {
    if v.is_nan() {
        String::new()
    } else if v.is_finite() && v.fract() == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The per-cell writer `to_csv_string` replaced (numeric cells need no
/// quoting): a `Value` and a `String` per cell.
fn reference_field(cell: Value) -> String {
    match cell {
        Value::F64(v) if v.is_finite() && v.fract() == 0.0 => format!("{v:.1}"),
        other => other.to_string(),
    }
}

#[test]
fn csv_numbers_are_byte_identical_to_std_and_to_the_reference_writer() {
    const ROWS: usize = 100_000;
    let mut mix = Mix(14);
    let floats: Vec<f64> = (0..ROWS).map(|_| mix.float()).collect();
    let ints: Vec<i64> = (0..ROWS).map(|_| mix.int()).collect();
    let widened = floats
        .iter()
        .filter(|v| v.fract() != 0.0 && f64::from(**v as f32) == **v)
        .count();
    assert!(
        widened > ROWS / 3,
        "the mix is mostly widened f32: {widened}"
    );

    let frame = DataFrame::from_columns([
        ("x", Column::F64(floats.clone())),
        ("tag", Column::I64(ints.clone())),
    ])
    .unwrap();
    let csv = frame.to_csv_string();

    let mut by_std = String::from("x,tag\n");
    let mut by_reference = String::from("x,tag\n");
    for row in 0..ROWS {
        by_std.push_str(&format!("{},{}\n", std_float(floats[row]), ints[row]));
        by_reference.push_str(&format!(
            "{},{}\n",
            reference_field(frame.cell("x", row).unwrap()),
            reference_field(frame.cell("tag", row).unwrap()),
        ));
    }
    // Compared line by line first, so a failure names the value.
    for (row, (got, want)) in csv.lines().zip(by_std.lines()).enumerate().skip(1) {
        assert_eq!(
            got,
            want,
            "row {row}: bits {:#018x}",
            floats[row - 1].to_bits()
        );
    }
    assert_eq!(csv, by_std);
    assert_eq!(csv, by_reference);

    // And the bytes still mean the numbers: every finite float reads back
    // to the bit (a missing one as missing).
    let back = DataFrame::from_csv_string(&csv).unwrap();
    let read = back.column("x").unwrap().as_f64_slice().unwrap();
    for (a, b) in floats.iter().zip(read) {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{a:?} vs {b:?}"
        );
    }
    assert_eq!(
        back.column("tag").unwrap().as_i64_slice().unwrap(),
        ints.as_slice()
    );
}
