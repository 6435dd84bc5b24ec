//! Decimal text of numbers — byte for byte what `{}` prints, without the
//! `fmt` machinery: an integer writer that emits two digits per division,
//! and the shortest digits that read back as the same `f64`.
//!
//! The float conversion is Schubfach (R. Giulietti, "The Schubfach way to
//! render doubles", 2020) in the 128-bit form of A. Bolz's `schubfach_64`:
//! scale the value and its two rounding-interval boundaries by a power of
//! ten taken from a table of 128-bit approximations, rounding each product
//! to odd so that one sticky bit keeps every later comparison exact, then
//! pick the shortest decimal inside the interval. Where two candidates of
//! equal length are equally near, std (Grisu falling back to Dragon) takes
//! the one of larger magnitude, and so does this; the tests hold the two
//! against each other rather than to that sentence.
//!
//! Zero, subnormals, infinities and NaN are outside the kernel's domain:
//! [`shortest_decimal`] returns `None` for them and [`push_f64`] formats
//! them with `{}`.

use std::io::Write as _;
use std::sync::OnceLock;

const DIGIT_PAIRS: &[u8; 200] = b"\
      0001020304050607080910111213141516171819\
      2021222324252627282930313233343536373839\
      4041424344454647484950515253545556575859\
      6061626364656667686970717273747576777879\
      8081828384858687888990919293949596979899";

/// Longest decimal text of a `u64`.
const U64_DIGITS: usize = 20;

/// Write the digits of `v` at the end of `buf`; they start at the index
/// returned.
fn digits_at_end(buf: &mut [u8; U64_DIGITS], mut v: u64) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

/// Append `v` as `{}` prints it.
pub fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    let mut buf = [0u8; U64_DIGITS];
    let at = digits_at_end(&mut buf, v.unsigned_abs());
    out.extend_from_slice(&buf[at..]);
}

/// Append `v` as `{}` prints it: shortest round-trip digits, never an
/// exponent, no ".0" on whole numbers.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    let Some((digits, exp10)) = shortest_decimal(v) else {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{v}");
        return;
    };
    if v < 0.0 {
        out.push(b'-');
    }
    let mut buf = [0u8; U64_DIGITS];
    let at = digits_at_end(&mut buf, digits);
    let digits = &buf[at..];
    // Digits in front of the decimal point (negative: zeros behind it).
    let point = digits.len() as i32 + exp10;
    if exp10 >= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + exp10 as usize, b'0');
    } else if point > 0 {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    }
}

/// The shortest decimal `digits × 10^exp10` that reads back as `|v|`
/// (`digits` not a multiple of ten), the nearest to `|v|` where several
/// are that short. `None` when `v` is zero, subnormal, infinite or NaN.
pub fn shortest_decimal(v: f64) -> Option<(u64, i32)> {
    const FRACTION_BITS: u32 = 52;
    let bits = v.to_bits();
    let fraction = bits & ((1 << FRACTION_BITS) - 1);
    let biased = ((bits >> FRACTION_BITS) & 0x7ff) as i32;
    if biased == 0 || biased == 0x7ff {
        return None;
    }
    // |v| = c × 2^q.
    let c = fraction | (1 << FRACTION_BITS);
    let q = biased - 1075;
    // A decimal on the boundary of the rounding interval reads back as `v`
    // only if `c` is even (ties round to even).
    let odd = c & 1;
    // Just below a power of two floats are twice as dense, so the interval
    // reaches half as far down.
    let narrow_below = fraction == 0 && biased > 1;

    // The value and the interval's ends, in quarter units of the last place.
    let cbl = 4 * c - 2 + u64::from(narrow_below);
    let cb = 4 * c;
    let cbr = 4 * c + 2;

    // k = floor(log10(2^q)), or of 3/4 × 2^q for the narrow interval: with
    // it 10^k is no longer than the interval, so the interval holds a
    // multiple of 10^k, and at most one of 10^(k+1).
    let k = (q * 1_262_611 - if narrow_below { 524_031 } else { 0 }) >> 22;
    let h = q + floor_log2_pow10(-k) + 1;
    let g = pow10_table()[(-k - MIN_POW10) as usize];
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    let lower = vbl + odd;
    let upper = vbr - odd;

    // s = floor(|v| / 10^k); a normal double gives it 16 or 17 digits.
    let s = vb / 4;
    // One digit fewer, if exactly one multiple of 10^(k+1) is inside.
    let sp = s / 10;
    let up_inside = lower <= 40 * sp;
    let wp_inside = 40 * sp + 40 <= upper;
    if up_inside != wp_inside {
        return Some(without_trailing_zeros(sp + u64::from(wp_inside), k + 1));
    }
    let u_inside = lower <= 4 * s;
    let w_inside = 4 * s + 4 <= upper;
    if u_inside != w_inside {
        return Some(without_trailing_zeros(s + u64::from(w_inside), k));
    }
    // Both inside: the nearer, and on an exact tie the larger, as std does.
    let round_up = vb >= 4 * s + 2;
    Some(without_trailing_zeros(s + u64::from(round_up), k))
}

fn without_trailing_zeros(mut digits: u64, mut exp10: i32) -> (u64, i32) {
    while digits % 100 == 0 {
        digits /= 100;
        exp10 += 2;
    }
    if digits % 10 == 0 {
        digits /= 10;
        exp10 += 1;
    }
    (digits, exp10)
}

/// `floor(cp × g / 2^128)`, its lowest bit set if anything was cut off.
/// `g` may exceed the power of ten it stands for by less than one unit, so
/// the product may be too large by less than `cp`: a cut-off part of 0 or
/// 1 (in units of 2^64) is that excess, not a remainder.
fn round_to_odd(g: (u64, u64), cp: u64) -> u64 {
    let low = u128::from(cp) * u128::from(g.1);
    let high = u128::from(cp) * u128::from(g.0) + (low >> 64);
    (high >> 64) as u64 | u64::from(high as u64 > 1)
}

/// `floor(log2(10^k))` for |k| ≤ 1233.
fn floor_log2_pow10(k: i32) -> i32 {
    (k * 1_741_647) >> 19
}

/// The powers of ten the doubles need: 10^-292 scales the largest, 10^324
/// the smallest subnormal.
const MIN_POW10: i32 = -292;
const MAX_POW10: i32 = 324;

/// For each k in `MIN_POW10..=MAX_POW10`, `ceil(10^k × 2^(127 − e))` with
/// `e = floor(log2(10^k))` — the leading 128 bits of 10^k, rounded up — as
/// (high, low) words. Built at first use from exact integer arithmetic:
/// the non-negative powers by repeated multiplication, the negative ones
/// by repeated division of a power of two large enough that every
/// quotient keeps 128 bits (`floor(floor(x / 10) / 10) = floor(x / 100)`,
/// so no division rounds twice).
fn pow10_table() -> &'static [(u64, u64)] {
    static TABLE: OnceLock<Vec<(u64, u64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        // 2^1152 / 10^292 still has 182 bits.
        const NUMERATOR_BITS: usize = 1152;
        let mut table = vec![(0, 0); (MAX_POW10 - MIN_POW10 + 1) as usize];
        let entry = |g: u128| ((g >> 64) as u64, g as u64);

        let mut quotient = vec![0u64; NUMERATOR_BITS / 64 + 1];
        quotient[NUMERATOR_BITS / 64] = 1;
        for k in (MIN_POW10..0).rev() {
            let mut rem = 0u128;
            for limb in quotient.iter_mut().rev() {
                let cur = (rem << 64) | u128::from(*limb);
                *limb = (cur / 10) as u64;
                rem = cur % 10;
            }
            // floor(2^(127 − e) / 10^-k) + 1: ten never divides a power of two.
            let shift = NUMERATOR_BITS as i32 - 127 + floor_log2_pow10(k);
            table[(k - MIN_POW10) as usize] = entry(bits_from(&quotient, shift as usize) + 1);
        }

        let mut power = vec![1u64];
        for k in 0..=MAX_POW10 {
            let shift = floor_log2_pow10(k) - 127;
            let g = if shift <= 0 {
                bits_from(&power, 0) << -shift
            } else {
                let shift = shift as usize;
                let cut_off = power[..shift / 64].iter().any(|&limb| limb != 0)
                    || power[shift / 64] & ((1 << (shift % 64)) - 1) != 0;
                bits_from(&power, shift) + u128::from(cut_off)
            };
            table[(k - MIN_POW10) as usize] = entry(g);
            times_small(&mut power, 10);
        }
        table
    })
}

/// Multiply a little-endian big integer by `m`.
fn times_small(limbs: &mut Vec<u64>, m: u64) {
    let mut carry = 0u128;
    for limb in limbs.iter_mut() {
        let cur = u128::from(*limb) * u128::from(m) + carry;
        *limb = cur as u64;
        carry = cur >> 64;
    }
    if carry != 0 {
        limbs.push(carry as u64);
    }
}

/// Bits `shift..shift + 128` of a little-endian big integer.
fn bits_from(limbs: &[u64], shift: usize) -> u128 {
    let limb = |i: usize| u128::from(limbs.get(i).copied().unwrap_or(0));
    let (word, bit) = (shift / 64, shift % 64);
    let low = limb(word) | (limb(word + 1) << 64);
    if bit == 0 {
        low
    } else {
        (low >> bit) | (limb(word + 2) << (128 - bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    // Just enough big-integer arithmetic to check the table by
    // multiplication — its negative powers are built by division.
    fn big(v: u128) -> Vec<u64> {
        vec![v as u64, (v >> 64) as u64]
    }

    fn times_pow2(limbs: &mut Vec<u64>, n: u32) {
        limbs.splice(0..0, std::iter::repeat(0).take(n as usize / 64));
        times_small(limbs, 1 << (n % 64));
    }

    fn times_pow10(limbs: &mut Vec<u64>, n: u32) {
        for _ in 0..n {
            times_small(limbs, 10);
        }
    }

    fn compare(a: &[u64], b: &[u64]) -> Ordering {
        let limb = |x: &[u64], i: usize| x.get(i).copied().unwrap_or(0);
        (0..a.len().max(b.len()))
            .rev()
            .map(|i| limb(a, i).cmp(&limb(b, i)))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// g − 1 < 10^k × 2^(127 − e) ≤ g, with whichever of the two powers
    /// has a negative exponent moved to the other side.
    #[test]
    fn every_table_entry_is_the_exact_power_rounded_up() {
        let table = pow10_table();
        assert_eq!(table.len(), 617);
        for k in MIN_POW10..=MAX_POW10 {
            let (high, low) = table[(k - MIN_POW10) as usize];
            assert!(high >> 63 == 1, "10^{k}: 128 significant bits");
            let g = (u128::from(high) << 64) | u128::from(low);
            let up = 127 - floor_log2_pow10(k);
            // exact = 10^max(k,0) × 2^max(up,0); scale = 10^max(-k,0) × 2^max(-up,0).
            let mut exact = big(1);
            times_pow10(&mut exact, k.max(0) as u32);
            times_pow2(&mut exact, up.max(0) as u32);
            let scaled = |g: u128| {
                let mut n = big(g);
                times_pow10(&mut n, (-k).max(0) as u32);
                times_pow2(&mut n, (-up).max(0) as u32);
                n
            };
            assert!(compare(&scaled(g - 1), &exact).is_lt(), "10^{k}: too large");
            assert!(compare(&exact, &scaled(g)).is_le(), "10^{k}: too small");
        }
        assert_eq!(table[(0 - MIN_POW10) as usize], (1 << 63, 0));
        assert_eq!(table[(1 - MIN_POW10) as usize], (0xa000_0000_0000_0000, 0));
    }

    fn std_f64(v: f64) -> String {
        format!("{v}")
    }

    fn kernel_f64(v: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn hand_picked_values_match_std() {
        for v in [
            0.1,
            0.5,
            1.5,
            -2.25,
            1.0,
            100.0,
            1e22,
            1e23,
            123456.789,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            0.3,
            2.0f64.powi(-30),
            f64::from(0.1f32),
            f64::from(16_777_215f32 / 1024.0),
            9_007_199_254_740_993.0,
            4_503_599_627_370_495.5,
        ] {
            assert_eq!(kernel_f64(v), std_f64(v));
            assert_eq!(kernel_f64(-v), std_f64(-v));
        }
    }

    #[test]
    fn values_outside_the_domain_reach_std() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            1e-320,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits((1 << 52) - 1),
        ] {
            assert_eq!(shortest_decimal(v), None, "{v:e}");
            assert_eq!(kernel_f64(v), std_f64(v));
        }
        assert!(shortest_decimal(f64::MIN_POSITIVE).is_some());
        assert!(shortest_decimal(f64::MAX).is_some());
    }

    #[test]
    fn integers_match_std() {
        for v in [
            0,
            1,
            -1,
            9,
            10,
            99,
            100,
            101,
            12_345,
            -987_654_321,
            i64::MAX,
            i64::MIN,
        ] {
            let mut out = Vec::new();
            push_i64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), format!("{v}"));
        }
    }
}
