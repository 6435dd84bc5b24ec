//! Sample statistics and the process/disk readings the end-to-end metrics use.

use std::path::Path;

/// Harrell–Davis estimate of the `p` quantile of unsorted samples: every
/// order statistic, weighted by the mass a Beta(p(n+1), (1-p)(n+1))
/// distribution puts on its interval `[(i-1)/n, i/n]`.
///
/// A run here has tens of latencies, not thousands, and in a closed loop
/// they form one band per question; a single order statistic on the border
/// of two bands (the median of 8 questions is) jumps between them from run
/// to run. Averaging the neighbouring order statistics keeps the quantile's
/// meaning and halves that spread.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    // The unnormalised Beta density by the midpoint rule, in logs so that
    // large `a`, `b` do not overflow; the weights are normalised at the end.
    const STEPS: usize = 64;
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|k| {
            let x = (k as f64 + 0.5) / (n * STEPS) as f64;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = log_density
        .chunks(STEPS)
        .map(|c| c.iter().map(|l| (l - peak).exp()).sum())
        .collect();
    let total: f64 = weights.iter().sum();
    sorted.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

/// Median with the two middle samples averaged; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        infera_frame::stats::quantile(samples, 0.5)
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them; `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes and file count under `dir`, recursively.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (b, f) = dir_usage(&entry.path());
            bytes += b;
            files += f;
        } else {
            bytes += meta.len();
            files += 1;
        }
    }
    (bytes, files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantile_weights_the_neighbouring_order_statistics() {
        // Symmetric weights: the median of an arithmetic series is its middle.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 20.5).abs() < 1e-9);
        assert!((quantile(&[0.0, 1.0], 0.5) - 0.5).abs() < 1e-9);
        // Between the order statistics around the rank, and monotone in p.
        let q75 = quantile(&v, 0.75);
        assert!((29.0..32.0).contains(&q75), "{q75}");
        assert!(quantile(&v, 0.9) > q75);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // Two bands of equal size: the median lies between them, and one
        // sample changing sides moves it by a fraction of the gap.
        let bands = [100.0, 101.0, 102.0, 103.0, 200.0, 201.0, 202.0, 203.0];
        let shifted = [100.0, 101.0, 102.0, 199.0, 200.0, 201.0, 202.0, 203.0];
        let (m, s) = (quantile(&bands, 0.5), quantile(&shifted, 0.5));
        assert!((140.0..165.0).contains(&m), "{m}");
        assert!((s - m).abs() < 30.0, "{m} -> {s}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }
}
