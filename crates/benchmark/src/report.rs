//! `benchmark all` — every workload, untraced on each seed and traced on the
//! first, each run in its own child process, gathered into one report — and `benchmark compare`, which
//! reads two such reports and says which metrics moved beyond their bounds.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::plan::{self, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::Args;
use serde_json::Value;
use std::path::Path;
use std::process::{Command, ExitCode};

/// What was built and where it runs; written into every run's detail and
/// into the report, so that numbers are never read without their conditions.
pub fn header(seed: u64, seconds: f64, smoke: bool) -> Json {
    let build = build_stamp();
    let cores = host_cores();
    // The offline stub of rayon runs every parallel iterator on the calling
    // thread; the published crate sizes its pool from this variable or the
    // core count.
    let rayon_threads = if build.flavour == "offline-stubs" {
        1
    } else {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(cores)
    };
    Json::obj([
        ("host_cores", Json::Int(cores as u64)),
        ("rayon_threads", Json::Int(rayon_threads as u64)),
        ("build_flavour", Json::str(build.flavour)),
        ("rustc", Json::str(build.rustc)),
        ("commit", Json::str(build.commit)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        (
            "ensemble",
            plan::ensemble_json(&plan::ensemble_spec(seed, smoke)),
        ),
        (
            "workloads",
            Json::obj(WORKLOADS.iter().map(|w| (w.name, w.params_json()))),
        ),
        (
            "bounds",
            Json::obj(END_TO_END.iter().map(|m| (m.name, Json::Num(m.bound)))),
        ),
    ])
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct BuildStamp {
    flavour: String,
    rustc: String,
    commit: String,
}

/// `build.sh` leaves `<binary>.flavour` beside the binary it builds: the
/// flavour, `rustc -V` and the commit, one per line. A binary built some
/// other way (plain `cargo build`) has no stamp and says so.
fn build_stamp() -> BuildStamp {
    let stamp = std::env::current_exe()
        .ok()
        .and_then(|exe| std::fs::read_to_string(format!("{}.flavour", exe.display())).ok())
        .unwrap_or_default();
    let mut lines = stamp.lines().map(str::trim);
    let mut next = |fallback: &str| {
        lines
            .next()
            .filter(|l| !l.is_empty())
            .unwrap_or(fallback)
            .to_string()
    };
    let unstamped = if cfg!(debug_assertions) {
        "cargo-debug"
    } else {
        "cargo-release"
    };
    BuildStamp {
        flavour: next(unstamped),
        rustc: next("unknown"),
        commit: next("unknown"),
    }
}

/// Run one workload once in a child process; returns its result line and
/// its detail file, parsed.
fn child_run(
    w: &plan::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail_path =
        crate::run::scratch_root().join(format!("detail-{}-{}.json", w.name, std::process::id()));
    std::fs::create_dir_all(crate::run::scratch_root())
        .map_err(|e| format!("mkdir scratch: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail_path);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    // The child's own listing of its metrics is noise here unless it failed.
    let result: Value = serde_json::from_str(line).map_err(|e| {
        format!(
            "{} (trace {}) printed no result ({e}); exit {:?}\n{}",
            w.name,
            u8::from(trace),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let detail = std::fs::read_to_string(&detail_path)
        .map_err(|e| format!("read {}: {e}", detail_path.display()))
        .and_then(|text| {
            serde_json::from_str::<Value>(&text).map_err(|e| format!("detail of {}: {e}", w.name))
        })?;
    let _ = std::fs::remove_file(&detail_path);
    Ok((result, detail))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `"name": {"unit": .., "values": [..]}` for each metric of `table`.
fn gather<'a>(table: impl Iterator<Item = (&'a str, &'a str)>, runs: &[Value]) -> Json {
    Json::obj(table.map(|(name, unit)| {
        let values = runs
            .iter()
            .filter_map(|r| metric_value(r, name))
            .map(Json::Num)
            .collect();
        (
            name,
            Json::obj([("unit", Json::str(unit)), ("values", Json::Arr(values))]),
        )
    }))
}

fn digest_list(detail: &Value) -> Vec<String> {
    let rows = detail.get("digests").and_then(Value::as_array);
    let digest = |row: &Value| row.get(2).and_then(Value::as_str).unwrap_or("").to_string();
    rows.map(|rows| rows.iter().map(digest).collect())
        .unwrap_or_default()
}

pub fn all(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let seed: u64 = args.parsed("--seed", plan::DEFAULT_SEED)?;
    let seconds: f64 = args.parsed(
        "--seconds",
        if smoke {
            plan::SMOKE_SECONDS
        } else {
            plan::DEFAULT_SECONDS
        },
    )?;
    let repeat: u64 = args.parsed("--repeat", 1)?;
    let mut failed_total = 0;
    let mut sections = Vec::new();
    let mut heavy_serial_digests: Vec<Vec<String>> = Vec::new();
    for w in &WORKLOADS {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for rep in 0..repeat.max(1) {
            // Every seed runs untraced; the first also runs traced.
            for trace in [false, true].into_iter().take(if rep == 0 { 2 } else { 1 }) {
                eprintln!(
                    "benchmark: {} seed {} trace {}",
                    w.name,
                    seed + rep,
                    u8::from(trace)
                );
                let (result, detail) = child_run(w, seed + rep, seconds, trace, smoke)?;
                attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
                if !trace {
                    // Byte-identical requests must give byte-identical
                    // answers whether the session is sharded or not.
                    let digests = digest_list(&detail);
                    match w.name {
                        "heavy_serial" => heavy_serial_digests.push(digests),
                        "heavy_sharded" => {
                            let serial = &heavy_serial_digests[rep as usize];
                            let differing =
                                serial.iter().zip(&digests).filter(|(a, b)| a != b).count()
                                    + serial.len().abs_diff(digests.len());
                            if differing > 0 {
                                eprintln!("benchmark: {differing} heavy_sharded answers differ from heavy_serial");
                            }
                            failed += differing as u64;
                        }
                        _ => {}
                    }
                }
                if trace { &mut traced } else { &mut untraced }.push(result);
            }
        }
        failed_total += failed;
        sections.push((
            w.name,
            Json::obj([
                ("attempted", Json::Int(attempted)),
                ("failed", Json::Int(failed)),
                (
                    "failed_frac",
                    Json::Num(failed as f64 / (attempted as f64).max(1.0)),
                ),
                (
                    "end_to_end",
                    gather(END_TO_END.iter().map(|m| (m.name, m.unit)), &untraced),
                ),
                ("per_layer", gather(PER_LAYER.iter().copied(), &traced)),
            ]),
        ));
    }
    let report = Json::obj([
        ("header", header(seed, seconds, smoke)),
        ("workloads", Json::obj(sections)),
    ]);
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, report.pretty()).map_err(|e| format!("write {path}: {e}"))?
        }
        None => print!("{}", report.pretty()),
    }
    Ok(if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn values_of(report: &Value, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    let values = report.get("workloads").and_then(|w| {
        w.get(workload)?
            .get(section)?
            .get(metric)?
            .get("values")?
            .as_array()
    });
    values
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Interquartile range over the median; `None` below two runs.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// One row's verdict: `regressed` when B's median is worse than A's by more
/// than the bound; `unresolved` when a side is missing, or when the runs of
/// either side spread wider than the bound — unless every run of B reads
/// better than every run of A; `ok` otherwise.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    if a.is_empty() || b.is_empty() {
        return "unresolved";
    }
    let (base, new) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (new - base) / base.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (base - new) / base.abs().max(f64::MIN_POSITIVE),
    };
    if worse_by > bound {
        return "regressed";
    }
    let wide = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    let b_beats_a = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if wide && !b_beats_a {
        "unresolved"
    } else {
        "ok"
    }
}

pub fn compare(a_path: &Path, b_path: &Path, layers: bool) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let head = |r: &Value, key: &str| {
        r.get("header")
            .and_then(|h| h.get(key))
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    let (flavour_a, flavour_b) = (head(&a, "build_flavour"), head(&b, "build_flavour"));
    if flavour_a != flavour_b {
        return Err(format!(
            "A was built as `{flavour_a}` and B as `{flavour_b}`; numbers from different build flavours are not comparable"
        ));
    }
    println!("A = {} (commit {})", a_path.display(), head(&a, "commit"));
    println!("B = {} (commit {})", b_path.display(), head(&b, "commit"));
    println!("build flavour {flavour_a}; ratio = B / A, base A");
    println!(
        "{:<14} {:<40} {:>14} {:>14} {:>8} {:>6} {:>8} {:>8}  {}",
        "workload", "metric", "A (base)", "B", "B/A", "bound", "spreadA", "spreadB", "status"
    );
    let fmt_spread = |v: &[f64]| spread(v).map_or("-".to_string(), |s| format!("{s:.4}"));
    let mut regressed = 0;
    for w in &WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (
                values_of(&a, w.name, "end_to_end", m.name),
                values_of(&b, w.name, "end_to_end", m.name),
            );
            let status = verdict(&va, &vb, m.better, m.bound);
            regressed += usize::from(status == "regressed");
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<14} {:<40} {:>14.4} {:>14.4} {:>8.4} {:>6.2} {:>8} {:>8}  {}",
                w.name,
                format!("{} [{}]", m.name, m.unit),
                ma,
                mb,
                mb / ma,
                m.bound,
                fmt_spread(&va),
                fmt_spread(&vb),
                status
            );
        }
        let failed = |r: &Value| {
            r.get("workloads")
                .and_then(|ws| ws.get(w.name)?.get("failed_frac")?.as_f64())
        };
        // `failed_frac` may not rise at all.
        if let (Some(fa), Some(fb)) = (failed(&a), failed(&b)) {
            let status = if fb > fa { "regressed" } else { "ok" };
            regressed += usize::from(fb > fa);
            println!(
                "{:<14} {:<40} {:>14.4} {:>14.4} {:>8} {:>6.2} {:>8} {:>8}  {}",
                w.name, "failed_frac [ratio]", fa, fb, "-", 0.0, "-", "-", status
            );
        }
        if layers {
            for &(name, unit) in PER_LAYER {
                let (va, vb) = (
                    values_of(&a, w.name, "per_layer", name),
                    values_of(&b, w.name, "per_layer", name),
                );
                let (ma, mb) = (median(&va), median(&vb));
                let ratio = if ma != 0.0 {
                    format!("{:.4}", mb / ma)
                } else {
                    "-".to_string()
                };
                println!(
                    "{:<14} {:<40} {:>14.4} {:>14.4} {:>8} {:>6} {:>8} {:>8}  layer",
                    w.name,
                    format!("{name} [{unit}]"),
                    ma,
                    mb,
                    ratio,
                    "-",
                    fmt_spread(&va),
                    fmt_spread(&vb)
                );
            }
        }
    }
    println!("{regressed} regressed");
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(&steady, &[105.0, 106.0, 104.0, 105.5], Better::Lower, 0.10),
            "ok"
        );
        assert_eq!(
            verdict(&steady, &[115.0, 116.0, 114.0, 115.5], Better::Lower, 0.10),
            "regressed"
        );
        assert_eq!(
            verdict(&steady, &[85.0, 86.0, 84.0, 85.5], Better::Higher, 0.10),
            "regressed"
        );
        let noisy = [80.0, 120.0, 95.0, 105.0];
        assert_eq!(verdict(&noisy, &steady, Better::Lower, 0.10), "unresolved");
        // Every run of B better than every run of A resolves a noisy row.
        assert_eq!(
            verdict(&noisy, &[50.0, 60.0, 70.0, 40.0], Better::Lower, 0.10),
            "ok"
        );
        assert_eq!(verdict(&[], &steady, Better::Lower, 0.10), "unresolved");
        // A single run per side has no spread to speak of.
        assert_eq!(verdict(&[100.0], &[104.0], Better::Lower, 0.10), "ok");
    }
}
