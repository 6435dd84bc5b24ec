//! Tier-1 guard against a benchmark that rots: run every workload, untraced
//! and traced, on the tiny ensemble (`benchmark all --smoke`) and hold the
//! output against `BENCHMARK.json` — every workload and every metric it
//! names must come out with the unit it states and a finite value.
//!
//! Under cargo the binary is the crate's own; under the offline harness
//! (`scripts/offline-check.sh`, which compiles this file on its own) it is
//! whatever `build.sh` builds.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_binary() -> PathBuf {
    if let Some(path) = option_env!("CARGO_BIN_EXE_benchmark") {
        return PathBuf::from(path);
    }
    let built = Command::new("bash")
        .arg(crate_dir().join("build.sh"))
        .output()
        .expect("run build.sh");
    assert!(
        built.status.success(),
        "build.sh failed:\n{}",
        String::from_utf8_lossy(&built.stderr)
    );
    PathBuf::from(String::from_utf8_lossy(&built.stdout).trim())
}

fn read_json(path: &std::path::Path) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn entries<'a>(spec: &'a Value, key: &str) -> &'a Vec<Value> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {entry:?}"))
}

#[test]
fn smoke_run_prints_every_metric_benchmark_json_names() {
    let binary = benchmark_binary();
    let report_path = binary.with_file_name(format!("smoke-report-{}.json", std::process::id()));
    let status = Command::new(&binary)
        .args(["all", "--smoke", "--out"])
        .arg(&report_path)
        .status()
        .expect("run benchmark all --smoke");
    assert!(
        status.success(),
        "benchmark all --smoke exited with {status}"
    );
    let report = read_json(&report_path);
    let spec = read_json(&crate_dir().join("../../BENCHMARK.json"));

    let header = report.get("header").expect("report header");
    for key in [
        "host_cores",
        "rayon_threads",
        "build_flavour",
        "rustc",
        "commit",
        "seed",
        "workloads",
    ] {
        assert!(header.get(key).is_some(), "run header lacks `{key}`");
    }

    for workload in entries(&spec, "workloads") {
        let name = text(workload, "name");
        let section = report
            .get("workloads")
            .and_then(|w| w.get(name))
            .unwrap_or_else(|| panic!("workload `{name}` is not in the output"));
        assert_eq!(
            section.get("failed").and_then(Value::as_u64),
            Some(0),
            "{name}: failed answers"
        );
        assert!(
            header
                .get("workloads")
                .and_then(|w| w.get(name)?.get("tail_percentile")?.as_f64())
                .is_some(),
            "run header lacks the frozen parameters of `{name}`"
        );
        for (list, part) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
            for metric in entries(&spec, list) {
                let metric_name = text(metric, "name");
                let measured = section
                    .get(part)
                    .and_then(|m| m.get(metric_name))
                    .unwrap_or_else(|| {
                        panic!("{name}: metric `{metric_name}` is not in the output")
                    });
                assert_eq!(
                    measured.get("unit").and_then(Value::as_str),
                    Some(text(metric, "unit")),
                    "{name}: unit of `{metric_name}`"
                );
                let values = measured.get("values").and_then(Value::as_array);
                let value = values.and_then(|v| v.first()).and_then(Value::as_f64);
                let value =
                    value.unwrap_or_else(|| panic!("{name}: `{metric_name}` has no finite value"));
                assert!(value.is_finite(), "{name}: `{metric_name}` = {value}");
                if part == "end_to_end" {
                    assert!(
                        value > 0.0,
                        "{name}: end-to-end metric `{metric_name}` is {value}"
                    );
                    let bound = header
                        .get("bounds")
                        .and_then(|b| b.get(metric_name))
                        .and_then(Value::as_f64);
                    assert_eq!(
                        bound,
                        metric.get("bound").and_then(Value::as_f64),
                        "bound of `{metric_name}`"
                    );
                }
            }
        }
    }

    // A report compared with itself has nothing regressed.
    let compared = Command::new(&binary)
        .arg("compare")
        .arg(&report_path)
        .arg(&report_path)
        .output()
        .expect("run compare");
    assert!(
        compared.status.success(),
        "self-compare:\n{}",
        String::from_utf8_lossy(&compared.stdout)
    );
    let _ = std::fs::remove_file(&report_path);
}
