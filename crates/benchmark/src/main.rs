//! The end-to-end benchmark `BENCHMARK.json` names.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--detail FILE]
//! benchmark all [--smoke] [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! benchmark compare A.json B.json [--layers]
//! ```
//!
//! The first form is one run of one workload, the form the benchmark
//! contract drives: its last line on standard output is the result object.
//! `all` runs every workload untraced and traced, each in its own child
//! process, and writes one report; `compare` reads two such reports.
//! See `README.md` beside this crate for what is measured and why.

mod json;
mod layers;
mod live;
mod metrics;
mod plan;
mod report;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--detail FILE]
  benchmark all [--smoke] [--seed N] [--seconds S] [--repeat R] [--out FILE]
  benchmark compare A.json B.json [--layers]
workloads: light_serial heavy_serial heavy_sharded mix_open";

/// `--name value` pairs and bare `--name` flags after the subcommand.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.rest.iter().position(|a| a == name)?;
        self.rest.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read `{text}`")),
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.rest.iter().any(|a| a == name)
    }

    /// Arguments that are not `--name`s; only for commands whose flags
    /// take no value.
    fn positional(&self) -> Vec<&str> {
        self.rest
            .iter()
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
            .collect()
    }
}

fn one_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = plan::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let trace = match args.value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let run_args = run::RunArgs {
        workload,
        seed: args.parsed("--seed", plan::DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", plan::DEFAULT_SECONDS)?,
        trace,
        smoke: args.flag("--smoke"),
    };
    let outcome = run::run(&run_args)?;
    for &(name, value, unit) in &outcome.metrics {
        eprintln!("{name:<42} {value:>16.4} {unit}");
    }
    if let Some(path) = args.value("--detail") {
        std::fs::write(path, outcome.detail.pretty()).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch() -> Result<ExitCode, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => "run".to_string(),
    };
    let args = Args { rest: argv };
    match command.as_str() {
        "run" => one_run(&args),
        "generate" => {
            let out = PathBuf::from(args.value("--out").ok_or("generate needs --out DIR")?);
            run::generate(
                args.parsed("--seed", plan::DEFAULT_SEED)?,
                args.flag("--smoke"),
                &out,
            )?;
            Ok(ExitCode::SUCCESS)
        }
        "all" => report::all(&args),
        "compare" => match args.positional()[..] {
            [a, b] => report::compare(a.as_ref(), b.as_ref(), args.flag("--layers")),
            _ => Err("compare takes two report files".to_string()),
        },
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
