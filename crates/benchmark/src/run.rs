//! One run of one workload: generate the ensemble, set the server up,
//! drive the requests, check every answer, and assemble the metrics.

use crate::json::Json;
use crate::layers::{self, Acc, Walker};
use crate::live::{self, Live, Sample};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::plan::{self, Loop, Request, Workload};
use crate::stats::{self, mean, median, quantile};
use crate::trace::Recorder;
use infera_core::{InferA, Question};
use infera_serve::net::{decode_response, encode_response, JobDone, Response};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median and the last one is measured.
/// `--smoke` sets up once.
const SETUP_REPS: usize = 3;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: sample counts, digests, parameters.
    pub detail: Json,
}

impl Outcome {
    /// The one-line result the benchmark contract asks for.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .line()
    }
}

/// Where runs keep their ensemble and work directories: beside the binary,
/// that is under the build's target directory, which is inside the checkout
/// and which its `.gitignore` covers.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/benchmark"));
    exe.with_file_name("benchmark-scratch")
}

/// Removes a run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generate the ensemble in a child process, so that generation's memory
/// does not show in this process's peak RSS. Returns `hacc.generate_s`.
fn generate_in_child(seed: u64, smoke: bool, out: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("generate")
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--out")
        .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn generate: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "generate failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("generate printed no time: {e}"))
}

/// The `generate` subcommand: write the ensemble, print the seconds taken.
pub fn generate(seed: u64, smoke: bool, out: &Path) -> Result<(), String> {
    let t = Instant::now();
    infera_hacc::generate(&plan::ensemble_spec(seed, smoke), out).map_err(|e| e.to_string())?;
    println!("{}", t.elapsed().as_secs_f64());
    Ok(())
}

/// Checked answers of one driven phase.
struct Phase {
    plan: Vec<Request>,
    samples: Vec<Sample>,
    wall_s: f64,
    cpu_s: f64,
    failed: u64,
    shared_cache_hit_ratio: f64,
    events: u64,
}

impl Phase {
    fn drive(
        live: &mut Live,
        w: &Workload,
        questions: &[Question],
        plan: Vec<Request>,
        events: bool,
    ) -> Result<Phase, String> {
        let cache = live.session().shared_cache().clone();
        let (hits0, misses0) = (cache.hit_count(), cache.miss_count());
        let events0 = live.events_seen();
        let cpu0 = stats::process_cpu_s();
        let t0 = Instant::now();
        let samples = live.drive(
            questions,
            &plan,
            events,
            matches!(w.looping, Loop::Open { .. }),
        )?;
        let end = samples
            .iter()
            .filter_map(|s| s.answered)
            .max()
            .unwrap_or_else(Instant::now);
        let cpu_s = stats::process_cpu_s() - cpu0;
        let (hits, misses) = (cache.hit_count() - hits0, cache.miss_count() - misses0);

        // A request fails when it was refused, timed out, ran into an
        // error, or repeats an earlier (question, salt) with another digest.
        let mut failed = samples.iter().filter(|s| !s.ok()).count() as u64;
        for (s, req) in samples.iter().zip(&plan) {
            let first = req.repeats.map(|earlier| &samples[earlier]);
            if let (Some(done), Some(Some(first))) = (&s.done, first.map(|f| f.done.as_ref())) {
                if done.ok && first.ok && done.digest != first.digest {
                    failed += 1;
                }
            }
        }
        Ok(Phase {
            plan,
            wall_s: end.duration_since(t0).as_secs_f64(),
            cpu_s,
            failed,
            shared_cache_hit_ratio: hits as f64 / ((hits + misses) as f64).max(1.0),
            events: live.events_seen() - events0,
            samples,
        })
    }

    fn answers(&self) -> impl Iterator<Item = (&Sample, &JobDone)> {
        self.samples
            .iter()
            .filter(|s| s.ok())
            .filter_map(|s| s.done.as_ref().map(|d| (s, d)))
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.answers().filter_map(|(s, _)| s.latency_ms()).collect()
    }

    fn n_answers(&self) -> f64 {
        self.answers().count() as f64
    }

    /// `(question id, salt, digest, latency ms)` per request; the digests
    /// are compared pairwise between workloads that send identical requests.
    fn digests(&self, questions: &[Question]) -> Json {
        Json::Arr(
            self.samples
                .iter()
                .zip(&self.plan)
                .map(|(s, req)| {
                    Json::Arr(vec![
                        Json::Int(u64::from(questions[req.question].id)),
                        Json::Int(req.salt),
                        Json::str(s.done.as_ref().map_or("", |d| d.digest.as_str())),
                        Json::Num(s.latency_ms().unwrap_or(0.0)),
                    ])
                })
                .collect(),
        )
    }
}

/// Bytes each run directory under `work` holds, keyed by the question and
/// salt its `run.json` marker names.
fn run_dir_bytes(work: &Path) -> HashMap<(String, u64), u64> {
    let mut bytes = HashMap::new();
    let Ok(entries) = std::fs::read_dir(work) else {
        return bytes;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let Ok(text) = std::fs::read_to_string(dir.join("run.json")) else {
            continue;
        };
        let Ok(marker) = serde_json::from_str::<serde_json::Value>(&text) else {
            continue;
        };
        let (Some(question), Some(salt)) = (marker["question"].as_str(), marker["salt"].as_u64())
        else {
            continue;
        };
        *bytes.entry((question.to_string(), salt)).or_insert(0) += stats::dir_usage(&dir).0;
    }
    bytes
}

/// Serial anchor: every distinct question asked in-process on a fresh,
/// unsharded session with the warm-up's salt must give the digest the
/// served warm-up answer carried. Returns the number of mismatches.
fn anchor_mismatches(
    live: &Live,
    questions: &[Question],
    ensemble: &Path,
    scratch: &Path,
    seed: u64,
) -> Result<u64, String> {
    let session = InferA::builder(ensemble)
        .work_dir(scratch.join("anchor"))
        .config(live::session_config(seed, 0))
        .build()
        .map_err(|e| format!("anchor session: {e}"))?;
    let reports = layers::ask_pass(&session, questions, plan::warmup_salt, &mut Acc::default())?;
    let mut mismatches = 0;
    for ((report, served), q) in reports.iter().zip(&live.warmup).zip(questions) {
        let anchor = format!("{:016x}", infera_serve::report_digest(report));
        let served = served.done.as_ref().map_or("", |d| d.digest.as_str());
        if anchor != served {
            eprintln!(
                "benchmark: Q{} digest {served} differs from its serial anchor {anchor}",
                q.id
            );
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let cores = crate::report::host_cores();
    if w.workers > cores || w.connections > cores {
        return Err(format!(
            "{} needs {} workers and {} connections but this host has {cores} cores; \
             load generated from an oversubscribed host measures the host",
            w.name, w.workers, w.connections
        ));
    }
    let questions = w.questions(args.smoke);
    let scratch = scratch_root().join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;
    let _cleanup = Scratch(scratch.clone());

    let ensemble = scratch.join("ens");
    let generate_s = generate_in_child(args.seed, args.smoke, &ensemble)?;

    let setup_reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut kept: Option<Live> = None;
    for rep in 0..setup_reps {
        if let Some(previous) = kept.take() {
            let work = previous.work.clone();
            previous.tear_down();
            let _ = std::fs::remove_dir_all(work);
        }
        let t = Instant::now();
        kept = Some(Live::set_up(
            w,
            &questions,
            &ensemble,
            &scratch.join(format!("work-{rep}")),
            args.seed,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut live = kept.expect("at least one set-up");

    let mut detail: Vec<(&str, Json)> = vec![
        (
            "header",
            crate::report::header(args.seed, args.seconds, args.smoke),
        ),
        ("workload", Json::str(w.name)),
        ("trace", Json::Bool(args.trace)),
        (
            "setup_s_each",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ];
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (attempted, failed);

    if args.trace {
        let (a, f) = traced(
            args,
            &mut live,
            &questions,
            &scratch,
            generate_s,
            &mut out,
            &mut detail,
        )?;
        (attempted, failed) = (a, f);
    } else {
        let plan = plan::requests(w, questions.len(), args.seed, args.seconds, 0);
        let phase = Phase::drive(&mut live, w, &questions, plan, w.events)?;
        let latencies = phase.latencies_ms();
        out.insert("setup_s", median(&setup_s));
        out.insert("answer_p50_ms", quantile(&latencies, 0.5));
        out.insert("answer_tail_ms", quantile(&latencies, w.tail_percentile));
        out.insert("answers_per_s", phase.n_answers() / phase.wall_s.max(1e-9));
        out.insert("cpu_s_per_answer", phase.cpu_s / phase.n_answers().max(1.0));
        out.insert("peak_rss_mb", stats::peak_rss_mb());

        // Bytes the timed requests left under the work directory (the
        // warm-up's run directories are not counted); a repeat served from
        // the result cache stores nothing and still counts as an answer.
        let stored = run_dir_bytes(&live.work);
        let bytes: u64 = phase
            .plan
            .iter()
            .filter(|r| r.repeats.is_none())
            .filter_map(|r| stored.get(&(questions[r.question].text.clone(), r.salt)))
            .sum();
        out.insert(
            "store_bytes_per_answer",
            bytes as f64 / (phase.plan.len() as f64).max(1.0),
        );

        detail.push(("samples", Json::Int(latencies.len() as u64)));
        detail.push(("timed_wall_s", Json::Num(phase.wall_s)));
        detail.push((
            "rejected",
            Json::Int(phase.samples.iter().filter(|s| s.rejected).count() as u64),
        ));
        detail.push(("digests", phase.digests(&questions)));
        (attempted, failed) = (phase.plan.len() as u64, phase.failed);
    }

    let anchors = anchor_mismatches(&live, &questions, &ensemble, &scratch, args.seed)?;
    live.tear_down();
    let attempted = attempted + questions.len() as u64;
    let failed = failed + anchors;
    out.insert("bench.failed_frac", failed as f64 / attempted as f64);

    let table: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = *out
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((name, value, unit));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Json::obj(detail),
    })
}

/// The traced run: two short served phases (untraced, then with progress
/// events streamed and spans recorded) and the in-process stage walk with
/// its leaf probes. Fills `out` with every per-layer metric.
fn traced(
    args: &RunArgs,
    live: &mut Live,
    questions: &[Question],
    scratch: &Path,
    generate_s: f64,
    out: &mut BTreeMap<&'static str, f64>,
    detail: &mut Vec<(&str, Json)>,
) -> Result<(u64, u64), String> {
    let w = args.workload;
    let mut rec = Recorder::new();
    let mut acc = Acc::default();

    let plain = Phase::drive(
        live,
        w,
        questions,
        plan::requests(w, questions.len(), args.seed, args.seconds / 4.0, 1),
        w.events,
    )?;
    let streamed = Phase::drive(
        live,
        w,
        questions,
        plan::requests(w, questions.len(), args.seed, args.seconds / 4.0, 2),
        true,
    )?;
    for (s, done) in streamed.answers() {
        let request = 1 + s.request as u64;
        let root = rec.record(
            "request",
            request,
            None,
            s.due,
            s.latency_ms().unwrap_or(0.0),
        );
        rec.record(
            "serve.net.submit",
            request,
            Some(root),
            s.sent,
            s.submit_us() / 1e3,
        );
        rec.record(
            "serve.queue",
            request,
            Some(root),
            s.admitted,
            done.queue_ms as f64,
        );
        let picked_up = s.admitted + std::time::Duration::from_millis(done.queue_ms);
        rec.record(
            "serve.run",
            request,
            Some(root),
            picked_up,
            done.run_ms as f64,
        );
    }

    let answers: Vec<&JobDone> = plain.answers().map(|(_, d)| d).collect();
    let of = |f: fn(&JobDone) -> f64| -> Vec<f64> { answers.iter().map(|d| f(d)).collect() };
    let queue_ms = of(|d| d.queue_ms as f64);
    let run_ms = of(|d| d.run_ms as f64);
    let overhead: Vec<f64> = plain
        .answers()
        .filter_map(|(s, d)| {
            s.latency_ms()
                .map(|l| l - d.queue_ms as f64 - d.run_ms as f64)
        })
        .collect();
    let late: Vec<f64> = plain.samples.iter().map(Sample::late_ms).collect();
    let submit_us: Vec<f64> = plain.samples.iter().map(Sample::submit_us).collect();
    out.insert("serve.queue_ms_p50", quantile(&queue_ms, 0.5));
    out.insert(
        "serve.queue_ms_tail",
        quantile(&queue_ms, w.tail_percentile),
    );
    out.insert("serve.run_ms_p50", quantile(&run_ms, 0.5));
    out.insert("serve.overhead_ms", median(&overhead));
    out.insert(
        "serve.worker_busy_frac",
        run_ms.iter().sum::<f64>() / 1e3 / (w.workers as f64 * plain.wall_s).max(1e-9),
    );
    out.insert(
        "serve.result_cache_hit_ratio",
        mean(&of(|d| f64::from(u8::from(d.cache_hit)))),
    );
    out.insert(
        "serve.rejected_frac",
        plain.samples.iter().filter(|s| s.rejected).count() as f64
            / (plain.samples.len() as f64).max(1.0),
    );
    out.insert("serve.net.connect_ms", median(&live.connect_ms));
    out.insert("serve.net.submit_rtt_us", median(&submit_us));
    out.insert("serve.net.ping_rtt_us", live.ping_rtt_us(50));
    out.insert(
        "serve.net.events_per_answer",
        streamed.events as f64 / streamed.n_answers().max(1.0),
    );
    out.insert(
        "llm.tokens_per_answer",
        mean(&of(|d| d.tokens.unwrap_or(0) as f64)),
    );
    out.insert(
        "agents.redos_per_answer",
        mean(&of(|d| d.redos.unwrap_or(0) as f64)),
    );
    out.insert(
        "agents.shared_cache_hit_ratio",
        plain.shared_cache_hit_ratio,
    );
    out.insert("bench.gen_late_ms_p50", quantile(&late, 0.5));
    out.insert("bench.gen_late_ms_tail", quantile(&late, w.tail_percentile));
    let (plain_ms, streamed_ms) = (mean(&plain.latencies_ms()), mean(&streamed.latencies_ms()));
    out.insert(
        "bench.trace_overhead_frac",
        (streamed_ms - plain_ms) / plain_ms.max(1e-9),
    );
    out.insert("core.session_build_ms", live.session_build_ms);
    out.insert("hacc.generate_s", generate_s);

    // The wire codec on a typical terminal answer.
    if let Some(done) = answers.first() {
        let response = Response::Done((*done).clone());
        let n = 2_000;
        let t = Instant::now();
        for _ in 0..n {
            let _ = std::hint::black_box(decode_response(&encode_response(&response)));
        }
        out.insert(
            "serve.net.codec_us",
            t.elapsed().as_secs_f64() * 1e6 / f64::from(n),
        );
    }

    // In-process passes on the server's own (warm) session, which is idle
    // now: the stage walk with its probes, then the same questions and
    // salts through `ask_opts`.
    let session = live.session().clone();
    let walk_salt = |question: usize| 500_000 + question as u64;
    let mut walker = Walker {
        session: &session,
        scratch,
        shards: w.shards,
        probe_reps: if args.smoke { 1 } else { w.probe_reps },
        rec: &mut rec,
        acc: &mut acc,
        largest_frame: None,
    };
    let mut walked = Vec::with_capacity(questions.len());
    for (i, q) in questions.iter().enumerate() {
        walked.push(walker.walk(q, walk_salt(i), 1_000_000 + i as u64)?);
    }
    let largest_frame = walker.largest_frame.take();
    let reports = layers::ask_pass(&session, questions, walk_salt, &mut acc)?;
    if let Some(frame) = &largest_frame {
        layers::probe_frame(frame, w.probe_reps.max(3), &mut acc);
    }
    layers::probe_rag_index(session.manifest(), &mut acc);
    layers::probe_obs_span(&mut acc);

    let matching = walked
        .iter()
        .zip(&reports)
        .filter(|(walk, report)| walk.tokens == report.tokens)
        .count();
    out.insert(
        "bench.walk_token_match",
        matching as f64 / (questions.len() as f64).max(1.0),
    );
    let stages_ms = mean(&walked.iter().map(|w| w.stages_ms).collect::<Vec<_>>());
    let ask_ms = acc.mean("core.ask_ms");
    out.insert("core.ask_ms", ask_ms);
    out.insert(
        "core.unattributed_frac",
        (ask_ms - stages_ms) / ask_ms.max(1e-9),
    );
    out.insert(
        "core.data_path_frac",
        (acc.mean("agents.load_ms") + acc.mean("agents.sql_ms")) / ask_ms.max(1e-9),
    );

    for (metric, source) in [
        ("rag.retrievals_per_answer", "rag.retrievals"),
        ("hacc.read_ms_per_answer", "hacc.read_ms"),
        ("hacc.read_mb_per_answer", "hacc.read_mb"),
        ("columnar.ingest_ms_per_answer", "columnar.ingest_ms"),
        ("columnar.query_ms_per_answer", "columnar.query_ms"),
        ("columnar.rows_scanned_per_answer", "columnar.rows_scanned"),
        ("shard.append_ms_per_answer", "shard.append_ms"),
        ("shard.query_ms_per_answer", "shard.query_ms"),
        ("sandbox.exec_ms_per_answer", "sandbox.exec_ms"),
        ("viz.render_ms_per_answer", "viz.render_ms"),
        ("viz.svg_kb_per_answer", "viz.svg_kb"),
        ("provenance.write_ms_per_answer", "provenance.write_ms"),
        ("provenance.bytes_per_answer", "provenance.bytes"),
        ("provenance.artifacts_per_answer", "provenance.artifacts"),
        ("llm.calls_per_answer", "llm.calls"),
        ("llm.virtual_ms_per_answer", "llm.virtual_ms"),
        ("sandbox.executions_per_answer", "sandbox.executions"),
        ("obs.spans_per_answer", "obs.spans"),
    ] {
        // A question's plan may hold several steps of a kind (or none):
        // per answer is the sum over its steps, averaged over questions.
        out.insert(metric, acc.sum(source) / (questions.len() as f64).max(1.0));
    }
    for name in [
        "rag.index_build_ms",
        "rag.retrieve_us",
        "llm.charge_us",
        "agents.plan_ms",
        "agents.supervisor_ms",
        "agents.load_ms",
        "agents.sql_ms",
        "agents.compute_ms",
        "agents.viz_ms",
        "agents.doc_ms",
        "agents.prompt_build_us",
        "columnar.sql_parse_plan_us",
        "frame.groupby_ms",
        "frame.join_ms",
        "frame.sort_ms",
        "frame.csv_write_mb_per_s",
        "shard.combine_ms",
        "sandbox.parse_us",
        "provenance.checkpoint_ms",
        "provenance.storage_bytes_ms",
        "core.context_build_ms",
        "serve.digest_us",
        "obs.span_ns",
        "obs.export_ms",
    ] {
        let &(name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("listed metric");
        out.insert(name, acc.mean(name));
    }
    out.insert(
        "hacc.read_frac",
        out["hacc.read_mb_per_answer"] * 1e6 / (session.manifest().total_bytes() as f64).max(1.0),
    );
    out.insert(
        "columnar.ingest_rows_per_s",
        acc.sum("columnar.ingest_rows") / (acc.sum("columnar.ingest_ms") / 1e3).max(1e-9),
    );
    out.insert(
        "columnar.rows_scanned_per_row_returned",
        acc.ratio("columnar.rows_scanned", "columnar.rows_output"),
    );
    out.insert(
        "columnar.chunks_skipped_ratio",
        acc.ratio("columnar.chunks_skipped", "columnar.chunks_total"),
    );
    out.insert(
        "columnar.encoded_over_logical",
        acc.ratio("columnar.encoded_bytes", "columnar.logical_bytes"),
    );
    out.insert("shard.fragment_max_ms", acc.max("shard.fragment_max_ms"));
    out.insert(
        "shard.skew",
        acc.ratio("shard.fragment_max_ms", "shard.fragment_mean_ms"),
    );
    out.insert(
        "shard.fragment_cache_hit_ratio",
        acc.mean("shard.fragment_cache_hit"),
    );
    out.insert(
        "sandbox.error_ratio",
        acc.ratio("sandbox.errors", "sandbox.executions"),
    );

    let trace_path = scratch_root().join(format!("trace-{}.jsonl", w.name));
    std::fs::write(&trace_path, rec.to_jsonl())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    detail.push(("trace_file", Json::str(trace_path.display().to_string())));
    detail.push(("spans", Json::Int(rec.spans().len() as u64)));
    detail.push(("samples", Json::Int(plain.samples.len() as u64)));
    Ok((
        (plain.plan.len() + streamed.plan.len()) as u64,
        plain.failed + streamed.failed,
    ))
}
