//! Per-layer measurement from outside the program: a *stage walk* that
//! executes each distinct question stage by stage through the agents'
//! public functions, with a span around every stage, and *leaf probes* that
//! replay each stage's inputs against the leaf APIs underneath it.
//!
//! The walk repeats the supervisor's bookkeeping from
//! `infera_agents::workflow` (the routing prompt it charges, the history
//! lines, the step outcomes) so that the simulated model's random stream —
//! and with it every redo — is the one `InferA::ask_opts` sees for the same
//! salt. `bench.walk_token_match` reports the share of questions whose walk
//! charged exactly the tokens of the real ask; below 1 means the workflow
//! changed and the walk here must follow it.

use crate::stats::{mean, median};
use crate::trace::Recorder;
use infera_agents::data_loading::{run_load, select_columns};
use infera_agents::documentation::run_documentation;
use infera_agents::python_agent::{run_compute, synthesize_program};
use infera_agents::sql_agent::{run_sql, synthesize_sql};
use infera_agents::viz_agent::{render_spec, run_visualize, synthesize_spec};
use infera_agents::{
    plan_question, AgentContext, AgentError, ContextPolicy, LoadSpec, PlanStep, RunState,
    StepOutcome,
};
use infera_core::{estimate_semantic_level, AskOptions, InferA, Question};
use infera_frame::{AggKind, AggSpec, Column, DType, DataFrame, JoinKind, SortOrder};
use infera_hacc::GenioReader;
use infera_obs::metric_names;
use infera_provenance::{ArtifactKind, ProvenanceStore};
use infera_sandbox::ExecutionRequest;
use infera_shard::SessionDb;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Per-question values by metric name; a layer metric is their mean over
/// the workload's distinct questions ("per answer"), or a ratio of sums.
#[derive(Default)]
pub struct Acc(BTreeMap<&'static str, Vec<f64>>);

impl Acc {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }

    pub fn max(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max))
    }

    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.sum(denominator);
        if d > 0.0 {
            self.sum(numerator) / d
        } else {
            0.0
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`, ms, with the last result.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(ms_since(t));
    }
    (last.expect("at least one repetition"), median(&times))
}

pub struct Walker<'a> {
    pub session: &'a InferA,
    pub scratch: &'a Path,
    pub shards: usize,
    pub probe_reps: usize,
    pub rec: &'a mut Recorder,
    pub acc: &'a mut Acc,
    /// The largest working frame any question produced, for `frame.*`.
    pub largest_frame: Option<DataFrame>,
}

/// What one walked question reports for the fidelity check.
pub struct Walked {
    pub tokens: u64,
    pub stages_ms: f64,
}

/// Retrievals one run makes, read off the steps it executed: the planner
/// retrieves once, a load step three times per table (ranking, column
/// selection, the selection prompt), every generated step once. The
/// retriever keeps no counter, so this follows `infera_agents` by hand.
fn retrievals(state: &RunState) -> usize {
    let executed = &state.plan.steps[..state.outcomes.len().min(state.plan.steps.len())];
    1 + executed
        .iter()
        .map(|step| match step {
            PlanStep::Load(spec) => 3 * spec.tables.len(),
            _ => 1,
        })
        .sum::<usize>()
}

impl Walker<'_> {
    /// Walk one question with spans around every stage, probing each
    /// stage's leaf calls between the stage spans.
    pub fn walk(&mut self, q: &Question, salt: u64, request: u64) -> Result<Walked, String> {
        let fail = |e: AgentError| format!("stage walk of Q{}: {e}", q.id);
        let root = self.rec.open("ask.walk", request, None);
        let (ctx, ms) = self
            .rec
            .time("core.context_build", request, Some(root), || {
                self.session.context_for_run(salt)
            });
        let ctx = ctx.map_err(|e| format!("context for Q{}: {e}", q.id))?;
        self.acc.add("core.context_build_ms", ms);

        let ((_, plan), ms) = self.rec.time("agents.plan", request, Some(root), || {
            plan_question(&ctx, &q.text)
        });
        self.acc.add("agents.plan_ms", ms);
        let mut state = RunState::new(&q.text, estimate_semantic_level(&q.text), plan);

        let mut stage_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        loop {
            let (_, ms) = self.rec.time("agents.supervisor", request, Some(root), || {
                supervise(&ctx, &mut state)
            });
            *stage_ms.entry("agents.supervisor_ms").or_default() += ms;
            if state.failed {
                break;
            }
            let Some(step) = state.plan.steps.get(state.step_idx).cloned() else {
                break;
            };
            let (span, metric, agent) = match &step {
                PlanStep::Load(_) => ("agents.load", "agents.load_ms", "data_loading"),
                PlanStep::Sql(_) => ("agents.sql", "agents.sql_ms", "sql"),
                PlanStep::Compute { .. } => ("agents.compute", "agents.compute_ms", "python"),
                PlanStep::Visualize { .. } => ("agents.viz", "agents.viz_ms", "visualization"),
            };
            // Probing a compute step needs the frames as the step finds
            // them; the other probes run after their stage, so that they do
            // not warm the database or the page cache for it.
            let probe_first = matches!(step, PlanStep::Compute { .. });
            if probe_first {
                self.probe(&ctx, &state, &step)?;
            }
            let id = self.rec.open(span, request, Some(root));
            let (redos, success, message, history) = match &step {
                PlanStep::Load(spec) => match run_load(&ctx, &mut state, spec) {
                    Ok(stats) => {
                        self.acc.add("hacc.read_mb", stats.bytes_read as f64 / 1e6);
                        let message = format!("loaded {} rows", stats.rows_loaded);
                        (0, true, message.clone(), format!("data_loading: {message}"))
                    }
                    Err(e @ (AgentError::Fatal(_) | AgentError::Infra { .. })) => {
                        return Err(fail(e))
                    }
                    Err(e) => (0, false, e.to_string(), format!("data_loading: {e}")),
                },
                PlanStep::Sql(spec) => {
                    let out = run_sql(&ctx, &mut state, spec).map_err(fail)?;
                    let history = format!("sql: {}\n{}", out.message, out.artifact);
                    (out.redos, out.success, out.message, history)
                }
                PlanStep::Compute {
                    kind,
                    input,
                    output,
                } => {
                    let out = run_compute(&ctx, &mut state, kind, input, output).map_err(fail)?;
                    let history = format!(
                        "python[{}]: {}\n{}",
                        kind.label(),
                        out.message,
                        out.artifact
                    );
                    (out.redos, out.success, out.message, history)
                }
                PlanStep::Visualize { kind, input, title } => {
                    let out = run_visualize(&ctx, &mut state, kind, input, title).map_err(fail)?;
                    let history = format!(
                        "visualization[{}]: {}\n{}",
                        kind.label(),
                        out.message,
                        out.artifact
                    );
                    (out.redos, out.success, out.message, history)
                }
            };
            *stage_ms.entry(metric).or_default() += self.rec.close(id);
            state.history.push(history);
            state.outcomes.push(StepOutcome {
                step: state.step_idx,
                agent: agent.to_string(),
                redos,
                success,
                message,
            });
            if success && !probe_first {
                self.probe(&ctx, &state, &step)?;
            }
            if success {
                state.step_idx += 1;
            } else {
                state.failed = true;
            }
        }
        for name in [
            "agents.supervisor_ms",
            "agents.load_ms",
            "agents.sql_ms",
            "agents.compute_ms",
            "agents.viz_ms",
        ] {
            self.acc
                .add(name, stage_ms.get(name).copied().unwrap_or(0.0));
        }

        let (doc, ms) = self.rec.time("agents.doc", request, Some(root), || {
            run_documentation(&ctx, &mut state)
        });
        doc.map_err(fail)?;
        self.acc.add("agents.doc_ms", ms);

        let state_json = serde_json::to_string(&serde_json::json!({
            "question": state.question,
            "completed_steps": state.outcomes.iter().filter(|o| o.success).count(),
            "failed": state.failed,
        }))
        .map_err(|e| format!("checkpoint state of Q{}: {e}", q.id))?;
        let (checkpoint, ms) = self
            .rec
            .time("provenance.checkpoint", request, Some(root), || {
                infera_provenance::save_checkpoint(
                    &ctx.prov,
                    "final",
                    None,
                    &state.frames,
                    &state_json,
                )
            });
        checkpoint.map_err(|e| format!("checkpoint of Q{}: {e}", q.id))?;
        self.acc.add("provenance.checkpoint_ms", ms);
        let walk_ms = self.rec.close(root);
        let stages_ms = walk_ms - self.rec.self_ms(root);
        // Read before the probes below charge the run's model again.
        let tokens = ctx.llm.meter().total_tokens();

        self.acc.add("rag.retrievals", retrievals(&state) as f64);
        self.probe_finished(&ctx, &state)?;
        Ok(Walked { tokens, stages_ms })
    }

    /// Leaf probes for one plan step.
    fn probe(
        &mut self,
        ctx: &AgentContext,
        state: &RunState,
        step: &PlanStep,
    ) -> Result<(), String> {
        let reps = self.probe_reps;
        match step {
            PlanStep::Load(spec) => self.probe_load(ctx, state, spec),
            PlanStep::Sql(spec) => {
                for sel in &spec.selects {
                    let sql = synthesize_sql(sel);
                    let (result, ms) = timed(reps, || ctx.db.query_with_stats(&sql));
                    let (_, stats) = result.map_err(|e| format!("query probe `{sql}`: {e}"))?;
                    self.acc.add("columnar.query_ms", ms);
                    self.acc
                        .add("columnar.rows_scanned", stats.rows_scanned as f64);
                    self.acc
                        .add("columnar.rows_output", stats.rows_output as f64);
                    self.acc
                        .add("columnar.chunks_total", stats.chunks_total as f64);
                    self.acc
                        .add("columnar.chunks_skipped", stats.chunks_skipped as f64);
                    let (_, ms) = timed(reps.max(5), || ctx.db.explain(&sql));
                    self.acc.add("columnar.sql_parse_plan_us", ms * 1e3);
                    if let SessionDb::Sharded(sharded) = &ctx.db {
                        let (result, ms) = timed(reps, || sharded.query_traced(&sql));
                        let (_, _, info) =
                            result.map_err(|e| format!("shard probe `{sql}`: {e}"))?;
                        let walls: Vec<f64> = info.per_shard.iter().map(|s| s.wall_ms).collect();
                        let slowest = walls.iter().copied().fold(0.0, f64::max);
                        self.acc.add("shard.query_ms", ms);
                        self.acc.add("shard.fragment_max_ms", slowest);
                        self.acc.add("shard.fragment_mean_ms", mean(&walls));
                        self.acc.add("shard.combine_ms", info.combine_ms);
                        // Repetitions after the first find the plan cached.
                        self.acc.add(
                            "shard.fragment_cache_hit",
                            f64::from(u8::from(info.cache_hit)),
                        );
                    }
                }
                Ok(())
            }
            PlanStep::Compute {
                kind,
                input,
                output,
            } => {
                let program = synthesize_program(kind, input, output, false, false);
                let (_, ms) = timed(20, || infera_sandbox::lang::parse_program(&program));
                self.acc.add("sandbox.parse_us", ms * 1e3);
                // A program the frames cannot satisfy fails here as it
                // would in the agent's first attempt; its time still counts.
                let (_, ms) = timed(reps, || {
                    ctx.sandbox.execute(ExecutionRequest {
                        program: program.clone(),
                        inputs: state.frames.clone(),
                    })
                });
                self.acc.add("sandbox.exec_ms", ms);
                Ok(())
            }
            PlanStep::Visualize { kind, input, title } => {
                let spec = synthesize_spec(kind, input, title);
                let (rendered, ms) = timed(reps, || render_spec(&spec, &state.frames));
                self.acc.add("viz.render_ms", ms);
                self.acc.add(
                    "viz.svg_kb",
                    rendered.map_or(0.0, |(text, _)| text.len() as f64 / 1e3),
                );
                Ok(())
            }
        }
    }

    /// `GenioReader::read_columns` over every file the load selects, then
    /// `SessionDb::append` of the batches read into a scratch database
    /// (single, and sharded when the workload is).
    fn probe_load(
        &mut self,
        ctx: &AgentContext,
        state: &RunState,
        spec: &LoadSpec,
    ) -> Result<(), String> {
        let reps = self.probe_reps;
        let mut tables: Vec<(String, Vec<DataFrame>)> = Vec::new();
        let mut read_ms = 0.0;
        for tspec in &spec.tables {
            let entity = tspec.entity_kind();
            let columns = select_columns(ctx, state, entity, &tspec.columns);
            let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
            let files: Vec<(u32, u32)> = spec
                .sims
                .iter()
                .flat_map(|&sim| spec.steps.iter().map(move |&step| (sim, step)))
                .collect();
            let (batches, ms) = timed(reps, || -> Result<Vec<DataFrame>, String> {
                let mut batches = Vec::with_capacity(files.len());
                for &(sim, step) in &files {
                    let path = ctx
                        .manifest
                        .file_path(sim, step, entity)
                        .map_err(|e| e.to_string())?;
                    let mut reader = GenioReader::open(&path).map_err(|e| e.to_string())?;
                    batches.push(reader.read_columns(&col_refs).map_err(|e| e.to_string())?);
                }
                Ok(batches)
            });
            read_ms += ms;
            // The loader annotates every batch with its sim and step; the
            // shard layout partitions on `sim`, so the replay does too.
            let mut annotated = Vec::with_capacity(files.len());
            for (mut batch, &(sim, step)) in batches?.into_iter().zip(&files) {
                let n = batch.n_rows();
                for (name, value) in [("sim", sim), ("step", step)] {
                    batch
                        .add_column(name.into(), Column::I64(vec![i64::from(value); n]))
                        .map_err(|e| e.to_string())?;
                }
                annotated.push(batch);
            }
            tables.push((tspec.output.clone(), annotated));
        }
        self.acc.add("hacc.read_ms", read_ms);

        let rows: usize = tables
            .iter()
            .flat_map(|(_, b)| b)
            .map(DataFrame::n_rows)
            .sum();
        let mut layouts = vec![(0, "columnar.ingest_ms")];
        if self.shards > 1 {
            layouts.push((self.shards, "shard.append_ms"));
        }
        for (shards, metric) in layouts {
            let dir = self.scratch.join("probe-db");
            let (result, ms) = timed(reps, || -> Result<(), String> {
                std::fs::remove_dir_all(&dir).ok();
                let db = SessionDb::create(
                    &dir,
                    shards,
                    ctx.manifest.n_sims,
                    ctx.manifest.fingerprint(),
                    infera_obs::Obs::new(),
                )
                .map_err(|e| e.to_string())?;
                for (name, batches) in &tables {
                    let Some(first) = batches.first() else {
                        continue;
                    };
                    db.create_table(name, &first.schema())
                        .map_err(|e| e.to_string())?;
                    for batch in batches {
                        db.append(name, batch).map_err(|e| e.to_string())?;
                    }
                }
                Ok(())
            });
            result.map_err(|e| format!("ingest probe: {e}"))?;
            std::fs::remove_dir_all(&dir).ok();
            self.acc.add(metric, ms);
        }
        self.acc.add("columnar.ingest_rows", rows as f64);
        Ok(())
    }

    /// Probes that need the finished run: provenance, storage accounting,
    /// prompt/model/retrieval unit costs.
    fn probe_finished(&mut self, ctx: &AgentContext, state: &RunState) -> Result<(), String> {
        let reps = self.probe_reps;
        let mut names: Vec<&String> = state.frames.keys().collect();
        names.sort();
        let dir = self.scratch.join("probe-prov");
        let (result, ms) = timed(reps, || -> Result<(), String> {
            std::fs::remove_dir_all(&dir).ok();
            let store = ProvenanceStore::create(&dir).map_err(|e| e.to_string())?;
            for name in &names {
                store
                    .put_frame(&state.frames[*name])
                    .map_err(|e| e.to_string())?;
            }
            store
                .put_text(ArtifactKind::Text, &state.summary)
                .map_err(|e| e.to_string())?;
            Ok(())
        });
        result.map_err(|e| format!("provenance probe: {e}"))?;
        std::fs::remove_dir_all(&dir).ok();
        self.acc.add("provenance.write_ms", ms);

        let (bytes, ms) = timed(reps.max(5), || ctx.prov.storage_bytes());
        self.acc.add("provenance.storage_bytes_ms", ms);
        self.acc.add("provenance.bytes", bytes as f64);
        let (_, artifacts) = crate::stats::dir_usage(&ctx.prov.dir().join("artifacts"));
        self.acc.add("provenance.artifacts", artifacts as f64);
        self.acc
            .add("columnar.encoded_bytes", ctx.db.total_bytes() as f64);
        self.acc.add(
            "columnar.logical_bytes",
            ctx.db.total_logical_bytes() as f64,
        );

        let task = "write SQL projecting the needed columns";
        let plan_text = state.plan.to_text();
        let (retrieved, ms) = timed(20, || {
            ctx.retriever
                .retrieve_for_task(&state.question, task, &plan_text)
        });
        self.acc.add("rag.retrieve_us", ms * 1e3);
        let (prompt, ms) = timed(20, || ctx.build_prompt("sql", state, task, &retrieved));
        self.acc.add("agents.prompt_build_us", ms * 1e3);
        // The run is over, so the extra draws from its model stream are harmless.
        let (_, ms) = timed(20, || ctx.llm.charge("benchmark", &prompt, "ok"));
        self.acc.add("llm.charge_us", ms * 1e3);

        if let Some(frame) = state.frames.values().max_by_key(|f| f.n_rows()) {
            if self
                .largest_frame
                .as_ref()
                .map_or(true, |best| frame.n_rows() > best.n_rows())
            {
                self.largest_frame = Some(frame.clone());
            }
        }
        Ok(())
    }
}

/// The supervisor node of `infera_agents::workflow::build_workflow`: it
/// charges one routing call carrying the whole message history.
fn supervise(ctx: &AgentContext, state: &mut RunState) {
    let step_desc = state
        .plan
        .steps
        .get(state.step_idx)
        .map(|s| s.describe())
        .unwrap_or_else(|| "all steps complete".to_string());
    let mut prompt = ctx.build_prompt(
        "supervisor",
        state,
        &format!("delegate the next step: {step_desc}"),
        &[],
    );
    prompt.push_str("\n## Message history\n");
    for h in &state.history {
        prompt.push_str(h);
        prompt.push('\n');
    }
    ctx.llm
        .charge("supervisor", &prompt, &format!("delegate: {step_desc}"));
    state
        .history
        .push(format!("supervisor: delegated '{step_desc}'"));
    if ctx.config.context_policy == ContextPolicy::LimitedContext && state.history.len() > 40 {
        state.history.drain(..20);
    }
}

/// One in-process `ask_opts` per distinct question, timed; the reports give
/// the counts the wire answer does not carry.
pub fn ask_pass(
    session: &InferA,
    questions: &[Question],
    salt_of: impl Fn(usize) -> u64,
    acc: &mut Acc,
) -> Result<Vec<infera_agents::RunReport>, String> {
    let mut reports = Vec::with_capacity(questions.len());
    for (i, q) in questions.iter().enumerate() {
        let t = Instant::now();
        let report = session
            .ask_opts(&q.text, AskOptions::new().seed(salt_of(i)))
            .map_err(|e| format!("in-process ask of Q{}: {e}", q.id))?;
        acc.add("core.ask_ms", ms_since(t));
        acc.add(
            "llm.calls",
            report.stage_costs.iter().map(|s| s.llm_calls).sum::<u64>() as f64,
        );
        acc.add("llm.virtual_ms", report.llm_latency_ms as f64);
        let counter = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0) as f64;
        acc.add(
            "sandbox.executions",
            counter(metric_names::SANDBOX_EXECUTIONS),
        );
        acc.add(
            "sandbox.errors",
            counter(metric_names::SANDBOX_PARSE_ERRORS)
                + counter(metric_names::SANDBOX_EXEC_ERRORS)
                + counter(metric_names::SANDBOX_TIMEOUTS),
        );
        acc.add("obs.spans", report.trace.n_spans() as f64);
        let (_, ms) = timed(3, || {
            infera_obs::trace_to_jsonl(&report.trace, &BTreeMap::new())
        });
        acc.add("obs.export_ms", ms);
        let (_, ms) = timed(3, || infera_serve::report_digest(&report));
        acc.add("serve.digest_us", ms * 1e3);
        reports.push(report);
    }
    Ok(reports)
}

/// `frame.*`: the dataframe kernels on the largest working frame the
/// workload's questions produced.
pub fn probe_frame(frame: &DataFrame, reps: usize, acc: &mut Acc) {
    let schema = frame.schema();
    let first = |dtype: DType| {
        schema
            .iter()
            .find(|(_, d)| *d == dtype)
            .map(|(n, _)| n.as_str())
    };
    let Some(value) = first(DType::F64) else {
        return;
    };
    let keys: Vec<&str> = ["sim", "step"]
        .into_iter()
        .filter(|k| frame.has_column(k))
        .collect();
    let keys = if keys.is_empty() {
        vec![schema[0].0.as_str()]
    } else {
        keys
    };
    let (_, ms) = timed(reps, || {
        frame.group_by(&keys, &[AggSpec::new(value, AggKind::Mean)])
    });
    acc.add("frame.groupby_ms", ms);
    let (_, ms) = timed(reps, || frame.sort_by(&[(value, SortOrder::Descending)]));
    acc.add("frame.sort_ms", ms);
    let key = if frame.has_column("fof_halo_tag") {
        Some("fof_halo_tag")
    } else {
        first(DType::I64)
    };
    if let Some(key) = key {
        let right = frame.head(1_000);
        let (_, ms) = timed(reps, || frame.join(&right, key, key, JoinKind::Inner));
        acc.add("frame.join_ms", ms);
    }
    let (csv, ms) = timed(reps, || frame.to_csv_string());
    acc.add(
        "frame.csv_write_mb_per_s",
        csv.len() as f64 / 1e6 / (ms / 1e3).max(1e-9),
    );
}

/// `rag.index_build_ms`: the retriever index as `AgentContext` builds it.
pub fn probe_rag_index(manifest: &infera_hacc::Manifest, acc: &mut Acc) {
    let (_, ms) = timed(5, || {
        let mut docs: Vec<infera_rag::Doc> = infera_hacc::column_dictionary()
            .into_iter()
            .map(|c| infera_rag::Doc::new(&c.column, &c.entity, &c.description, c.important))
            .collect();
        for (i, s) in infera_hacc::structure_dictionary(manifest)
            .into_iter()
            .enumerate()
        {
            let text = format!("{}: {}", s.topic, s.description);
            docs.push(infera_rag::Doc::new(
                &format!("structure_{i}"),
                "structure",
                &text,
                false,
            ));
        }
        infera_rag::Retriever::new(docs)
    });
    acc.add("rag.index_build_ms", ms);
}

/// `obs.span_ns`: one open+close of the program's own tracer span.
pub fn probe_obs_span(acc: &mut Acc) {
    let tracer = infera_obs::Tracer::new();
    let n = 10_000;
    let t = Instant::now();
    for _ in 0..n {
        drop(std::hint::black_box(tracer.span("probe")));
    }
    acc.add(
        "obs.span_ns",
        t.elapsed().as_secs_f64() * 1e9 / f64::from(n),
    );
}
