//! The analysis-stage workflow: supervisor-routed execution of the
//! approved plan through the state graph (Fig. 3 of the paper).
//!
//! The supervisor interprets the next plan step and delegates it to the
//! matching specialist node; specialists run their revision loops and
//! report back; exhausting a step's budget aborts the run; the
//! documentation agent closes every run. The graph shape is exactly the
//! paper's: planning happens before this stage, QA is embedded in each
//! specialist's loop.

use crate::context::{AgentContext, ContextPolicy};
use crate::documentation::run_documentation;
use crate::error::{AgentError, AgentResult};
use crate::graph::{NodeOutcome, StateGraph};
use crate::planner::plan_question;
use crate::qa::GenOutcome;
use crate::state::{PlanStep, QualityFlags, RunState, StepOutcome};
use infera_llm::SemanticLevel;
use infera_obs::{metric_names, render_breakdown, stage_breakdown, StageCost, Tracer};
use std::sync::Arc;

/// Per-run report: the raw material of every Table 2 metric.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub question: String,
    /// Analysis steps in the executed plan.
    pub plan_steps: usize,
    /// Run completed all planned steps (Table 2 "% of Runs Completed").
    pub completed: bool,
    /// Fraction of planned steps completed (Table 2 "% Complete").
    pub completion_fraction: f64,
    /// Total redo iterations (Table 2 "Redo Iterations").
    pub redos: u32,
    /// Data analysis success (Table 2 "% Satisfactory Data").
    pub satisfactory_data: bool,
    /// Visualization success (Table 2 "% Satisfactory Visual").
    pub satisfactory_viz: bool,
    /// Token usage at termination.
    pub tokens: u64,
    /// Virtual LLM latency (ms) accumulated by the model.
    pub llm_latency_ms: u64,
    /// Real wall-clock of the data pipeline (ms).
    pub wall_ms: u64,
    /// Storage overhead: database + provenance artifacts (bytes on
    /// disk — database chunks are compressed, format v2).
    pub storage_bytes: u64,
    /// Storage the run would need with the uncompressed (v1) chunk
    /// layout; `storage_bytes / storage_logical_bytes` is the realized
    /// compression ratio.
    pub storage_logical_bytes: u64,
    pub flags: QualityFlags,
    /// The final result frame, when the last compute/sql step succeeded.
    pub result: Option<infera_frame::DataFrame>,
    /// Visualization artifact ids.
    pub visualizations: Vec<infera_provenance::ArtifactId>,
    /// Provenance/documentation summary.
    pub summary: String,
    /// Per-agent cost attribution derived from the run's trace: wall
    /// time, token usage, model calls, and redos per pipeline stage.
    pub stage_costs: Vec<StageCost>,
    /// Snapshot of the run's metrics registry: execution-kernel timings
    /// (`join.build_ms`, `join.probe_ms`), partition/partial counters,
    /// and dictionary fast-path hit counts.
    pub metrics: infera_obs::MetricsSnapshot,
    /// The run's full trace, for JSONL export and post-hoc analysis.
    pub trace: Tracer,
}

impl RunReport {
    /// The per-stage breakdown as an aligned text table (time / tokens /
    /// redos per agent node, plus a totals row).
    pub fn breakdown_text(&self) -> String {
        render_breakdown(&self.stage_costs)
    }

    /// Execution-kernel breakdown: join build/probe timings, radix
    /// partition count, group-by partials, dictionary fast-path savings,
    /// and the write-path counts (meta flushes, frames put vs rendered).
    pub fn kernel_breakdown_text(&self) -> String {
        use infera_obs::metric_names as names;
        use std::fmt::Write as _;
        let mut out = String::new();
        for (label, name) in [
            ("join build", names::JOIN_BUILD_MS),
            ("join probe", names::JOIN_PROBE_MS),
        ] {
            if let Some(h) = self.metrics.histograms.get(name) {
                let _ = writeln!(
                    out,
                    "{label:<22} {:>6} obs  total {:>9.3} ms  p50 {:>8.3} ms  max {:>8.3} ms",
                    h.count, h.sum, h.p50, h.max
                );
            }
        }
        if let Some(parts) = self.metrics.gauges.get(names::JOIN_PARTITIONS) {
            let _ = writeln!(out, "{:<22} {parts:>6}", "join partitions");
        }
        for (label, name) in [
            ("plan candidates", names::PLAN_CANDIDATES_CONSIDERED),
            ("predicates pushed", names::PLAN_PREDICATES_PUSHED),
            ("preagg applied", names::PLAN_PREAGG_APPLIED),
            ("morsels dispatched", names::MORSEL_COUNT),
            ("group-by partials", names::GROUPBY_PARTIALS_MERGED),
            ("dict group-by chunks", names::GROUPBY_DICT_FASTPATH_CHUNKS),
            ("dict join chunks", names::JOIN_DICT_FASTPATH_CHUNKS),
            ("dict strings decoded", names::DICT_STRINGS_DECODED),
            ("scan rows pruned", names::SCAN_ROWS_PRUNED),
            ("faults recovered", names::FAULT_RECOVERED),
            ("chunks quarantined", names::STORAGE_CHUNKS_QUARANTINED),
            ("meta flushes", names::STORAGE_META_FLUSHES),
            ("frames put", names::PROV_FRAMES_PUT),
            ("frames rendered", names::PROV_FRAMES_RENDERED),
        ] {
            if let Some(v) = self.metrics.counters.get(name) {
                let _ = writeln!(out, "{label:<22} {v:>6}");
            }
        }
        out
    }
}

/// Stamp a specialist node's span with its outcome and bump the run
/// counters (redos consumed, step failures).
fn finish_node(ctx: &AgentContext, span: &infera_obs::SpanGuard, out: &GenOutcome) {
    span.set_attr("redos", out.redos);
    span.set_attr("success", out.success);
    if out.redos > 0 {
        ctx.obs.metrics.inc(metric_names::RUN_REDOS, u64::from(out.redos));
    }
    if !out.success {
        ctx.obs.metrics.inc(metric_names::RUN_STEP_FAILURES, 1);
    }
}

fn record(state: &mut RunState, agent: &str, out: GenOutcome) {
    let step = state.step_idx;
    state.outcomes.push(StepOutcome {
        step,
        agent: agent.to_string(),
        redos: out.redos,
        success: out.success,
        message: out.message,
    });
    if out.success {
        state.step_idx += 1;
    } else {
        state.failed = true;
    }
}

/// Build the supervisor-routed analysis graph.
pub fn build_workflow(ctx: Arc<AgentContext>) -> StateGraph<RunState> {
    let mut g: StateGraph<RunState> = StateGraph::new();

    // Supervisor: monitors progress, charges its routing call, and the
    // conditional edge picks the next specialist.
    {
        let ctx = ctx.clone();
        g.add_node("supervisor", move |state: &mut RunState| {
            // Cancellation is cooperative: the supervisor fronts every
            // step, so a canceled or past-deadline run stops at the next
            // step boundary rather than mid-specialist.
            ctx.cancel.check()?;
            // Fault-injection boundary for the virtual LLM: the
            // supervisor fronts every step, so an injected failure here
            // models a provider outage at a step boundary. It aborts the
            // run (transient infra error) instead of feeding the redo
            // loop, so a scheduler-level retry replays bit-identically.
            match infera_faults::check(infera_faults::sites::LLM_CALL) {
                Some(infera_faults::FaultMode::Panic) => {
                    panic!("{}", infera_faults::injected_error("llm.call"));
                }
                Some(_) => {
                    return Err(AgentError::Infra {
                        message: infera_faults::injected_error("llm.call"),
                        transient: true,
                    });
                }
                None => {}
            }
            let span = ctx.obs.tracer.span("node:supervisor");
            span.set_attr("stage", "supervisor");
            span.set_attr("step", state.step_idx);
            let step_desc = state
                .plan
                .steps
                .get(state.step_idx)
                .map(|s| s.describe())
                .unwrap_or_else(|| "all steps complete".to_string());
            // The supervisor is the one agent that always sees history
            // (§4.2.5).
            // The supervisor always sees the full picture: plan, working
            // frames, and the complete message history (§4.2.5 notes this
            // is the expensive part of the token budget).
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
            // Trim runaway history under the limited-context policy.
            if ctx.config.context_policy == ContextPolicy::LimitedContext
                && state.history.len() > 40
            {
                state.history.drain(..20);
            }
            Ok(NodeOutcome::Continue)
        });
    }
    g.add_conditional_edge("supervisor", |state: &RunState| {
        if state.failed {
            return "documentation".to_string();
        }
        match state.plan.steps.get(state.step_idx) {
            Some(step) => match step {
                PlanStep::Load(_) => "data_loading".to_string(),
                PlanStep::Sql(_) => "sql".to_string(),
                PlanStep::Compute { .. } => "python".to_string(),
                PlanStep::Visualize { .. } => "visualization".to_string(),
            },
            None => "documentation".to_string(),
        }
    });

    {
        let ctx = ctx.clone();
        g.add_node("data_loading", move |state: &mut RunState| {
            let span = ctx.obs.tracer.span("node:data_loading");
            span.set_attr("stage", "data_loading");
            span.set_attr("step", state.step_idx);
            let Some(PlanStep::Load(spec)) = state.plan.steps.get(state.step_idx).cloned()
            else {
                return Err(AgentError::Fatal("data_loading routed off-plan".into()));
            };
            let out = match crate::data_loading::run_load(&ctx, state, &spec) {
                Ok(stats) => GenOutcome::new(0, true, format!("loaded {} rows", stats.rows_loaded)),
                Err(AgentError::Fatal(m)) => return Err(AgentError::Fatal(m)),
                // Infrastructure failures abort the run for a clean
                // scheduler-level replay (see the supervisor note).
                Err(infra @ AgentError::Infra { .. }) => return Err(infra),
                Err(e) => GenOutcome::new(0, false, e.to_string()),
            };
            finish_node(&ctx, &span, &out);
            state.history.push(format!("data_loading: {}", out.message));
            record(state, "data_loading", out);
            Ok(NodeOutcome::Continue)
        });
        g.add_edge("data_loading", "supervisor");
    }

    {
        let ctx = ctx.clone();
        g.add_node("sql", move |state: &mut RunState| {
            let span = ctx.obs.tracer.span("node:sql");
            span.set_attr("stage", "sql");
            span.set_attr("step", state.step_idx);
            let Some(PlanStep::Sql(spec)) = state.plan.steps.get(state.step_idx).cloned()
            else {
                return Err(AgentError::Fatal("sql routed off-plan".into()));
            };
            let out = crate::sql_agent::run_sql(&ctx, state, &spec)?;
            // Live-progress hook: each materialized frame is announced
            // as it lands, so streaming clients see partial results.
            for sel in &spec.selects {
                if let Some(frame) = state.frames.get(&sel.output) {
                    span.event(
                        "frame_ready",
                        &[
                            ("frame", infera_obs::AttrValue::from(sel.output.as_str())),
                            ("rows", infera_obs::AttrValue::from(frame.n_rows())),
                            ("cols", infera_obs::AttrValue::from(frame.n_cols())),
                        ],
                    );
                }
            }
            finish_node(&ctx, &span, &out);
            state.history.push(format!("sql: {}\n{}", out.message, out.artifact));
            record(state, "sql", out);
            Ok(NodeOutcome::Continue)
        });
        g.add_edge("sql", "supervisor");
    }

    {
        let ctx = ctx.clone();
        g.add_node("python", move |state: &mut RunState| {
            let span = ctx.obs.tracer.span("node:python");
            span.set_attr("stage", "python");
            span.set_attr("step", state.step_idx);
            let Some(PlanStep::Compute { kind, input, output }) =
                state.plan.steps.get(state.step_idx).cloned()
            else {
                return Err(AgentError::Fatal("python routed off-plan".into()));
            };
            let out = crate::python_agent::run_compute(&ctx, state, &kind, &input, &output)?;
            if let Some(frame) = state.frames.get(&output) {
                span.event(
                    "frame_ready",
                    &[
                        ("frame", infera_obs::AttrValue::from(output.as_str())),
                        ("rows", infera_obs::AttrValue::from(frame.n_rows())),
                        ("cols", infera_obs::AttrValue::from(frame.n_cols())),
                    ],
                );
            }
            finish_node(&ctx, &span, &out);
            state.history.push(format!(
                "python[{}]: {}\n{}",
                kind.label(),
                out.message,
                out.artifact
            ));
            record(state, "python", out);
            Ok(NodeOutcome::Continue)
        });
        g.add_edge("python", "supervisor");
    }

    {
        let ctx = ctx.clone();
        g.add_node("visualization", move |state: &mut RunState| {
            let span = ctx.obs.tracer.span("node:visualization");
            span.set_attr("stage", "visualization");
            span.set_attr("step", state.step_idx);
            let Some(PlanStep::Visualize { kind, input, title }) =
                state.plan.steps.get(state.step_idx).cloned()
            else {
                return Err(AgentError::Fatal("visualization routed off-plan".into()));
            };
            let out = crate::viz_agent::run_visualize(&ctx, state, &kind, &input, &title)?;
            finish_node(&ctx, &span, &out);
            state.history.push(format!(
                "visualization[{}]: {}\n{}",
                kind.label(),
                out.message,
                out.artifact
            ));
            record(state, "visualization", out);
            Ok(NodeOutcome::Continue)
        });
        g.add_edge("visualization", "supervisor");
    }

    {
        let ctx = ctx.clone();
        g.add_node("documentation", move |state: &mut RunState| {
            let span = ctx.obs.tracer.span("node:documentation");
            span.set_attr("stage", "documentation");
            run_documentation(&ctx, state)?;
            Ok(NodeOutcome::End)
        });
    }

    g.set_entry("supervisor");
    g
}

/// Assess the Table 2 quality metrics from the final state.
fn assess(state: &RunState) -> (bool, bool) {
    let compute_ok = state
        .plan
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, PlanStep::Compute { .. } | PlanStep::Sql(_)))
        .all(|(i, _)| {
            state
                .outcomes
                .iter()
                .any(|o| o.step == i && o.success)
        });
    let satisfactory_data = compute_ok
        && !state.data_outputs.is_empty()
        && !state.flags.wrong_tool
        && !state.flags.bad_analysis;

    let viz_steps: Vec<usize> = state
        .plan
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, PlanStep::Visualize { .. }))
        .map(|(i, _)| i)
        .collect();
    let viz_ok = !viz_steps.is_empty()
        && viz_steps.iter().all(|&i| {
            state
                .outcomes
                .iter()
                .any(|o| o.step == i && o.success)
        });
    let satisfactory_viz = viz_ok && !state.flags.bad_viz && !state.visualizations.is_empty();
    (satisfactory_data, satisfactory_viz)
}

/// Run one question end to end: planning stage + analysis stage +
/// reporting. This is the unit the evaluation harness calls 10 times per
/// question.
pub fn run_question(
    ctx: Arc<AgentContext>,
    question: &str,
    semantic: SemanticLevel,
) -> AgentResult<RunReport> {
    let plan = {
        let span = ctx.obs.tracer.span("node:planning");
        span.set_attr("stage", "planner");
        let (_intent, plan) = plan_question(&ctx, question);
        span.set_attr("plan_steps", plan.steps.len());
        // Live-progress hook: a subscriber watching the bus sees the
        // plan land before any step executes.
        span.event(
            "plan_ready",
            &[("plan_steps", infera_obs::AttrValue::from(plan.steps.len()))],
        );
        plan
    };
    run_question_with_plan(ctx, question, semantic, plan)
}

/// Run a user-reviewed (possibly edited) plan — the planning-stage
/// feedback loop's output (§3: the plan is "a road map for both the user
/// and the downstream agents"; users can modify it before approval).
pub fn run_question_with_plan(
    ctx: Arc<AgentContext>,
    question: &str,
    semantic: SemanticLevel,
    plan: crate::state::Plan,
) -> AgentResult<RunReport> {
    // The analysis span is the run's wall-clock authority: `wall_ms`
    // below is this span's duration, so the trace and the report can
    // never disagree (the old parallel `Instant::now()` path is gone).
    let analysis_span = ctx.obs.tracer.span("analysis");
    analysis_span.set_attr("question", question);
    let mut state = RunState::new(question, semantic, plan);

    let graph = build_workflow(ctx.clone());
    graph.run(&mut state)?;

    // Stateful architecture: checkpoint the final environment so analysts
    // can branch from it (§4.2.1).
    let state_json = serde_json::to_string(&serde_json::json!({
        "question": state.question,
        "completed_steps": state.outcomes.iter().filter(|o| o.success).count(),
        "failed": state.failed,
    }))
    .map_err(|e| AgentError::Fatal(format!("checkpoint state serialization: {e}")))?;
    infera_provenance::save_checkpoint(&ctx.prov, "final", None, &state.frames, &state_json)
        .map_err(AgentError::from)?;
    let frames = ctx.prov.frame_counts();
    ctx.obs.metrics.inc(metric_names::PROV_FRAMES_PUT, frames.put);
    ctx.obs
        .metrics
        .inc(metric_names::PROV_FRAMES_RENDERED, frames.rendered);

    let (satisfactory_data, satisfactory_viz) = assess(&state);
    let completed = !state.failed
        && state.outcomes.iter().filter(|o| o.success).count() == state.plan.steps.len();
    let result = state
        .plan
        .steps
        .iter()
        .rev()
        .find_map(|s| match s {
            PlanStep::Compute { output, .. } => state.frames.get(output).cloned(),
            _ => None,
        });

    if state.failed {
        ctx.obs.metrics.inc(metric_names::RUN_ABORTS, 1);
    }
    analysis_span.set_attr("completed", completed);
    analysis_span.set_attr("redos", u64::from(state.total_redos()));
    // Live-progress hook: the terminal per-question event a streaming
    // client keys on.
    analysis_span.event(
        if state.failed { "run_failed" } else { "run_completed" },
        &[
            ("completed", infera_obs::AttrValue::from(completed)),
            (
                "redos",
                infera_obs::AttrValue::from(u64::from(state.total_redos())),
            ),
        ],
    );
    let wall_us = analysis_span.finish();
    let stage_costs = stage_breakdown(&ctx.obs.tracer);

    Ok(RunReport {
        question: question.to_string(),
        plan_steps: state.plan.n_analysis_steps(),
        completed,
        completion_fraction: state.completion_fraction(),
        redos: state.total_redos(),
        satisfactory_data,
        satisfactory_viz,
        tokens: ctx.llm.meter().total_tokens(),
        llm_latency_ms: ctx.llm.meter().total_latency_ms(),
        wall_ms: wall_us / 1000,
        storage_bytes: ctx.db.total_bytes() + ctx.prov.storage_bytes(),
        storage_logical_bytes: ctx.db.total_logical_bytes() + ctx.prov.storage_bytes(),
        flags: state.flags,
        result,
        visualizations: state.visualizations.clone(),
        summary: state.summary.clone(),
        stage_costs,
        metrics: ctx.obs.metrics.snapshot(),
        trace: ctx.obs.tracer.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{AgentContext, RunConfig};
    use infera_hacc::EnsembleSpec;
    use infera_llm::BehaviorProfile;
    use std::path::PathBuf;

    fn ctx(name: &str, seed: u64, profile: BehaviorProfile) -> Arc<AgentContext> {
        let base: PathBuf = std::env::temp_dir().join("infera_workflow_tests").join(name);
        std::fs::remove_dir_all(&base).ok();
        let manifest =
            infera_hacc::generate(&EnsembleSpec::tiny(29), &base.join("ens")).unwrap();
        Arc::new(
            AgentContext::new(
                Arc::new(manifest),
                &base.join("session"),
                seed,
                profile,
                RunConfig::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn perfect_run_completes_group_trend_question() {
        let c = ctx("grouptrend", 1, BehaviorProfile::perfect());
        let report = run_question(
            c.clone(),
            "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
            SemanticLevel::Easy,
        )
        .unwrap();
        assert!(report.completed, "{:?}", report.summary);
        assert_eq!(report.completion_fraction, 1.0);
        assert_eq!(report.redos, 0);
        assert!(report.satisfactory_data);
        assert!(report.satisfactory_viz);
        assert!(report.tokens > 5_000, "tokens {}", report.tokens);
        assert!(report.storage_bytes > 0);
        assert!(report.storage_logical_bytes >= report.storage_bytes);
        // The result is the per-step mean count with one row per step.
        let result = report.result.unwrap();
        assert_eq!(result.n_rows(), c.manifest.steps.len());
        assert!(result.has_column("mean_fof_halo_count"));
        // Mean count grows with time in the synthetic cosmology.
        let means = result
            .column("mean_fof_halo_count")
            .unwrap()
            .to_f64_vec()
            .unwrap();
        assert!(means.iter().all(|&m| m > 0.0));
    }

    #[test]
    fn perfect_run_completes_top_n_question() {
        let c = ctx("topn", 2, BehaviorProfile::perfect());
        let report = run_question(
            c.clone(),
            "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
            SemanticLevel::Easy,
        )
        .unwrap();
        assert!(report.completed, "{}", report.summary);
        let result = report.result.unwrap();
        assert!(result.n_rows() <= 20);
        // Verify against ground truth: the model's own catalog.
        let model = c.manifest.spec().model(0);
        let step = c.manifest.nearest_step(498);
        let truth = model
            .catalog_frame(infera_hacc::EntityKind::Halos, step)
            .top_n("fof_halo_mass", 20)
            .unwrap();
        let got_top = result.cell("fof_halo_mass", 0).unwrap().as_f64().unwrap();
        let want_top = truth.cell("fof_halo_mass", 0).unwrap().as_f64().unwrap();
        assert!((got_top - want_top).abs() / want_top < 1e-9);
    }

    #[test]
    fn failed_runs_report_partial_completion() {
        let mut p = BehaviorProfile::perfect();
        p.column_error_rate = [20.0; 3];
        p.p_redo_fixes = 0.0;
        let c = ctx("fails", 3, p);
        let report = run_question(
            c,
            "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
            SemanticLevel::Easy,
        )
        .unwrap();
        assert!(!report.completed);
        assert!(report.completion_fraction < 1.0);
        assert!(report.completion_fraction > 0.0, "load step still succeeds");
        assert!(report.redos >= 5);
        assert!(!report.satisfactory_data);
        assert!(report.summary.contains("terminated early"));
    }

    #[test]
    fn provenance_trail_covers_all_agents() {
        let c = ctx("trail", 4, BehaviorProfile::perfect());
        run_question(
            c.clone(),
            "How many halos are there at each timestep in simulation 0? Plot the count over time.",
            SemanticLevel::Easy,
        )
        .unwrap();
        let events = c.prov.events();
        let agents: std::collections::HashSet<&str> =
            events.iter().map(|e| e.agent.as_str()).collect();
        for required in ["data_loading", "sql", "python", "visualization", "documentation"] {
            assert!(agents.contains(required), "missing {required} in trail");
        }
        // Checkpoint saved for branching.
        assert!(!infera_provenance::list_checkpoints(&c.prov).unwrap().is_empty());
    }

    /// The final checkpoint stores each frame once, through the store's
    /// frame memo. Its record and the artifacts on disk must be those of
    /// the path that renders every frame of the environment again.
    #[test]
    fn checkpoint_record_equals_render_everything_record() {
        use infera_provenance::{ArtifactKind, ProvenanceStore};
        let c = ctx("ckptrecord", 6, BehaviorProfile::perfect());
        let question = "What are the slope and normalization of the relation between halo mass \
                        and velocity dispersion at timestep 624 in simulation 0? Show a scatter \
                        plot with the fitted line.";
        let (_, plan) = plan_question(&c, question);
        let mut state = RunState::new(question, SemanticLevel::Medium, plan);
        build_workflow(c.clone()).run(&mut state).unwrap();
        assert!(!state.failed, "{:?}", state.outcomes);
        let id = infera_provenance::save_checkpoint(&c.prov, "final", None, &state.frames, "{}")
            .unwrap();
        let record = infera_provenance::list_checkpoints(&c.prov)
            .unwrap()
            .into_iter()
            .find(|r| r.id == id)
            .unwrap();

        // Render everything, into a store that has seen none of it.
        let reference_dir = std::env::temp_dir().join("infera_workflow_tests/ckptrecord_ref");
        std::fs::remove_dir_all(&reference_dir).ok();
        let reference = ProvenanceStore::create(&reference_dir).unwrap();
        let mut names: Vec<&String> = state.frames.keys().collect();
        names.sort();
        assert!(names.len() >= 3, "steps plus side frames: {names:?}");
        let expected: Vec<(String, infera_provenance::ArtifactId)> = names
            .into_iter()
            .map(|name| {
                let csv = state.frames[name].to_csv_string();
                (name.clone(), reference.put_text(ArtifactKind::Csv, &csv).unwrap())
            })
            .collect();
        assert_eq!(record.frames, expected);

        let csv_listing = |store: &ProvenanceStore| -> std::collections::BTreeSet<String> {
            std::fs::read_dir(store.dir().join("artifacts"))
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|f| f.ends_with(".csv"))
                .collect()
        };
        let mut wanted = csv_listing(&reference);
        wanted.extend(state.data_outputs.iter().map(|a| a.0.clone()));
        assert_eq!(csv_listing(&c.prov), wanted);
        for (_, artifact) in &expected {
            assert_eq!(
                c.prov.get_text(artifact).unwrap(),
                reference.get_text(artifact).unwrap()
            );
        }
        // Step outputs reached the store twice (their step, then the
        // checkpoint), yet there is one render per CSV on disk.
        let counts = c.prov.frame_counts();
        assert!(counts.put > counts.rendered, "{counts:?}");
        assert_eq!(counts.rendered as usize, csv_listing(&c.prov).len(), "{counts:?}");
    }

    #[test]
    fn trace_reconciles_with_report() {
        let c = ctx("tracerec", 5, BehaviorProfile::default());
        let report = run_question(
            c.clone(),
            "How many halos are there at each timestep in simulation 0? Plot the count over time.",
            SemanticLevel::Easy,
        )
        .unwrap();

        // Every model call is charged to the meter AND traced as an
        // `llm_call` event, so the per-stage token/latency sums must
        // reconcile exactly with the report totals.
        let token_sum: u64 = report.stage_costs.iter().map(|s| s.tokens).sum();
        assert_eq!(token_sum, report.tokens);
        let latency_sum: u64 = report.stage_costs.iter().map(|s| s.llm_latency_ms).sum();
        assert_eq!(latency_sum, report.llm_latency_ms);
        let redo_sum: u64 = report.stage_costs.iter().map(|s| s.redos).sum();
        assert_eq!(redo_sum, u64::from(report.redos));

        let stages: Vec<&str> = report.stage_costs.iter().map(|s| s.stage.as_str()).collect();
        for required in ["planner", "supervisor", "sql", "documentation"] {
            assert!(stages.contains(&required), "missing stage {required} in {stages:?}");
        }

        // wall_ms is the analysis span's duration; specialist stage spans
        // nest inside it, planning runs just before it.
        let analysis_wall_us: u64 = report
            .stage_costs
            .iter()
            .filter(|s| s.stage != "planner")
            .map(|s| s.wall_us)
            .sum();
        assert!(
            analysis_wall_us / 1000 <= report.wall_ms + 1,
            "stage wall {analysis_wall_us}us exceeds run wall {}ms",
            report.wall_ms
        );

        // The trace exports as parseable JSONL covering every span.
        let jsonl = infera_obs::trace_to_jsonl(&report.trace, &std::collections::BTreeMap::new());
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["type"] == "span" || v["type"] == "event");
        }
        assert!(c.obs.metrics.counter("sql.queries") > 0);
    }

    #[test]
    fn full_run_metric_names_are_all_declared_constants() {
        // An error-prone profile exercises the redo/failure counters too.
        let mut p = BehaviorProfile::default();
        p.column_error_rate = [8.0; 3];
        let c = ctx("hygiene", 6, p);
        let report = run_question(
            c,
            "How many halos are there at each timestep in simulation 0? Plot the count over time.",
            SemanticLevel::Easy,
        )
        .unwrap();
        let snap = &report.metrics;
        let undeclared: Vec<&String> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .filter(|name| !metric_names::is_declared(name))
            .collect();
        assert!(
            undeclared.is_empty(),
            "metric names not declared in obs::metric_names: {undeclared:?}"
        );
        // A full run executes SQL, so the cost-based planner and the
        // morsel executor must have reported their counters.
        for required in [
            metric_names::PLAN_CANDIDATES_CONSIDERED,
            metric_names::MORSEL_COUNT,
        ] {
            assert!(
                snap.counters.get(required).copied().unwrap_or(0) > 0,
                "expected counter {required} in a full run: {:?}",
                snap.counters.keys().collect::<Vec<_>>()
            );
        }
        assert!(
            snap.histograms.contains_key(metric_names::MORSEL_QUEUE_WAIT_MS),
            "morsel pool must report queue-wait time"
        );
    }

    #[test]
    fn bus_streams_live_progress_for_a_full_run() {
        let c = ctx("busrun", 7, BehaviorProfile::perfect());
        let bus = infera_obs::EventBus::new();
        c.obs
            .tracer
            .attach_bus(bus.clone(), &[("job", infera_obs::AttrValue::from(1u64))]);
        let sub = bus.subscribe(4096);
        run_question(
            c,
            "How many halos are there at each timestep in simulation 0? Plot the count over time.",
            SemanticLevel::Easy,
        )
        .unwrap();
        let events = sub.drain();
        assert!(events.len() > 10, "only {} events streamed", events.len());
        let names: Vec<String> = events
            .iter()
            .filter_map(|e| match &e.kind {
                infera_obs::BusEventKind::Point { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.iter().any(|n| n == "plan_ready"), "{names:?}");
        assert!(names.iter().any(|n| n == "run_completed"), "{names:?}");
        // Span lifecycle arrives in open/close pairs for the same ids.
        let opened = events
            .iter()
            .filter(|e| matches!(e.kind, infera_obs::BusEventKind::SpanOpened { .. }))
            .count();
        let closed = events
            .iter()
            .filter(|e| matches!(e.kind, infera_obs::BusEventKind::SpanClosed { .. }))
            .count();
        assert_eq!(opened, closed);
        assert_eq!(sub.dropped(), 0, "capacity was ample; nothing dropped");
    }

    #[test]
    fn deterministic_given_seed() {
        let q = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?";
        let r1 = run_question(ctx("det_a", 77, BehaviorProfile::default()), q, SemanticLevel::Easy)
            .unwrap();
        let r2 = run_question(ctx("det_b", 77, BehaviorProfile::default()), q, SemanticLevel::Easy)
            .unwrap();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.redos, r2.redos);
        assert_eq!(r1.tokens, r2.tokens);
    }
}
