//! Shared per-run context: substrates, configuration, prompt assembly.

use crate::error::{AgentError, AgentResult, CancelKind};
use crate::shared_cache::SharedEnsembleCache;
use infera_hacc::Manifest;
use infera_shard::SessionDb;
use infera_llm::{BehaviorProfile, SemanticLevel, SimulatedLlm, TokenMeter};
use infera_provenance::ProvenanceStore;
use infera_rag::{Doc, Retriever};
use infera_sandbox::{SandboxServer, ToolRegistry};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation handle shared between a run and its caller.
///
/// The serving layer arms a token per job (explicit cancel + optional
/// deadline); the supervisor checks it between plan steps, so a canceled
/// run stops at the next step boundary with [`AgentError::Canceled`]
/// rather than being killed mid-write. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    canceled: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (idempotent; takes effect at the next check).
    pub fn cancel(&self) {
        self.inner.canceled.store(true, Ordering::SeqCst);
    }

    /// Whether `cancel` has been called.
    pub fn is_canceled(&self) -> bool {
        self.inner.canceled.load(Ordering::SeqCst)
    }

    /// Arm a deadline `timeout` from now; the earliest armed deadline
    /// wins if called more than once.
    pub fn arm_deadline(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut slot = self.inner.deadline.lock();
        match *slot {
            Some(existing) if existing <= deadline => {}
            _ => *slot = Some(deadline),
        }
    }

    /// Error out if the token is canceled or past its deadline.
    pub fn check(&self) -> AgentResult<()> {
        if self.is_canceled() {
            return Err(AgentError::Canceled(CancelKind::Canceled));
        }
        if let Some(deadline) = *self.inner.deadline.lock() {
            if Instant::now() >= deadline {
                return Err(AgentError::Canceled(CancelKind::DeadlineExceeded));
            }
        }
        Ok(())
    }
}

/// How much conversation history each specialist prompt carries (§4.2.5:
/// only the supervisor sees full history by default; specialists get only
/// their delegated task, cutting token cost without hurting completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContextPolicy {
    /// Every agent sees the full message history (the expensive baseline).
    FullHistory,
    /// Specialists see only their delegated task (InferA's design).
    LimitedContext,
}

/// Quality-assurance judgement mode (§4.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QaMode {
    /// 1–100 score against a threshold (InferA's design; threshold 50).
    Scored { threshold: u8 },
    /// Binary correct/incorrect (the rejected design, kept for the
    /// ablation bench).
    Binary,
}

/// Per-run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Maximum revision attempts per step (paper: 5).
    pub max_revisions: u32,
    pub context_policy: ContextPolicy,
    pub qa_mode: QaMode,
    /// Whether a human answers clarification requests (the evaluation
    /// runs with this off: "ignore missing requirements and continue").
    pub human_feedback: bool,
    /// Whether the documentation agent writes its workflow summary.
    /// §4.1.4 notes the summary "is not strictly necessary for core
    /// analysis" — disabling it is one of the paper's token savings.
    pub enable_documentation: bool,
    /// Fraction of each model call's virtual latency that is actually
    /// slept (0.0 = record only, the default). The serving benchmark
    /// sets this so concurrency wins come from overlapping model waits,
    /// the way a real LLM-backed deployment behaves. Sleeping never
    /// touches the RNG, so results are identical at any scale.
    #[serde(default)]
    pub llm_sleep_scale: f64,
    /// Shards the session database splits into (0 or 1 = a single
    /// database, no scatter-gather). With more, the loader partitions
    /// tables by simulation and `ask` queries scatter plan fragments
    /// across the shard set — bit-identical results, 1/N scans each.
    #[serde(default)]
    pub shards: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_revisions: 5,
            context_policy: ContextPolicy::LimitedContext,
            qa_mode: QaMode::Scored { threshold: 50 },
            human_feedback: false,
            enable_documentation: true,
            llm_sleep_scale: 0.0,
            shards: 0,
        }
    }
}

/// Everything an agent needs to act: model, retrieval, storage, sandbox,
/// provenance, configuration.
///
/// The context is `Send + Sync` (asserted below): sessions hand out
/// `Arc<AgentContext>` and the serving layer runs each one on a worker
/// thread. The manifest and the retrieval index are `Arc`-shared across
/// all runs of a session — the ensemble metadata is opened, and its
/// dictionaries indexed, once, not per run.
pub struct AgentContext {
    pub llm: SimulatedLlm,
    pub retriever: Arc<Retriever>,
    pub manifest: Arc<Manifest>,
    pub db: SessionDb,
    pub sandbox: SandboxServer,
    pub prov: ProvenanceStore,
    pub config: RunConfig,
    /// The run's observability context: one trace tree + one metrics
    /// registry shared by the model, the database, the sandbox, and the
    /// workflow nodes.
    pub obs: infera_obs::Obs,
    /// Cooperative cancellation: the supervisor checks this between plan
    /// steps. Unarmed by default.
    pub cancel: CancelToken,
    /// Shared decoded-batch cache (serving layer); `None` means every
    /// load decodes from the ensemble files.
    pub shared_cache: Option<Arc<SharedEnsembleCache>>,
}

/// `AgentContext` must stay shareable across worker threads — the whole
/// serving layer rests on this bound.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AgentContext>();
};

/// Index an ensemble's metadata: one document per column of the column
/// dictionary plus one per topic of the file-structure dictionary (§3.1).
pub fn metadata_index(manifest: &Manifest) -> Retriever {
    let mut docs: Vec<Doc> = infera_hacc::column_dictionary()
        .into_iter()
        .map(|c| Doc::new(&c.column, &c.entity, &c.description, c.important))
        .collect();
    for (i, s) in infera_hacc::structure_dictionary(manifest)
        .into_iter()
        .enumerate()
    {
        docs.push(Doc::new(
            &format!("structure_{i}"),
            "structure",
            &format!("{}: {}", s.topic, s.description),
            false,
        ));
    }
    Retriever::new(docs)
}

impl AgentContext {
    /// Assemble a context for one run.
    ///
    /// `session_dir` receives the run's database and provenance store.
    /// The retriever indexes the ensemble's metadata dictionaries
    /// ([`metadata_index`]); the sandbox is loaded with the domain tools.
    pub fn new(
        manifest: Arc<Manifest>,
        session_dir: &Path,
        seed: u64,
        profile: BehaviorProfile,
        config: RunConfig,
    ) -> AgentResult<AgentContext> {
        let retriever = Arc::new(metadata_index(&manifest));
        AgentContext::new_with_obs(
            manifest,
            retriever,
            session_dir,
            seed,
            profile,
            config,
            infera_obs::Obs::new(),
        )
    }

    /// [`AgentContext::new`] with a caller-provided retrieval index and
    /// observability context. A session builds the index once
    /// ([`metadata_index`]) and hands every run an `Arc` of it. The serve
    /// scheduler hands each job an `Obs` it keeps a handle on — so the
    /// job's trace and metrics stay reachable even when the run fails and
    /// produces no `RunReport`, and the tracer can be bus-attached before
    /// the run starts.
    pub fn new_with_obs(
        manifest: Arc<Manifest>,
        retriever: Arc<Retriever>,
        session_dir: &Path,
        seed: u64,
        profile: BehaviorProfile,
        config: RunConfig,
        obs: infera_obs::Obs,
    ) -> AgentResult<AgentContext> {
        let meter = TokenMeter::new();
        // §4.2.2: interactive review suppresses approach-level error modes
        // at the profile level, so every agent inherits the gate.
        let profile = if config.human_feedback {
            profile.with_human_supervision()
        } else {
            profile
        };
        let llm = SimulatedLlm::new(seed, profile, meter)
            .with_tracer(obs.tracer.clone())
            .with_latency_sleep(config.llm_sleep_scale);
        let db = SessionDb::create(
            &session_dir.join("db"),
            config.shards,
            manifest.n_sims,
            manifest.fingerprint(),
            obs.clone(),
        )
        .map_err(|e| AgentError::Fatal(e.to_string()))?;
        let prov = ProvenanceStore::create(&session_dir.join("provenance"))
            .map_err(|e| AgentError::Fatal(e.to_string()))?;

        let mut tools = ToolRegistry::new();
        infera_sandbox::domain::register_domain_tools(&mut tools);
        let sandbox = SandboxServer::new(tools).with_obs(obs.clone());

        Ok(AgentContext {
            llm,
            retriever,
            manifest,
            db,
            sandbox,
            prov,
            config,
            obs,
            cancel: CancelToken::new(),
            shared_cache: None,
        })
    }

    /// Semantic level shortcut used by the error model.
    pub fn semantic(&self, state: &crate::state::RunState) -> SemanticLevel {
        state.semantic
    }

    /// Build a specialist prompt respecting the context policy: the
    /// agent's system preamble + task + retrieved context (+ full history
    /// only under `FullHistory`).
    pub fn build_prompt(
        &self,
        agent: &str,
        state: &crate::state::RunState,
        task: &str,
        retrieved: &[Doc],
    ) -> String {
        let mut prompt = String::new();
        prompt.push_str(crate::prompts::preamble(agent));
        prompt.push_str("\n\n## Question\n");
        prompt.push_str(&state.question);
        prompt.push_str("\n\n## Delegated task\n");
        prompt.push_str(task);
        prompt.push_str("\n\n## Plan\n");
        prompt.push_str(&state.plan.to_text());
        if !retrieved.is_empty() {
            prompt.push_str("\n## Retrieved data context\n");
            for d in retrieved {
                prompt.push_str(&format!("- {} ({}): {}\n", d.key, d.entity, d.text));
            }
        }
        // Working-frame previews (`df.head()` style, the way agent
        // frameworks ground generation in actual data), in sorted order
        // for deterministic token accounting.
        if !state.frames.is_empty() {
            prompt.push_str("\n## Working dataframes\n");
            let mut names: Vec<&String> = state.frames.keys().collect();
            names.sort();
            for name in names.into_iter().take(8) {
                let frame = &state.frames[name];
                prompt.push_str(&format!(
                    "### {name} ({} rows x {} cols)\n{}\n",
                    frame.n_rows(),
                    frame.n_cols(),
                    frame.to_display(4)
                ));
            }
        }
        // Registered custom tools (shipped with every call, as LangChain
        // ships tool schemas).
        prompt.push_str("\n## Available custom tools\n");
        prompt.push_str(&self.sandbox.tools().catalog());
        prompt.push('\n');
        if self.config.context_policy == ContextPolicy::FullHistory {
            prompt.push_str("\n## Conversation history\n");
            for h in &state.history {
                prompt.push_str(h);
                prompt.push('\n');
            }
        }
        prompt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{Plan, RunState};
    use infera_hacc::EnsembleSpec;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("infera_ctx_tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn manifest(name: &str) -> Arc<Manifest> {
        let root = tmp(&format!("{name}_ens"));
        Arc::new(infera_hacc::generate(&EnsembleSpec::tiny(5), &root).unwrap())
    }

    #[test]
    fn context_builds_with_all_substrates() {
        let m = manifest("builds");
        let dir = tmp("builds_session");
        let ctx = AgentContext::new(
            m,
            &dir,
            42,
            BehaviorProfile::default(),
            RunConfig::default(),
        )
        .unwrap();
        assert!(ctx.retriever.len() > 40, "retriever indexes all columns");
        assert!(ctx.sandbox.tools().names().contains(&"track_halo".to_string()));
        assert_eq!(ctx.db.list_tables().len(), 0);
    }

    #[test]
    fn prompt_respects_context_policy() {
        let m = manifest("policy");
        let dir = tmp("policy_session");
        let mut config = RunConfig::default();
        let mut state = RunState::new("find halos", SemanticLevel::Easy, Plan::default());
        state.history.push("supervisor: delegated step 1".into());

        config.context_policy = ContextPolicy::LimitedContext;
        let ctx = AgentContext::new(m.clone(), &dir, 1, BehaviorProfile::default(), config)
            .unwrap();
        let p = ctx.build_prompt("data_loading", &state, "load halo data", &[]);
        assert!(p.contains("Delegated task"));
        assert!(!p.contains("Conversation history"));

        let dir2 = tmp("policy_session2");
        let mut config2 = RunConfig::default();
        config2.context_policy = ContextPolicy::FullHistory;
        let ctx2 =
            AgentContext::new(m, &dir2, 1, BehaviorProfile::default(), config2).unwrap();
        let p2 = ctx2.build_prompt("data_loading", &state, "load halo data", &[]);
        assert!(p2.contains("Conversation history"));
        assert!(p2.len() > p.len());
    }

    #[test]
    fn cancel_token_checks() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        t.arm_deadline(std::time::Duration::from_secs(3600));
        assert!(t.check().is_ok());
        t.arm_deadline(std::time::Duration::from_millis(0));
        assert!(matches!(
            t.check(),
            Err(AgentError::Canceled(CancelKind::DeadlineExceeded))
        ));
        let t2 = CancelToken::new();
        let shared = t2.clone();
        shared.cancel();
        assert!(matches!(
            t2.check(),
            Err(AgentError::Canceled(CancelKind::Canceled))
        ));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = RunConfig::default();
        assert_eq!(c.max_revisions, 5);
        assert_eq!(c.qa_mode, QaMode::Scored { threshold: 50 });
        assert!(!c.human_feedback);
    }
}
