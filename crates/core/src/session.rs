//! The user-facing InferA session API.
//!
//! ```no_run
//! use infera_core::session::InferA;
//!
//! // Open a generated ensemble and ask questions.
//! let infera = InferA::builder("/tmp/ens")
//!     .work_dir("/tmp/work")
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let report = infera.ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?").unwrap();
//! println!("completed: {}", report.completed);
//! ```
//!
//! Each `ask` is one full two-stage workflow (planning + analysis) with
//! its own database, provenance store and seeded model stream, laid out
//! under `<work_dir>/run_NNNN/`. All entry points funnel through
//! [`InferA::ask_opts`]; `ask` / `ask_with_plan` / `ask_with_semantic`
//! are one-line wrappers over it.
//!
//! Sessions are `Send + Sync`: the serving layer (`infera-serve`) runs
//! many `ask_opts` calls concurrently against one session, sharing the
//! ensemble manifest, the retrieval index and the decoded-batch cache
//! across worker threads.

use crate::errors::{InferaError, InferaResult};
use infera_agents::{
    AgentContext, CancelToken, RunConfig, RunReport, SharedEnsembleCache,
};
use infera_hacc::Manifest;
use infera_llm::{BehaviorProfile, SemanticLevel};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Session-wide configuration.
///
/// Marked `#[non_exhaustive]`: construct it with [`SessionConfig::default`]
/// plus the fluent `with_*` setters so new knobs (serve timeouts, cache
/// sizes) can land without breaking downstream builds.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SessionConfig {
    /// Master seed; each run forks a deterministic child stream.
    pub seed: u64,
    /// Behaviour profile of the simulated model.
    pub profile: BehaviorProfile,
    pub run_config: RunConfig,
    /// Default per-job deadline applied to every ask (and serve job)
    /// that doesn't carry its own [`AskOptions::timeout`]. `None` means
    /// runs are not deadline-bounded.
    pub job_timeout: Option<Duration>,
    /// Capacity of the serving layer's result cache (distinct
    /// `(question, fingerprint, seed, semantic)` keys).
    pub result_cache_entries: usize,
    /// Capacity of the shared decoded-batch cache (distinct
    /// `(sim, step, entity, columns)` selections).
    pub shared_cache_entries: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            seed: 42,
            profile: BehaviorProfile::default(),
            run_config: RunConfig::default(),
            job_timeout: None,
            result_cache_entries: 256,
            shared_cache_entries: 512,
        }
    }
}

impl SessionConfig {
    pub fn with_seed(mut self, seed: u64) -> SessionConfig {
        self.seed = seed;
        self
    }

    pub fn with_profile(mut self, profile: BehaviorProfile) -> SessionConfig {
        self.profile = profile;
        self
    }

    pub fn with_run_config(mut self, run_config: RunConfig) -> SessionConfig {
        self.run_config = run_config;
        self
    }

    /// Split every run's session database into `shards` ensemble
    /// partitions; queries scatter-gather across them (bit-identical
    /// results). `0` or `1` keeps the single-database layout.
    pub fn with_shards(mut self, shards: usize) -> SessionConfig {
        self.run_config.shards = shards;
        self
    }

    /// Default deadline for every run (see [`SessionConfig::job_timeout`]).
    pub fn with_job_timeout(mut self, timeout: Duration) -> SessionConfig {
        self.job_timeout = Some(timeout);
        self
    }

    pub fn with_result_cache_entries(mut self, entries: usize) -> SessionConfig {
        self.result_cache_entries = entries;
        self
    }

    pub fn with_shared_cache_entries(mut self, entries: usize) -> SessionConfig {
        self.shared_cache_entries = entries;
        self
    }
}

/// Per-ask options: the one options struct behind every ask variant.
///
/// `#[non_exhaustive]` with fluent setters, like [`SessionConfig`].
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct AskOptions {
    /// Execute this user-reviewed plan instead of planning from scratch.
    pub plan: Option<infera_agents::Plan>,
    /// Explicit semantic level (default: estimated from the wording).
    pub semantic: Option<SemanticLevel>,
    /// Explicit run salt; runs with the same `(session seed, salt)`
    /// replay identically. Default: the session's ask counter.
    pub seed: Option<u64>,
    /// Per-run deadline; overrides [`SessionConfig::job_timeout`].
    pub timeout: Option<Duration>,
    /// Caller-held cancellation handle (the serving layer arms one per
    /// job so queued and running jobs can be aborted).
    pub cancel: Option<CancelToken>,
    /// Caller-provided observability context. The serving layer passes
    /// one so the run's trace and metrics stay reachable even when the
    /// run fails (no `RunReport` to carry them) and so the tracer can be
    /// attached to a live event bus before the run starts.
    pub obs: Option<infera_obs::Obs>,
}

impl AskOptions {
    pub fn new() -> AskOptions {
        AskOptions::default()
    }

    pub fn plan(mut self, plan: infera_agents::Plan) -> AskOptions {
        self.plan = Some(plan);
        self
    }

    pub fn semantic(mut self, level: SemanticLevel) -> AskOptions {
        self.semantic = Some(level);
        self
    }

    pub fn seed(mut self, salt: u64) -> AskOptions {
        self.seed = Some(salt);
        self
    }

    pub fn timeout(mut self, timeout: Duration) -> AskOptions {
        self.timeout = Some(timeout);
        self
    }

    pub fn cancel_token(mut self, token: CancelToken) -> AskOptions {
        self.cancel = Some(token);
        self
    }

    pub fn obs(mut self, obs: infera_obs::Obs) -> AskOptions {
        self.obs = Some(obs);
        self
    }
}

/// Where a builder gets its ensemble from.
enum EnsembleSource {
    Root(PathBuf),
    Manifest(Box<Manifest>),
}

/// Fluent constructor for [`InferA`] sessions.
///
/// Obtained from [`InferA::builder`] (ensemble directory on disk) or
/// [`InferA::from_manifest`] (already-loaded manifest).
pub struct SessionBuilder {
    source: EnsembleSource,
    work_dir: Option<PathBuf>,
    config: SessionConfig,
}

impl SessionBuilder {
    /// Directory receiving per-run databases and provenance stores.
    pub fn work_dir(mut self, dir: impl AsRef<Path>) -> SessionBuilder {
        self.work_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Replace the whole configuration.
    pub fn config(mut self, config: SessionConfig) -> SessionBuilder {
        self.config = config;
        self
    }

    /// Shorthand for setting the master seed on the current config.
    pub fn seed(mut self, seed: u64) -> SessionBuilder {
        self.config.seed = seed;
        self
    }

    /// Shorthand for setting the behaviour profile on the current config.
    pub fn profile(mut self, profile: BehaviorProfile) -> SessionBuilder {
        self.config.profile = profile;
        self
    }

    /// Shorthand for setting the run config on the current config.
    pub fn run_config(mut self, run_config: RunConfig) -> SessionBuilder {
        self.config.run_config = run_config;
        self
    }

    /// Build the session: loads the manifest (when opening from disk),
    /// indexes its metadata for retrieval and allocates the shared caches.
    pub fn build(self) -> InferaResult<InferA> {
        let manifest = match self.source {
            EnsembleSource::Manifest(m) => *m,
            EnsembleSource::Root(root) => Manifest::load(&root)?,
        };
        let work_dir = self.work_dir.ok_or_else(|| {
            InferaError::invalid_input("SessionBuilder: work_dir is required (call .work_dir(..))")
        })?;
        let shared_cache = Arc::new(SharedEnsembleCache::new(
            self.config.shared_cache_entries,
        ));
        // Resume run numbering past any run_NNNN dirs a previous session
        // left in this work dir — reusing a run dir would hand the new
        // run a database that already holds the old run's tables.
        let next_run = existing_run_count(&work_dir);
        Ok(InferA {
            retriever: Arc::new(infera_agents::metadata_index(&manifest)),
            manifest: Arc::new(manifest),
            work_dir,
            config: self.config,
            run_counter: Mutex::new(next_run),
            shared_cache,
        })
    }
}

/// Highest `run_NNNN` index already present under `work_dir` (0 when the
/// directory is empty or absent).
fn existing_run_count(work_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(work_dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("run_"))
                .and_then(|n| n.parse::<u64>().ok())
        })
        .max()
        .unwrap_or(0)
}

/// An InferA session bound to one ensemble.
///
/// `Send + Sync`: the serving layer shares one session across worker
/// threads via `Arc<InferA>`.
pub struct InferA {
    manifest: Arc<Manifest>,
    /// Retrieval index over the manifest's metadata, shared by every run.
    retriever: Arc<infera_rag::Retriever>,
    work_dir: PathBuf,
    config: SessionConfig,
    run_counter: Mutex<u64>,
    /// Decoded-batch cache shared by every run of this session.
    shared_cache: Arc<SharedEnsembleCache>,
}

impl std::fmt::Debug for InferA {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferA")
            .field("ensemble", &self.manifest.root)
            .field("work_dir", &self.work_dir)
            .field("seed", &self.config.seed)
            .finish_non_exhaustive()
    }
}

impl InferA {
    /// Start building a session over an ensemble directory on disk.
    pub fn builder(ensemble_root: impl AsRef<Path>) -> SessionBuilder {
        SessionBuilder {
            source: EnsembleSource::Root(ensemble_root.as_ref().to_path_buf()),
            work_dir: None,
            config: SessionConfig::default(),
        }
    }

    /// Start building a session over an already-loaded manifest (e.g.
    /// straight from `infera_hacc::generate`).
    pub fn from_manifest(manifest: Manifest) -> SessionBuilder {
        SessionBuilder {
            source: EnsembleSource::Manifest(Box::new(manifest)),
            work_dir: None,
            config: SessionConfig::default(),
        }
    }

    /// The ensemble manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The shared decoded-batch cache (hit/miss counters for the serve
    /// metrics).
    pub fn shared_cache(&self) -> &Arc<SharedEnsembleCache> {
        &self.shared_cache
    }

    fn next_run_dir(&self) -> (u64, PathBuf) {
        let mut counter = self.run_counter.lock();
        *counter += 1;
        (
            *counter,
            self.work_dir.join(format!("run_{:04}", *counter)),
        )
    }

    /// Build a fresh per-run agent context (own DB, provenance, RNG fork).
    ///
    /// The per-run seed derives from `(session seed, salt)` only — not
    /// from the run counter — so runs with explicit salts replay
    /// identically even when executed concurrently.
    pub fn context_for_run(&self, salt: u64) -> InferaResult<Arc<AgentContext>> {
        self.context_for(salt, &AskOptions::default())
    }

    fn context_for(&self, salt: u64, opts: &AskOptions) -> InferaResult<Arc<AgentContext>> {
        let (_, dir) = self.next_run_dir();
        let run_seed = self
            .config
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(salt.wrapping_mul(0xD1B54A32D192ED03) | 1);
        let mut ctx = AgentContext::new_with_obs(
            self.manifest.clone(),
            self.retriever.clone(),
            &dir,
            run_seed,
            self.config.profile.clone(),
            self.config.run_config,
            opts.obs.clone().unwrap_or_default(),
        )?;
        ctx.shared_cache = Some(self.shared_cache.clone());
        if let Some(token) = &opts.cancel {
            ctx.cancel = token.clone();
        }
        if let Some(timeout) = opts.timeout.or(self.config.job_timeout) {
            ctx.cancel.arm_deadline(timeout);
        }
        Ok(Arc::new(ctx))
    }

    /// Preview the planning stage for a question (no execution).
    pub fn plan(&self, question: &str) -> InferaResult<(infera_agents::Intent, infera_agents::Plan)> {
        let ctx = self.context_for_run(0x504C_414E)?; // "PLAN"
        Ok(infera_agents::plan_question(&ctx, question))
    }

    /// Ask a question end to end, estimating its semantic level from the
    /// wording (interactive use). Each successive ask uses a fresh salt.
    pub fn ask(&self, question: &str) -> InferaResult<RunReport> {
        self.ask_opts(question, AskOptions::new())
    }

    /// Execute a user-reviewed (possibly edited) plan: the interactive
    /// loop is `plan()` → user edits → `ask_with_plan()`.
    pub fn ask_with_plan(
        &self,
        question: &str,
        plan: infera_agents::Plan,
    ) -> InferaResult<RunReport> {
        self.ask_opts(question, AskOptions::new().plan(plan))
    }

    /// Ask with an explicit semantic level and run salt (the evaluation
    /// harness supplies the question set's labels and run indices).
    pub fn ask_with_semantic(
        &self,
        question: &str,
        semantic: SemanticLevel,
        salt: u64,
    ) -> InferaResult<RunReport> {
        self.ask_opts(question, AskOptions::new().semantic(semantic).seed(salt))
    }

    /// The single ask entry point: every option (plan, semantic level,
    /// run salt, deadline, cancellation) in one struct.
    pub fn ask_opts(&self, question: &str, opts: AskOptions) -> InferaResult<RunReport> {
        let semantic = opts
            .semantic
            .unwrap_or_else(|| estimate_semantic_level(question));
        let salt = opts.seed.unwrap_or_else(|| *self.run_counter.lock());
        let ctx = self.context_for(salt, &opts)?;
        // Tag the run directory with its identity: under concurrent
        // execution the run_NNNN numbering is scheduling-dependent, so
        // the marker is what attributes a provenance trail to a question.
        if let Some(run_dir) = ctx.prov.dir().parent() {
            let marker = serde_json::json!({
                "question": question,
                "semantic": semantic.label(),
                "salt": salt,
                "session_seed": self.config.seed,
            });
            let marker_json = serde_json::to_string_pretty(&marker)?;
            std::fs::write(run_dir.join("run.json"), marker_json)?;
        }
        let report = match opts.plan {
            Some(plan) => {
                infera_agents::run_question_with_plan(ctx, question, semantic, plan)?
            }
            None => infera_agents::run_question(ctx, question, semantic)?,
        };
        Ok(report)
    }
}

/// Heuristic semantic-complexity estimate per §3.3: easy wording names
/// columns directly; medium uses normalized analysis vocabulary; hard
/// uses domain terminology absent from the metadata.
pub fn estimate_semantic_level(question: &str) -> SemanticLevel {
    let lower = question.to_ascii_lowercase();
    const HARD_TERMS: &[&str] = &[
        "intrinsic scatter",
        "velocity dispersion",
        "assembly",
        "baryon content",
        "gas-deficient",
        "characteristics",
        "direction of",
        "epoch",
        "smhm",
    ];
    const MEDIUM_TERMS: &[&str] = &[
        "slope",
        "normalization",
        "interestingness",
        "fastest",
        "unique",
        "star formation activity",
        "typical gas",
        "speed",
    ];
    if HARD_TERMS.iter().any(|t| lower.contains(t)) {
        SemanticLevel::Hard
    } else if MEDIUM_TERMS.iter().any(|t| lower.contains(t)) {
        SemanticLevel::Medium
    } else {
        SemanticLevel::Easy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infera_hacc::EnsembleSpec;

    fn session(name: &str) -> InferA {
        let base = std::env::temp_dir().join("infera_session_tests").join(name);
        std::fs::remove_dir_all(&base).ok();
        let manifest = infera_hacc::generate(&EnsembleSpec::tiny(31), &base.join("ens")).unwrap();
        InferA::from_manifest(manifest)
            .work_dir(base.join("work"))
            .profile(BehaviorProfile::perfect())
            .build()
            .unwrap()
    }

    #[test]
    fn plan_then_ask() {
        let s = session("plan_ask");
        let (_, plan) = s
            .plan("How many halos are there at each timestep in simulation 0? Plot the count over time.")
            .unwrap();
        assert!(plan.n_analysis_steps() >= 4);
        let report = s
            .ask("How many halos are there at each timestep in simulation 0? Plot the count over time.")
            .unwrap();
        assert!(report.completed, "{}", report.summary);
    }

    #[test]
    fn open_from_disk() {
        let base = std::env::temp_dir().join("infera_session_tests/open");
        std::fs::remove_dir_all(&base).ok();
        infera_hacc::generate(&EnsembleSpec::tiny(33), &base.join("ens")).unwrap();
        let s = InferA::builder(base.join("ens"))
            .work_dir(base.join("work"))
            .build()
            .unwrap();
        assert_eq!(s.manifest().n_sims, 2);
    }

    #[test]
    fn builder_requires_work_dir() {
        let base = std::env::temp_dir().join("infera_session_tests/nodir");
        std::fs::remove_dir_all(&base).ok();
        let manifest = infera_hacc::generate(&EnsembleSpec::tiny(35), &base.join("ens")).unwrap();
        let err = InferA::from_manifest(manifest).build().unwrap_err();
        assert_eq!(err.kind(), crate::errors::ErrorKind::InvalidInput);
    }

    #[test]
    fn missing_ensemble_is_an_ensemble_error() {
        let err = InferA::builder("/nonexistent/ensemble/path")
            .work_dir("/tmp/unused")
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), crate::errors::ErrorKind::Ensemble);
    }

    #[test]
    fn runs_land_in_separate_dirs() {
        let s = session("separate");
        s.ask("What is the maximum fof_halo_mass at timestep 624 in simulation 1?")
            .unwrap();
        s.ask("What is the maximum fof_halo_mass at timestep 624 in simulation 1?")
            .unwrap();
        let base = std::env::temp_dir().join("infera_session_tests/separate/work");
        assert!(base.join("run_0001").is_dir());
        assert!(base.join("run_0002").is_dir());
    }

    #[test]
    fn reopened_work_dir_resumes_run_numbering() {
        let q = "What is the maximum fof_halo_mass at timestep 624 in simulation 1?";
        let base = std::env::temp_dir().join("infera_session_tests/reopen");
        std::fs::remove_dir_all(&base).ok();
        let manifest = infera_hacc::generate(&EnsembleSpec::tiny(41), &base.join("ens")).unwrap();
        let build = || {
            InferA::from_manifest(manifest.clone())
                .work_dir(base.join("work"))
                .build()
                .unwrap()
        };
        build().ask(q).unwrap();
        // A fresh session over the same work dir must not hand run 1's
        // database (tables already staged) to its first run.
        let report = build().ask(q).unwrap();
        assert!(report.completed, "{}", report.summary);
        assert!(base.join("work/run_0001").is_dir());
        assert!(base.join("work/run_0002").is_dir());
    }

    #[test]
    fn ask_opts_equals_legacy_wrappers() {
        let q = "What is the maximum fof_halo_mass at timestep 624 in simulation 1?";
        let a = session("optseq_a")
            .ask_with_semantic(q, SemanticLevel::Easy, 7)
            .unwrap();
        let b = session("optseq_b")
            .ask_opts(q, AskOptions::new().semantic(SemanticLevel::Easy).seed(7))
            .unwrap();
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.redos, b.redos);
        assert_eq!(
            a.result.as_ref().map(|f| f.to_csv_string()),
            b.result.as_ref().map(|f| f.to_csv_string())
        );
    }

    #[test]
    fn zero_timeout_cancels_before_first_step() {
        let s = session("deadline");
        let err = s
            .ask_opts(
                "What is the maximum fof_halo_mass at timestep 624 in simulation 1?",
                AskOptions::new().timeout(Duration::from_millis(0)),
            )
            .unwrap_err();
        assert_eq!(err.kind(), crate::errors::ErrorKind::Timeout);
    }

    #[test]
    fn caller_cancel_token_aborts() {
        let s = session("cancel");
        let token = CancelToken::new();
        token.cancel();
        let err = s
            .ask_opts(
                "What is the maximum fof_halo_mass at timestep 624 in simulation 1?",
                AskOptions::new().cancel_token(token),
            )
            .unwrap_err();
        assert_eq!(err.kind(), crate::errors::ErrorKind::Canceled);
    }

    #[test]
    fn shared_cache_fills_and_hits_across_runs() {
        let s = session("sharedcache");
        let q = "What is the maximum fof_halo_mass at timestep 624 in simulation 1?";
        s.ask_with_semantic(q, SemanticLevel::Easy, 1).unwrap();
        let after_first = s.shared_cache().len();
        assert!(after_first > 0, "first run fills the cache");
        s.ask_with_semantic(q, SemanticLevel::Easy, 2).unwrap();
        assert!(s.shared_cache().hit_count() > 0, "second run hits");
        assert_eq!(s.shared_cache().len(), after_first, "no duplicate entries");
    }

    #[test]
    fn semantic_estimation() {
        assert_eq!(
            estimate_semantic_level("what is the average fof_halo_count per step"),
            SemanticLevel::Easy
        );
        assert_eq!(
            estimate_semantic_level("the slope and normalization of the relation"),
            SemanticLevel::Medium
        );
        assert_eq!(
            estimate_semantic_level("the intrinsic scatter of the SMHM relation"),
            SemanticLevel::Hard
        );
    }
}
