//! Seeded, deterministic fault injection for chaos testing the whole
//! stack.
//!
//! A [`FaultPlan`] names injection *sites* (string constants in
//! [`sites`]) and attaches a trigger (probability, nth call, or every-N
//! calls) plus a [`FaultMode`] to each. Components consult
//! [`check`] at their injection points; with no plan installed the cost
//! is a single relaxed atomic load (the same inactive-path discipline as
//! `obs::EventBus`), so production paths pay nothing.
//!
//! Determinism: probability triggers hash `(plan seed, site, call #)`
//! through splitmix64, so the same plan against the same call sequence
//! injects the same faults. `nth` triggers fire exactly once, which is
//! what chaos tests use when they need a retried run to succeed on the
//! second attempt.
//!
//! Plans parse from a compact spec (usable via the `INFERA_FAULTS` env
//! var or the `--faults` CLI flag):
//!
//! ```text
//! seed=42;storage.read=p0.05:error;llm.call=nth3:panic;cache.result=every10:miss
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Marker embedded in every injected error/panic message so recovery
/// code (and tests) can distinguish injected faults from organic ones.
pub const INJECTED_MARKER: &str = "fault-injected";

/// Well-known injection site names. Components pass these to [`check`];
/// plans reference them in specs. Keeping them here (rather than
/// scattered string literals) makes the fault surface greppable.
pub mod sites {
    /// Chunk read path in columnar storage (`TableStore::read_chunk_bytes`).
    pub const STORAGE_READ: &str = "storage.read";
    /// Chunk append path in columnar storage: one check per chunk per
    /// column, inside `TableStore::append_batches`.
    pub const STORAGE_APPEND: &str = "storage.append";
    /// Metadata flush (`TableStore::flush_meta`): one check per append
    /// call, after its last chunk.
    pub const STORAGE_META: &str = "storage.meta";
    /// Inside a serve worker's per-job execution (panic isolation target).
    pub const SERVE_JOB: &str = "serve.job";
    /// Top of the serve worker loop, outside any job (respawn target).
    pub const SERVE_WORKER: &str = "serve.worker";
    /// Serve-level result cache lookups (forced misses).
    pub const CACHE_RESULT: &str = "cache.result";
    /// Cross-run shared load cache lookups (forced misses).
    pub const CACHE_SHARED: &str = "cache.shared";
    /// Virtual LLM call boundary in the agent workflow.
    pub const LLM_CALL: &str = "llm.call";
    /// Fragment hand-over to a shard.
    pub const SHARD_SEND: &str = "shard.send";
    /// Fragment execution on a shard.
    pub const SHARD_EXEC: &str = "shard.exec";
    /// Partial-result merge in the scatter-gather combiner.
    pub const SHARD_MERGE: &str = "shard.merge";

    /// All site names, for spec validation and docs.
    pub fn all() -> &'static [&'static str] {
        &[
            STORAGE_READ,
            STORAGE_APPEND,
            STORAGE_META,
            SERVE_JOB,
            SERVE_WORKER,
            CACHE_RESULT,
            CACHE_SHARED,
            LLM_CALL,
            SHARD_SEND,
            SHARD_EXEC,
            SHARD_MERGE,
        ]
    }
}

/// What an injection site should do when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// Return a transient-looking error (e.g. an I/O failure).
    Error,
    /// Corrupt the payload (storage flips a byte before checksums run).
    Corrupt,
    /// Panic at the site (exercises `catch_unwind` isolation).
    Panic,
    /// Force a cache miss (the lookup pretends the entry is absent).
    Miss,
    /// Tear a write: persist only a prefix of the bytes (simulated
    /// crash mid-append).
    Torn,
}

impl FaultMode {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "error" => Ok(FaultMode::Error),
            "corrupt" => Ok(FaultMode::Corrupt),
            "panic" => Ok(FaultMode::Panic),
            "miss" => Ok(FaultMode::Miss),
            "torn" => Ok(FaultMode::Torn),
            other => Err(format!(
                "unknown fault mode '{other}' (expected error|corrupt|panic|miss|torn)"
            )),
        }
    }

    /// Stable lowercase label, for logs and counters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultMode::Error => "error",
            FaultMode::Corrupt => "corrupt",
            FaultMode::Panic => "panic",
            FaultMode::Miss => "miss",
            FaultMode::Torn => "torn",
        }
    }
}

/// When a rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire with this probability per call, decided deterministically
    /// from `(seed, site, call #)`.
    Probability(f64),
    /// Fire exactly once, on the k-th call (1-based).
    Nth(u64),
    /// Fire on every k-th call (k, 2k, 3k, ...).
    Every(u64),
}

impl Trigger {
    fn parse(s: &str) -> Result<Self, String> {
        if let Some(p) = s.strip_prefix('p') {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("bad probability in trigger '{s}'"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0,1] in trigger '{s}'"));
            }
            return Ok(Trigger::Probability(p));
        }
        if let Some(n) = s.strip_prefix("nth") {
            let n: u64 = n.parse().map_err(|_| format!("bad call index in trigger '{s}'"))?;
            if n == 0 {
                return Err("nth trigger is 1-based; nth0 never fires".to_string());
            }
            return Ok(Trigger::Nth(n));
        }
        if let Some(n) = s.strip_prefix("every") {
            let n: u64 = n.parse().map_err(|_| format!("bad period in trigger '{s}'"))?;
            if n == 0 {
                return Err("every0 is not a valid period".to_string());
            }
            return Ok(Trigger::Every(n));
        }
        Err(format!(
            "unknown trigger '{s}' (expected pX, nthK, or everyK)"
        ))
    }
}

/// One site's injection rule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    pub site: String,
    pub trigger: Trigger,
    pub mode: FaultMode,
}

/// A parsed, seeded fault plan. Install it process-wide with
/// [`install`]; tear it down with [`clear`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parse the compact spec grammar:
    /// `seed=N;site=trigger[:mode];site=trigger[:mode];...`
    ///
    /// Triggers: `pX` (probability, e.g. `p0.05`), `nthK` (fire once on
    /// call K, 1-based), `everyK` (fire on every K-th call). Mode
    /// defaults to `error`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad seed '{value}'"))?;
                continue;
            }
            if !sites::all().contains(&key) {
                return Err(format!(
                    "unknown fault site '{key}' (known: {})",
                    sites::all().join(", ")
                ));
            }
            let (trigger, mode) = match value.split_once(':') {
                Some((t, m)) => (Trigger::parse(t.trim())?, FaultMode::parse(m.trim())?),
                None => (Trigger::parse(value)?, FaultMode::Error),
            };
            rules.push(FaultRule { site: key.to_string(), trigger, mode });
        }
        if rules.is_empty() {
            return Err("fault plan has no rules".to_string());
        }
        Ok(FaultPlan { seed, rules })
    }
}

/// One installed rule plus its live counters.
struct ActiveRule {
    rule: FaultRule,
    calls: AtomicU64,
    injected: AtomicU64,
}

struct Installed {
    seed: u64,
    /// site -> rules for that site (a site may carry several rules).
    by_site: HashMap<String, Vec<ActiveRule>>,
}

/// Fast inactive gate: one relaxed load on every `check` when no plan
/// is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<Arc<Installed>>> = Mutex::new(None);

/// Injected panics unwind through this lock's critical sections only at
/// the call sites, never while the lock is held — but a poisoned lock
/// must not disable fault accounting, so poisoning is swallowed.
fn plan_lock() -> MutexGuard<'static, Option<Arc<Installed>>> {
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a: cheap, stable across runs and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Install a plan process-wide. Replaces any existing plan.
pub fn install(plan: FaultPlan) {
    let mut by_site: HashMap<String, Vec<ActiveRule>> = HashMap::new();
    for rule in plan.rules {
        by_site.entry(rule.site.clone()).or_default().push(ActiveRule {
            rule,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        });
    }
    *plan_lock() = Some(Arc::new(Installed { seed: plan.seed, by_site }));
    ACTIVE.store(true, Ordering::Release);
}

/// Remove the installed plan; all sites go back to the one-load fast
/// path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *plan_lock() = None;
}

/// Whether any plan is installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Install a plan from the `INFERA_FAULTS` env var, if set. Returns an
/// error only for a malformed spec; unset means no-op. Call explicitly
/// from binaries — libraries never read the environment on their own.
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var("INFERA_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install(FaultPlan::parse(&spec)?);
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Consult the plan at an injection site. Returns the fault to inject
/// on this call, or `None`. When no plan is installed this is a single
/// relaxed atomic load.
pub fn check(site: &str) -> Option<FaultMode> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let installed = plan_lock().clone()?;
    let rules = installed.by_site.get(site)?;
    for active in rules {
        let call = active.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = match active.rule.trigger {
            Trigger::Probability(p) => {
                let h = splitmix64(installed.seed ^ site_hash(site) ^ call);
                // Map the hash to [0,1) with 53-bit precision.
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                u < p
            }
            Trigger::Nth(n) => call == n,
            Trigger::Every(n) => call % n == 0,
        };
        if fires {
            active.injected.fetch_add(1, Ordering::Relaxed);
            return Some(active.rule.mode);
        }
    }
    None
}

/// Per-site injected-fault counts for the installed plan (empty when
/// inactive). Chaos tests reconcile these against `fault.*` metrics.
pub fn injected_counts() -> HashMap<String, u64> {
    let Some(installed) = plan_lock().clone() else {
        return HashMap::new();
    };
    let mut out = HashMap::new();
    for (site, rules) in &installed.by_site {
        let n: u64 = rules.iter().map(|r| r.injected.load(Ordering::Relaxed)).sum();
        out.insert(site.clone(), n);
    }
    out
}

/// Total faults injected by the installed plan.
pub fn total_injected() -> u64 {
    injected_counts().values().sum()
}

/// Format an injected-fault error message for a site.
pub fn injected_error(site: &str) -> String {
    format!("{INJECTED_MARKER}: {site}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan is process-global; serialize tests that install one.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=42; storage.read=p0.05:error; llm.call=nth3:panic; cache.result=every10:miss",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].site, "storage.read");
        assert_eq!(plan.rules[0].trigger, Trigger::Probability(0.05));
        assert_eq!(plan.rules[0].mode, FaultMode::Error);
        assert_eq!(plan.rules[1].trigger, Trigger::Nth(3));
        assert_eq!(plan.rules[1].mode, FaultMode::Panic);
        assert_eq!(plan.rules[2].trigger, Trigger::Every(10));
        assert_eq!(plan.rules[2].mode, FaultMode::Miss);
    }

    #[test]
    fn parse_defaults_mode_to_error() {
        let plan = FaultPlan::parse("seed=1;storage.append=nth1").unwrap();
        assert_eq!(plan.rules[0].mode, FaultMode::Error);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("seed=1").is_err(), "no rules");
        assert!(FaultPlan::parse("seed=1;bogus.site=p0.5").is_err());
        assert!(FaultPlan::parse("seed=1;storage.read=p1.5").is_err());
        assert!(FaultPlan::parse("seed=1;storage.read=nth0").is_err());
        assert!(FaultPlan::parse("seed=1;storage.read=every0").is_err());
        assert!(FaultPlan::parse("seed=1;storage.read=sometimes").is_err());
        assert!(FaultPlan::parse("seed=1;storage.read=p0.5:melt").is_err());
    }

    #[test]
    fn inactive_check_returns_none() {
        let _g = TEST_LOCK.lock();
        clear();
        assert!(!is_active());
        assert_eq!(check(sites::STORAGE_READ), None);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = TEST_LOCK.lock();
        install(FaultPlan::parse("seed=7;storage.read=nth3:corrupt").unwrap());
        let fired: Vec<Option<FaultMode>> =
            (0..6).map(|_| check(sites::STORAGE_READ)).collect();
        assert_eq!(
            fired,
            vec![None, None, Some(FaultMode::Corrupt), None, None, None]
        );
        assert_eq!(total_injected(), 1);
        clear();
    }

    #[test]
    fn every_trigger_fires_periodically() {
        let _g = TEST_LOCK.lock();
        install(FaultPlan::parse("seed=7;llm.call=every2:error").unwrap());
        let fired: Vec<bool> = (0..6).map(|_| check(sites::LLM_CALL).is_some()).collect();
        assert_eq!(fired, vec![false, true, false, true, false, true]);
        assert_eq!(injected_counts()["llm.call"], 3);
        clear();
    }

    #[test]
    fn probability_trigger_is_deterministic_and_calibrated() {
        let _g = TEST_LOCK.lock();
        let run = |seed: u64| -> Vec<bool> {
            install(
                FaultPlan::parse(&format!("seed={seed};storage.read=p0.2:error")).unwrap(),
            );
            let v = (0..1000).map(|_| check(sites::STORAGE_READ).is_some()).collect();
            clear();
            v
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed, same call sequence, same injections");
        let c = run(100);
        assert_ne!(a, c, "different seed gives a different injection pattern");
        let hits = a.iter().filter(|&&x| x).count();
        assert!(
            (120..=280).contains(&hits),
            "p0.2 over 1000 calls hit {hits} times"
        );
    }

    #[test]
    fn sites_are_isolated() {
        let _g = TEST_LOCK.lock();
        install(FaultPlan::parse("seed=1;storage.read=every1:error").unwrap());
        assert!(check(sites::STORAGE_READ).is_some());
        assert_eq!(check(sites::LLM_CALL), None);
        clear();
    }

    #[test]
    fn injected_error_carries_marker() {
        assert!(injected_error(sites::STORAGE_READ).contains(INJECTED_MARKER));
    }
}
