//! The four workloads, their frozen parameters, and the request plans a
//! seed expands into.
//!
//! Everything a run sends is decided here before the server starts: the
//! ensemble spec, the session seed, the order of questions, their salts and
//! (for the open loop) their arrival times. The program under test sees only
//! those inputs.

use crate::json::Json;
use infera_core::{question_set, Question};
use infera_hacc::rng::{mix, splitmix64};
use infera_hacc::{EnsembleSpec, SimConfig};

pub const DEFAULT_SEED: u64 = 2025;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;
/// `--smoke`: one closed-loop cycle, a handful of open-loop arrivals.
pub const SMOKE_SECONDS: f64 = 2.0;

/// How requests are issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Each connection sends its next request when the previous answer
    /// arrives.
    Closed,
    /// Requests are sent on a seeded schedule whatever the server does.
    /// `rate_qps` is half of this mix's measured saturation throughput on
    /// the reference host, frozen. `repeat_share` of arrivals repeat an
    /// earlier `(question, salt)` and should be served from the result cache.
    Open { rate_qps: f64, repeat_share: f64 },
}

/// Which of the 20 evaluation questions a workload asks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Single simulation, single step: one file per table.
    Light,
    /// Multi-step: 32 to 128 files.
    Heavy,
    /// All 20.
    Mix,
}

/// One workload's frozen parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Workloads sharing a family get byte-identical request plans.
    pub family: Family,
    pub looping: Loop,
    /// Converts `--seconds` into a whole number of passes over the
    /// workload's questions. Measured once on the reference host and frozen,
    /// so a run's request count depends on `--seconds` alone, never on how
    /// fast this host happens to be; whole passes keep the question mix of
    /// every run the same. The closed loops' timed phases last about
    /// `--seconds` on the reference host; the open loop's lasts twice that,
    /// because a latency tail under queueing needs more arrivals than
    /// `--seconds` at half saturation supplies.
    pub cycles_per_s: f64,
    pub connections: usize,
    pub workers: usize,
    pub queue_capacity: usize,
    pub shards: usize,
    /// Stream per-job progress events to the client.
    pub events: bool,
    /// The tail percentile reported as `answer_tail_ms`: the highest with
    /// about ten samples beyond it at `run_seconds` (the heavy workloads,
    /// with 24 answers a run, keep the issue's p75 and have six).
    pub tail_percentile: f64,
    /// Repetitions of each leaf probe in a traced run.
    pub probe_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "light_serial",
        family: Family::Light,
        looping: Loop::Closed,
        cycles_per_s: 1.0,
        connections: 1,
        workers: 1,
        queue_capacity: 16,
        shards: 0,
        events: false,
        tail_percentile: 0.85,
        probe_reps: 5,
    },
    Workload {
        name: "heavy_serial",
        family: Family::Heavy,
        looping: Loop::Closed,
        cycles_per_s: 0.25,
        connections: 1,
        workers: 1,
        queue_capacity: 16,
        shards: 0,
        events: false,
        tail_percentile: 0.75,
        probe_reps: 2,
    },
    Workload {
        name: "heavy_sharded",
        family: Family::Heavy,
        looping: Loop::Closed,
        cycles_per_s: 0.25,
        connections: 1,
        workers: 1,
        queue_capacity: 16,
        shards: 2,
        events: false,
        tail_percentile: 0.75,
        probe_reps: 2,
    },
    Workload {
        name: "mix_open",
        family: Family::Mix,
        looping: Loop::Open {
            rate_qps: 3.3,
            repeat_share: 0.25,
        },
        cycles_per_s: 0.25,
        connections: 2,
        workers: 2,
        queue_capacity: 16,
        shards: 0,
        events: true,
        tail_percentile: 0.80,
        probe_reps: 2,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The frozen parameters as the run header records them.
    pub fn params_json(&self) -> Json {
        let looping = match self.looping {
            Loop::Closed => Json::obj([("kind", Json::str("closed"))]),
            Loop::Open {
                rate_qps,
                repeat_share,
            } => Json::obj([
                ("kind", Json::str("open")),
                ("rate_qps", Json::Num(rate_qps)),
                ("repeat_share", Json::Num(repeat_share)),
            ]),
        };
        Json::obj([
            ("questions", Json::Int(self.questions(false).len() as u64)),
            ("loop", looping),
            ("cycles_per_s", Json::Num(self.cycles_per_s)),
            ("connections", Json::Int(self.connections as u64)),
            ("workers", Json::Int(self.workers as u64)),
            ("queue_capacity", Json::Int(self.queue_capacity as u64)),
            ("shards", Json::Int(self.shards as u64)),
            ("events", Json::Bool(self.events)),
            ("tail_percentile", Json::Num(self.tail_percentile)),
            ("probe_reps", Json::Int(self.probe_reps as u64)),
        ])
    }

    /// The distinct questions this workload asks, in `question_set()` order.
    /// `--smoke` keeps a handful: every third, which still spans the scopes.
    pub fn questions(&self, smoke: bool) -> Vec<Question> {
        let questions = question_set().into_iter().filter(|q| match self.family {
            Family::Light => !q.scope.multi_sim && !q.scope.multi_step,
            Family::Heavy => q.scope.multi_step,
            Family::Mix => true,
        });
        if smoke {
            questions.step_by(3).take(4).collect()
        } else {
            questions.collect()
        }
    }
}

/// The ensemble every workload reads: `EnsembleSpec::eval_scale`'s shape
/// (4 simulations x 32 steps, 512 files) with a quarter of its halos and a
/// sixth of its particles per step, so that a whole run — generation,
/// three set-ups, the timed phase and the anchor pass — fits the
/// per-invocation time the benchmark contract allows. The multi-step
/// questions still select more `(file, columns)` batches than the session's
/// 512-entry decoded-batch cache holds.
pub fn ensemble_spec(seed: u64, smoke: bool) -> EnsembleSpec {
    if smoke {
        return EnsembleSpec::tiny(seed);
    }
    EnsembleSpec {
        sim: SimConfig {
            n_halos: 1_000,
            particles_per_step: 10_000,
            ..SimConfig::default()
        },
        ..EnsembleSpec::eval_scale(seed)
    }
}

pub fn ensemble_json(spec: &EnsembleSpec) -> Json {
    Json::obj([
        ("sims", Json::Int(spec.n_sims as u64)),
        ("steps", Json::Int(spec.steps.len() as u64)),
        ("halos", Json::Int(spec.sim.n_halos as u64)),
        (
            "particles_per_step",
            Json::Int(spec.sim.particles_per_step as u64),
        ),
    ])
}

/// A deterministic stream over `infera_hacc::rng::splitmix64`.
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// Uniform in (0, 1].
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The session seed of every server and anchor session of a run.
pub fn session_seed(seed: u64) -> u64 {
    mix(&[seed, 0x5e55_1011]) >> 12
}

/// One request of a plan.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into the workload's `questions()`.
    pub question: usize,
    pub salt: u64,
    /// Open loop: offset of the scheduled send from the phase start.
    pub at_s: f64,
    /// Open loop: index of the earlier request this one repeats.
    pub repeats: Option<usize>,
}

/// Salts of the warm-up pass (one per distinct question); timed salts start
/// far above them.
pub fn warmup_salt(question: usize) -> u64 {
    1 + question as u64
}

const TIMED_SALT_BASE: u64 = 1_000_000;

/// Seed of the one arrival trace every open-loop run replays.
const OPEN_LOOP_TRACE_SEED: u64 = 2025;

/// An open-loop repeat follows the request it repeats by at least this long.
const REPEAT_SETTLE_S: f64 = 4.0;

/// The requests of one timed phase. `phase` separates the phases of a
/// traced run (each gets its own salts); an end-to-end run uses phase 0.
pub fn requests(
    w: &Workload,
    n_questions: usize,
    seed: u64,
    seconds: f64,
    phase: u64,
) -> Vec<Request> {
    // The open loop replays one arrival trace whatever the seed: which heavy
    // questions land together decides its queueing, and letting the seed
    // reshuffle that spread its latency tail by 15-20 % between runs, wider
    // than any bound could gate. The seed still decides the data, the
    // session's model stream and with it every answer's redos.
    let plan_seed = if w.looping == Loop::Closed {
        seed
    } else {
        OPEN_LOOP_TRACE_SEED
    };
    let mut rng = Stream(mix(&[plan_seed, w.family as u64, phase]));
    let cycles = ((seconds * w.cycles_per_s).round() as usize).max(1);
    // Every question once per cycle, in a seeded order, each with a salt of
    // its own.
    let mut order: Vec<usize> = (0..n_questions).collect();
    let mut fresh = Vec::with_capacity(cycles * n_questions);
    for _ in 0..cycles {
        rng.shuffle(&mut order);
        for &question in &order {
            let salt = TIMED_SALT_BASE * (phase + 1) + fresh.len() as u64 + 1;
            fresh.push(Request {
                question,
                salt,
                at_s: 0.0,
                repeats: None,
            });
        }
    }
    let Loop::Open {
        rate_qps,
        repeat_share,
    } = w.looping
    else {
        return fresh;
    };

    // The open loop spreads its arrivals as a Poisson process of rate
    // `rate_qps` conditioned on its count — exponential gaps scaled to span
    // exactly `arrivals / rate_qps` seconds — so the offered load of every
    // run is the same. Repeats take seeded slots until they are
    // `repeat_share` of all arrivals; each repeats a fresh request due at
    // least `settle` seconds before it, whose answer is in the result cache
    // by then, so whether a repeat hits does not depend on timing.
    // Rounded down, so the share of repeats never exceeds `repeat_share`.
    let n_repeats = (fresh.len() as f64 * repeat_share / (1.0 - repeat_share) + 1e-9) as usize;
    let n = fresh.len() + n_repeats;
    let gaps: Vec<f64> = (0..=n).map(|_| -rng.next_unit().ln()).collect();
    let span = n as f64 / rate_qps;
    let scale = span / gaps.iter().sum::<f64>();
    let mut at = 0.0;
    let at_s: Vec<f64> = gaps[..n]
        .iter()
        .map(|gap| {
            at += gap * scale;
            at
        })
        .collect();
    let settle = REPEAT_SETTLE_S.min(span / 2.0);
    let mut slots: Vec<usize> = (1..n).filter(|&i| at_s[i] - at_s[0] >= settle).collect();
    rng.shuffle(&mut slots);
    let mut is_repeat = vec![false; n];
    for &slot in slots.iter().take(n_repeats) {
        is_repeat[slot] = true;
    }
    let mut plan: Vec<Request> = Vec::with_capacity(n);
    let mut fresh = fresh.into_iter();
    for i in 0..n {
        let next_fresh = if is_repeat[i] { None } else { fresh.next() };
        let request = next_fresh.unwrap_or_else(|| {
            let settled: Vec<usize> = (0..i)
                .filter(|&j| plan[j].repeats.is_none() && at_s[i] - at_s[j] >= settle)
                .collect();
            // Slot 0 is always fresh; a run too short to settle repeats it.
            let earlier = if settled.is_empty() {
                0
            } else {
                settled[rng.below(settled.len())]
            };
            Request {
                repeats: Some(earlier),
                ..plan[earlier]
            }
        });
        plan.push(Request {
            at_s: at_s[i],
            ..request
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(plan: &[Request]) -> Vec<(usize, u64, u64)> {
        plan.iter()
            .map(|r| (r.question, r.salt, r.at_s.to_bits()))
            .collect()
    }

    #[test]
    fn question_subsets_match_the_issue() {
        assert_eq!(workload("light_serial").unwrap().questions(false).len(), 7);
        assert_eq!(workload("heavy_serial").unwrap().questions(false).len(), 8);
        assert_eq!(workload("mix_open").unwrap().questions(false).len(), 20);
        assert_eq!(workload("mix_open").unwrap().questions(true).len(), 4);
    }

    #[test]
    fn heavy_workloads_send_identical_requests() {
        let a = requests(workload("heavy_serial").unwrap(), 8, 7, 12.0, 0);
        let b = requests(workload("heavy_sharded").unwrap(), 8, 7, 12.0, 0);
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.len(), 3 * 8);
    }

    #[test]
    fn closed_plans_follow_the_seed_and_the_open_trace_does_not() {
        let closed = workload("light_serial").unwrap();
        assert_eq!(
            key(&requests(closed, 7, 3, 12.0, 0)),
            key(&requests(closed, 7, 3, 12.0, 0))
        );
        assert_ne!(
            key(&requests(closed, 7, 3, 12.0, 0)),
            key(&requests(closed, 7, 4, 12.0, 0))
        );
        let open = workload("mix_open").unwrap();
        assert_eq!(
            key(&requests(open, 20, 3, 12.0, 0)),
            key(&requests(open, 20, 4, 12.0, 0))
        );
        assert_ne!(
            key(&requests(open, 20, 3, 12.0, 0)),
            key(&requests(open, 20, 3, 12.0, 1))
        );
        assert_ne!(session_seed(3), session_seed(4));
    }

    #[test]
    fn open_loop_sends_a_fixed_count_at_the_frozen_rate() {
        let w = workload("mix_open").unwrap();
        let Loop::Open { rate_qps, .. } = w.looping else {
            panic!("mix_open is an open loop")
        };
        for phase in 0..20 {
            let plan = requests(w, 20, 1, 12.0, phase);
            assert_eq!(
                plan.len(),
                80,
                "3 cycles of 20 fresh questions plus a quarter repeats"
            );
            assert_eq!(plan.iter().filter(|r| r.repeats.is_some()).count(), 20);
            assert!(plan.windows(2).all(|pair| pair[0].at_s < pair[1].at_s));
            let span = plan.last().unwrap().at_s;
            assert!(
                span < 80.0 / rate_qps && span > 0.8 * 80.0 / rate_qps,
                "span {span}"
            );
            for r in plan.iter().filter(|r| r.repeats.is_some()) {
                let earlier = &plan[r.repeats.unwrap()];
                assert!(earlier.repeats.is_none() && earlier.at_s + REPEAT_SETTLE_S <= r.at_s);
                assert_eq!((earlier.question, earlier.salt), (r.question, r.salt));
            }
            let mut salts: Vec<u64> = plan
                .iter()
                .filter(|r| r.repeats.is_none())
                .map(|r| r.salt)
                .collect();
            salts.sort_unstable();
            salts.dedup();
            assert_eq!(salts.len(), 60, "fresh salts are unique");
        }
    }
}
