//! # infera-agents
//!
//! The multi-agent layer of InferA: a typed state-graph runtime
//! (LangGraph substitute, [`graph`]) plus the paper's agents —
//! planning ([`intent`], [`planner`]), supervisor-routed analysis
//! ([`workflow`]), data loading ([`data_loading`]), SQL programming
//! ([`sql_agent`]), Python programming ([`python_agent`]),
//! visualization ([`viz_agent`]), quality assurance with the 5-revision
//! error-guided loop ([`qa`]) and documentation ([`documentation`]).
//!
//! All language-model behaviour flows through the seeded
//! [`infera_llm::SimulatedLlm`]: agents synthesize their artifacts from
//! typed templates and pass them through the model's corruption channel,
//! reproducing the paper's failure dynamics (column-name errors, wrong
//! tool selection, unsatisfactory analysis/visualization choices).

pub mod context;
pub mod data_loading;
pub mod documentation;
pub mod error;
pub mod graph;
pub mod intent;
pub mod planner;
pub mod prompts;
pub mod python_agent;
pub mod qa;
pub mod shared_cache;
pub mod sql_agent;
pub mod state;
pub mod viz_agent;
pub mod workflow;

pub use context::{
    metadata_index, AgentContext, CancelToken, ContextPolicy, QaMode, RunConfig,
};
pub use error::{AgentError, AgentResult, CancelKind};
pub use shared_cache::{BoundedCache, CachedBatch, LoadKey, SharedEnsembleCache};
pub use graph::{NodeOutcome, StateGraph, END};
pub use intent::{parse_intent, Goal, Intent, TrendDim};
pub use planner::{compile_plan, plan_question};
pub use state::{
    ComputeKind, LoadSpec, Plan, PlanStep, QualityFlags, RunState, SqlFilter, SqlSpec,
    StepOutcome, TableLoad, TableSelect, VizKind,
};
pub use workflow::{build_workflow, run_question, run_question_with_plan, RunReport};
