//! The sandboxed execution gateway.
//!
//! The original InferA runs generated code on an ASGI server (FastAPI +
//! Uvicorn): the system transmits code and a *temporary data copy*, the
//! server executes, detects errors, and returns either an error-free
//! dataframe or a detailed error message (§3.2). This module reproduces
//! that contract in-process: every request executes on cloned inputs in a
//! dedicated worker thread with a hard deadline, and failures come back as
//! structured [`SandboxError`]s — the ground-truth data can never be
//! modified by generated code, by construction.

use crate::error::{ErrorKind, SandboxError, SandboxResult};
use crate::interp::{run_program, StepLog};
use crate::lang::parse_program;
use crate::tool::ToolRegistry;
use infera_frame::DataFrame;
use infera_obs::{metric_names, Obs};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

/// A code-execution request.
#[derive(Debug, Clone)]
pub struct ExecutionRequest {
    /// DSL program text.
    pub program: String,
    /// Named input frames; the gateway works on copies.
    pub inputs: HashMap<String, DataFrame>,
}

/// A successful execution.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    pub result: DataFrame,
    pub steps: Vec<StepLog>,
    /// Final environment (named intermediates), used for checkpointing.
    pub env: HashMap<String, DataFrame>,
    pub wall: Duration,
}

/// The sandbox server.
#[derive(Debug, Clone)]
pub struct SandboxServer {
    tools: ToolRegistry,
    timeout: Duration,
    obs: Obs,
}

impl SandboxServer {
    /// Server with the given custom-tool registry and a 30 s deadline.
    pub fn new(tools: ToolRegistry) -> SandboxServer {
        SandboxServer {
            tools,
            timeout: Duration::from_secs(30),
            obs: Obs::default(),
        }
    }

    /// Override the execution deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> SandboxServer {
        self.timeout = timeout;
        self
    }

    /// Attach an observability context: every execution records a
    /// `sandbox:execute` span and latency/error metrics into it.
    pub fn with_obs(mut self, obs: Obs) -> SandboxServer {
        self.obs = obs;
        self
    }

    /// The registered tool catalog (for agent prompts).
    pub fn tools(&self) -> &ToolRegistry {
        &self.tools
    }

    /// Execute a request on a worker thread with a deadline.
    ///
    /// Parsing happens inline (cheap, no data touched); interpretation
    /// runs on the worker against cloned inputs.
    pub fn execute(&self, req: ExecutionRequest) -> SandboxResult<ExecutionReport> {
        let span = self.obs.tracer.span("sandbox:execute");
        self.obs.metrics.inc(metric_names::SANDBOX_EXECUTIONS, 1);
        let stmts = match parse_program(&req.program) {
            Ok(stmts) => stmts,
            Err(e) => {
                span.set_attr("error", e.to_string());
                self.obs.metrics.inc(metric_names::SANDBOX_PARSE_ERRORS, 1);
                return Err(e);
            }
        };
        span.set_attr("statements", stmts.len());
        let tools = self.tools.clone();
        let (tx, rx) = mpsc::sync_channel(1);
        std::thread::Builder::new()
            .name("infera-sandbox-worker".into())
            .spawn(move || {
                let out = run_program(&stmts, req.inputs, &tools);
                let _ = tx.send(out);
            })
            .map_err(|e| SandboxError::new(ErrorKind::Runtime, format!("spawn: {e}")))?;
        let outcome = rx.recv_timeout(self.timeout);
        self.obs
            .metrics
            .observe(metric_names::SANDBOX_EXEC_US, span.elapsed_us() as f64);
        match outcome {
            Ok(Ok(out)) => {
                span.set_attr("rows_out", out.result.n_rows());
                // The report's wall time is the span's own measurement, so
                // the trace and the caller can never disagree. Clamp to
                // 1 µs: sub-microsecond runs still count as having run.
                let wall_us = span.finish().max(1);
                Ok(ExecutionReport {
                    result: out.result,
                    steps: out.steps,
                    env: out.env,
                    wall: Duration::from_micros(wall_us),
                })
            }
            Ok(Err(e)) => {
                span.set_attr("error", e.to_string());
                self.obs.metrics.inc(metric_names::SANDBOX_EXEC_ERRORS, 1);
                Err(e)
            }
            Err(_) => {
                span.set_attr("error", "timeout");
                self.obs.metrics.inc(metric_names::SANDBOX_TIMEOUTS, 1);
                Err(SandboxError::new(
                    ErrorKind::Timeout,
                    format!("execution exceeded {:?}", self.timeout),
                ))
            }
        }
    }
}

impl Default for SandboxServer {
    fn default() -> Self {
        SandboxServer::new(ToolRegistry::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infera_frame::Column;

    fn inputs() -> HashMap<String, DataFrame> {
        let mut m = HashMap::new();
        m.insert(
            "df".to_string(),
            DataFrame::from_columns([
                ("a", Column::from(vec![1.0, 2.0, 3.0])),
                ("b", Column::from(vec![10i64, 20, 30])),
            ])
            .unwrap(),
        );
        m
    }

    #[test]
    fn executes_and_reports() {
        let server = SandboxServer::default();
        let report = server
            .execute(ExecutionRequest {
                program: "x = filter(df, a > 1)\nreturn x".into(),
                inputs: inputs(),
            })
            .unwrap();
        assert_eq!(report.result.n_rows(), 2);
        assert_eq!(report.steps.len(), 2);
    }

    #[test]
    fn ground_truth_never_modified() {
        let server = SandboxServer::default();
        let original = inputs();
        let report = server
            .execute(ExecutionRequest {
                program: "df = with_column(df, c, a * 2)\nreturn df".into(),
                inputs: original.clone(),
            })
            .unwrap();
        // The caller's copy is untouched even though the program shadowed
        // the input name.
        assert!(!original["df"].has_column("c"));
        assert!(report.result.has_column("c"));
    }

    #[test]
    fn errors_are_structured_not_panics() {
        let server = SandboxServer::default();
        let err = server
            .execute(ExecutionRequest {
                program: "x = filter(df, nonexistent > 1)".into(),
                inputs: inputs(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownColumn);
        let err = server
            .execute(ExecutionRequest {
                program: "x = ???".into(),
                inputs: inputs(),
            })
            .unwrap_err();
        assert_eq!(err.kind, ErrorKind::Parse);
    }

    #[test]
    fn reports_wall_time() {
        let server = SandboxServer::default();
        let report = server
            .execute(ExecutionRequest {
                program: "return head(df, 1)".into(),
                inputs: inputs(),
            })
            .unwrap();
        assert!(report.wall.as_nanos() > 0);
    }

    #[test]
    fn wall_time_derives_from_trace_span() {
        let obs = Obs::new();
        let server = SandboxServer::default().with_obs(obs.clone());
        let report = server
            .execute(ExecutionRequest {
                program: "return head(df, 1)".into(),
                inputs: inputs(),
            })
            .unwrap();
        let snap = obs.tracer.snapshot();
        let span = snap
            .spans
            .iter()
            .find(|s| s.name == "sandbox:execute")
            .expect("execute span recorded");
        assert_eq!(report.wall.as_micros() as u64, span.dur_us().max(1));
        assert_eq!(obs.metrics.counter(metric_names::SANDBOX_EXECUTIONS), 1);
        assert!(obs.metrics.histogram(metric_names::SANDBOX_EXEC_US).is_some());
    }

    #[test]
    fn errors_increment_metrics() {
        let obs = Obs::new();
        let server = SandboxServer::default().with_obs(obs.clone());
        server
            .execute(ExecutionRequest {
                program: "x = ???".into(),
                inputs: inputs(),
            })
            .unwrap_err();
        assert_eq!(obs.metrics.counter(metric_names::SANDBOX_PARSE_ERRORS), 1);
        server
            .execute(ExecutionRequest {
                program: "x = filter(df, nonexistent > 1)".into(),
                inputs: inputs(),
            })
            .unwrap_err();
        assert_eq!(obs.metrics.counter(metric_names::SANDBOX_EXEC_ERRORS), 1);
    }
}
