//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around the calls the
//! benchmark makes into each layer's public functions, kept in memory, and
//! written to `trace.jsonl` when the run ends. A span carries its name, the
//! request it belongs to, the span that caused it, and start/end offsets
//! from the recorder's epoch; a layer's self time is its duration minus the
//! part its children cover.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = self.offset_us(Instant::now());
        self.spans.push(Span {
            name,
            request,
            parent,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_us = self.offset_us(Instant::now());
        self.spans[id].dur_ms()
    }

    /// Time `f` as a span and return its result with the duration in ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, request, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Record a span whose interval was measured elsewhere (the server's
    /// own `queue_ms`/`run_ms`, reported in its answer).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        dur_ms: f64,
    ) -> usize {
        let start_us = self.offset_us(start);
        self.spans.push(Span {
            name,
            request,
            parent,
            start_us,
            end_us: start_us + dur_ms * 1e3,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its direct children cover.
    pub fn self_ms(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start_us;
        for (start, end) in children {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        (span.end_us - span.start_us - covered) / 1e3
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id", Json::Int(id as u64)),
                ("name", Json::str(span.name)),
                ("request", Json::Int(span.request)),
                ("start_us", Json::Num(span.start_us)),
                ("end_us", Json::Num(span.end_us)),
                ("self_ms", Json::Num(self.self_ms(id))),
            ];
            if let Some(parent) = span.parent {
                fields.insert(3, ("parent", Json::Int(parent as u64)));
            }
            out.push_str(&Json::obj(fields).line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        let mut rec = Recorder::new();
        let t0 = rec.epoch;
        let root = rec.record("root", 1, None, t0, 10.0);
        rec.record("a", 1, Some(root), t0 + Duration::from_millis(1), 4.0);
        rec.record("b", 1, Some(root), t0 + Duration::from_millis(3), 4.0); // overlaps a by 2 ms
        rec.record("late", 1, Some(root), t0 + Duration::from_millis(9), 5.0); // clipped to 1 ms
        assert!(
            (rec.self_ms(root) - 3.0).abs() < 1e-6,
            "{}",
            rec.self_ms(root)
        );
        let jsonl = rec.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"parent\":0"));
        assert!(!lines[0].contains("parent"));
    }
}
