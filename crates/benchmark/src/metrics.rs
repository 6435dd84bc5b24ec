//! The names and units of every metric the benchmark prints. `BENCHMARK.json`
//! lists the same names; `tests/smoke.rs` holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, printed by an untraced run (`--trace 0`), the same
/// names on every workload. `failed_frac` is the eighth: it is 0 on a
/// healthy run, so it travels as the result line's `failed` / `attempted`
/// rather than as a bounded metric, and may not rise at all.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("answer_p50_ms", "ms", Better::Lower, 0.25),
    e2e("answer_tail_ms", "ms", Better::Lower, 0.25),
    e2e("answers_per_s", "1/s", Better::Higher, 0.20),
    e2e("store_bytes_per_answer", "B", Better::Lower, 0.20),
    e2e("cpu_s_per_answer", "s", Better::Lower, 0.20),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). A layer is a
/// crate; the prefix names it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hacc.generate_s", "s"),
    ("hacc.read_ms_per_answer", "ms"),
    ("hacc.read_mb_per_answer", "MB"),
    ("hacc.read_frac", "ratio"),
    ("rag.index_build_ms", "ms"),
    ("rag.retrieve_us", "us"),
    ("rag.retrievals_per_answer", "count"),
    ("llm.charge_us", "us"),
    ("llm.calls_per_answer", "count"),
    ("llm.tokens_per_answer", "count"),
    ("llm.virtual_ms_per_answer", "ms"),
    ("agents.plan_ms", "ms"),
    ("agents.supervisor_ms", "ms"),
    ("agents.load_ms", "ms"),
    ("agents.sql_ms", "ms"),
    ("agents.compute_ms", "ms"),
    ("agents.viz_ms", "ms"),
    ("agents.doc_ms", "ms"),
    ("agents.prompt_build_us", "us"),
    ("agents.redos_per_answer", "count"),
    ("agents.shared_cache_hit_ratio", "ratio"),
    ("columnar.ingest_ms_per_answer", "ms"),
    ("columnar.ingest_rows_per_s", "1/s"),
    ("columnar.query_ms_per_answer", "ms"),
    ("columnar.sql_parse_plan_us", "us"),
    ("columnar.rows_scanned_per_answer", "count"),
    ("columnar.rows_scanned_per_row_returned", "ratio"),
    ("columnar.chunks_skipped_ratio", "ratio"),
    ("columnar.encoded_over_logical", "ratio"),
    ("frame.groupby_ms", "ms"),
    ("frame.join_ms", "ms"),
    ("frame.sort_ms", "ms"),
    ("frame.csv_write_mb_per_s", "MB/s"),
    ("shard.append_ms_per_answer", "ms"),
    ("shard.query_ms_per_answer", "ms"),
    ("shard.fragment_max_ms", "ms"),
    ("shard.combine_ms", "ms"),
    ("shard.skew", "ratio"),
    ("shard.fragment_cache_hit_ratio", "ratio"),
    ("sandbox.exec_ms_per_answer", "ms"),
    ("sandbox.parse_us", "us"),
    ("sandbox.executions_per_answer", "count"),
    ("sandbox.error_ratio", "ratio"),
    ("viz.render_ms_per_answer", "ms"),
    ("viz.svg_kb_per_answer", "kB"),
    ("provenance.write_ms_per_answer", "ms"),
    ("provenance.checkpoint_ms", "ms"),
    ("provenance.bytes_per_answer", "B"),
    ("provenance.artifacts_per_answer", "count"),
    ("provenance.storage_bytes_ms", "ms"),
    ("core.session_build_ms", "ms"),
    ("core.context_build_ms", "ms"),
    ("core.ask_ms", "ms"),
    ("core.unattributed_frac", "ratio"),
    ("core.data_path_frac", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_tail", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.worker_busy_frac", "ratio"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.rejected_frac", "ratio"),
    ("serve.digest_us", "us"),
    ("serve.net.connect_ms", "ms"),
    ("serve.net.submit_rtt_us", "us"),
    ("serve.net.ping_rtt_us", "us"),
    ("serve.net.codec_us", "us"),
    ("serve.net.events_per_answer", "count"),
    ("obs.span_ns", "ns"),
    ("obs.spans_per_answer", "count"),
    ("obs.export_ms", "ms"),
    ("bench.failed_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.walk_token_match", "ratio"),
    ("bench.gen_late_ms_p50", "ms"),
    ("bench.gen_late_ms_tail", "ms"),
];
