#!/usr/bin/env bash
# Repo verification gate: build, test, lint.
#
#   scripts/verify.sh            # full gate
#   scripts/verify.sh --no-clippy  # skip the lint pass (e.g. older toolchains)
#   scripts/verify.sh --no-bench   # skip the benchmark smoke runs and their digest gates
#
# Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

run_clippy=1
run_bench=1
for arg in "$@"; do
    case "$arg" in
        --no-clippy) run_clippy=0 ;;
        --no-bench) run_bench=0 ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

echo "==> query path free of serialisation (structural gate)"
# Shards are in-process sources: a fragment and its partial result are
# values, never bytes. A timing gate cannot hold that on a shared host;
# this one can, and needs no build.
query_path=(
    crates/shard/src/exec.rs
    crates/columnar/src/sql/fragment.rs
    crates/columnar/src/sql/morsel.rs
    crates/columnar/src/sql/exec.rs
)
for f in "${query_path[@]}"; do
    [ -f "$f" ] || { echo "verify: $f is missing" >&2; exit 1; }
done
if grep -n 'serde_json::' "${query_path[@]}"; then
    echo "verify: serde_json on the query path (see above)" >&2
    exit 1
fi

echo "==> serving comms allocate what they carry and wait on what they await (structural gate)"
# A connection's footprint is held by tests (crates/serve/tests/footprint.rs);
# what made it 620 MB and a quarter of a second is named here, and needs no
# build: crossbeam (whose offline stand-in preallocates a million slots per
# unbounded channel), a preallocated ring per event subscription, a polling
# accept loop, and sleeps where connection code waits for a message.
structural_ok=1
forbid() { # forbid <pattern> <what a match means> <files...>
    local pattern=$1 meaning=$2
    shift 2
    if grep -n -- "$pattern" "$@"; then
        echo "verify: $meaning (see above)" >&2
        structural_ok=0
    fi
}
mapfile -t crate_sources < <(find crates/*/src -name '*.rs')
forbid 'crossbeam' "crossbeam is back in the workspace" \
    Cargo.toml crates/*/Cargo.toml "${crate_sources[@]}"
forbid 'sync_channel(' "the event bus preallocates its subscriber queues" crates/obs/src/bus.rs
forbid 'set_nonblocking' "the accept loop polls" crates/serve/src/net/server.rs
forbid 'thread::sleep' "connection code sleeps where it should wait" \
    crates/serve/src/net/client.rs crates/serve/src/net/conn.rs
[ "$structural_ok" -eq 1 ] || exit 1

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if [ "$run_clippy" -eq 1 ]; then
    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace -- -D warnings
    # The serving layer is lint-gated on its own: concurrency code is
    # where a stray clippy allowance hides real bugs. This lane covers
    # the network front end too (infera_serve::net — wire protocol,
    # connection core, server, client, load harness).
    echo "==> cargo clippy -p infera-serve -- -D warnings"
    cargo clippy -p infera-serve -- -D warnings
    # Same for the observability crate: the bus/metrics hot paths run
    # inside every span close, so sloppy code here taxes everything.
    echo "==> cargo clippy -p infera-obs -- -D warnings"
    cargo clippy -p infera-obs -- -D warnings
    # And the fault-injection crate: its check() sits on every storage
    # and serve hot path, so it must stay dependency-free and clean.
    echo "==> cargo clippy -p infera-faults -- -D warnings"
    cargo clippy -p infera-faults -- -D warnings
    # And the sharding crate: the scatter-gather path promises
    # bit-identity with serial execution, so its code stays spotless.
    echo "==> cargo clippy -p infera-shard -- -D warnings"
    cargo clippy -p infera-shard -- -D warnings
fi

echo "==> golden-file tests (JSONL trace schema + Prometheus exposition)"
# Pinned byte-for-byte: external consumers parse these formats, so any
# drift must be a conscious, reviewed change to the golden strings.
cargo test -q -p infera-obs --test golden

echo "==> write-path count gate (one meta flush per load, one CSV render per frame)"
# Milliseconds cannot gate on a shared host; these counts can, and repeat
# exactly: a load that flushes per file or a checkpoint that renders a
# stored frame again fails here.
cargo test -q --test write_path_counts

echo "==> CSV kernel identity gate (number formatting byte-identical to std)"
# Artifact bytes are a contract (ids, digests, store_bytes_per_answer): the
# shortest-float kernel is held to format! on a fixed 200k-value mix.
cargo test -q --test csv_kernel_identity

if [ "$run_bench" -eq 1 ]; then
    echo "==> microbench --smoke (with throughput regression gate)"
    smoke_out="$(mktemp -t bench_columnar_smoke.XXXXXX.json)"
    trap 'rm -f "$smoke_out"' EXIT
    # --baseline makes the run itself fail if join/group-by throughput
    # drops more than 25% below the checked-in smoke baseline.
    cargo run --release -p infera-bench --bin microbench -- --smoke \
        --baseline BENCH_columnar_smoke.json --out "$smoke_out"
    # The smoke report must parse and carry a v1 + v2 entry for every op.
    python3 - "$smoke_out" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
ops = {
    "ingest",
    "filtered_scan",
    "group_by",
    "join",
    "multi_join",
    "group_by_str",
    "filter_group_str",
    "join_str",
}
have = {(e["op"], e["format"]) for e in report["entries"]}
missing = {(op, fmt) for op in ops for fmt in ("v1", "v2")} - have
assert not missing, f"BENCH_columnar.json missing entries: {sorted(missing)}"
assert all(e["bytes_on_disk"] > 0 and e["wall_ms"] > 0 for e in report["entries"])
s = report["summary"]
assert s["disk_reduction_filtered_scan"] > 1.0, s
print(
    "smoke bench ok: %.2fx disk reduction, worst time ratio %.3f on %s"
    % (s["disk_reduction_filtered_scan"], s["worst_time_ratio"], s["worst_time_ratio_op"])
)
EOF

    echo "==> bench-serve --smoke (concurrent-vs-serial digest gate)"
    serve_out="$(mktemp -t bench_serve_smoke.XXXXXX.json)"
    # bench-serve exits non-zero if any concurrent run's report digest
    # diverges from the serial baseline — determinism under concurrency
    # is part of the gate, not just throughput.
    cargo run --release --bin infera -- bench-serve --smoke --out "$serve_out" \
        --work "$(mktemp -d -t bench_serve_work.XXXXXX)"
    rm -f "$serve_out"

    echo "==> bench-serve --smoke under fault injection (chaos gate)"
    chaos_out="$(mktemp -t bench_serve_chaos.XXXXXX.json)"
    # Deterministic chaos smoke: one-shot serve-boundary, storage-read,
    # and LLM-call faults plus a worker panic, injected into every
    # configuration after the serial baseline. The same digest gate
    # applies — runs that retried to success must reproduce the clean
    # baseline bit-for-bit.
    cargo run --release --bin infera -- bench-serve --smoke --out "$chaos_out" \
        --faults 'seed=9;serve.job=nth1;storage.read=nth3;llm.call=nth5;serve.worker=nth1:panic' \
        --work "$(mktemp -d -t bench_serve_chaos_work.XXXXXX)"
    python3 - "$chaos_out" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["digests_match"], report.get("divergent_questions")
assert report["fault_spec"], "chaos run must record its fault spec"
injected = sum(r.get("faults_injected", 0) for r in report["rows"])
assert injected >= 1, "the fault plan never fired"
print("chaos smoke ok: %d faults injected, digests reproduced" % injected)
EOF
    rm -f "$chaos_out"

    echo "==> bench-load --smoke (network saturation + drain + digest gate)"
    load_out="$(mktemp -t bench_load_smoke.XXXXXX.json)"
    # bench-load exits non-zero if sampled network digests diverge from
    # the fresh serial baseline, if the graceful drain loses an accepted
    # job, or if a draining server fails to refuse a new connection with
    # the typed goodbye.
    cargo run --release --bin infera -- bench-load --smoke --out "$load_out" \
        --work "$(mktemp -d -t bench_load_work.XXXXXX)"
    python3 - "$load_out" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
assert report["protocol_version"] >= 1, report
assert report["digests_match"], "network digests diverged from serial"
assert len(report["levels"]) >= 2, "smoke sweeps at least two offered loads"
level_keys = {
    "multiplier", "offered_qps", "duration_ms", "submitted", "accepted",
    "rejected", "rejection_rate", "completed", "failed", "p50_ms",
    "p95_ms", "p99_ms", "achieved_qps", "events_streamed",
    "digests_checked", "digests_match",
}
for level in report["levels"]:
    missing = level_keys - set(level)
    assert not missing, f"BENCH_load level missing keys: {sorted(missing)}"
    assert level["accepted"] == level["completed"] + level["failed"], level
    assert level["digests_checked"] >= 1 and level["digests_match"], level
assert any(l["events_streamed"] > 0 for l in report["levels"]), "no events streamed"
sd = report["shutdown"]
assert sd["lost"] == 0, sd
assert sd["new_conn_rejected"], sd
print(
    "load smoke ok: %d levels, top-rung rejection %.1f%%, drain lost 0 of %d"
    % (
        len(report["levels"]),
        report["levels"][-1]["rejection_rate"] * 100.0,
        sd["accepted"],
    )
)
EOF
    rm -f "$load_out"

    echo "==> benchmark all --smoke (end-to-end workloads, digest-checked)"
    # The benchmark BENCHMARK.json names, on EnsembleSpec::tiny: all four
    # workloads over the real TCP path plus the traced per-layer runs. It
    # exits non-zero when any answer fails or misses its serial-anchor
    # digest (`correct` false), or sharded and serial digests differ.
    # The same run holds the memory ceiling — a count this host can hold: a
    # serving process stays far below the data it analyses (≈ 7 MB resident
    # on the smoke ensemble; ≈ 740 MB when every channel preallocated).
    e2e_out="$(mktemp -t benchmark_smoke.XXXXXX.json)"
    bash crates/benchmark/run.sh all --smoke --out "$e2e_out" >/dev/null
    python3 - "$e2e_out" <<'EOF'
import json, sys

ceiling_mb = 64.0
report = json.load(open(sys.argv[1]))
peaks = {
    name: max(workload["end_to_end"]["peak_rss_mb"]["values"])
    for name, workload in report["workloads"].items()
}
assert len(peaks) == 4, sorted(peaks)
over = {name: peak for name, peak in peaks.items() if peak > ceiling_mb}
assert not over, f"peak_rss_mb over {ceiling_mb} MB: {over}"
print("benchmark smoke ok: peak_rss_mb " + ", ".join(f"{n} {p:.1f}" for n, p in peaks.items()))
EOF
    rm -f "$e2e_out"
fi

echo "verify: OK"
