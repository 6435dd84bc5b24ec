#!/usr/bin/env bash
# Offline build/test harness: compiles the workspace with plain rustc
# against stub rlibs (tools/offline/stubs) so development can proceed on
# machines with no crates.io access. This is NOT the verification gate —
# scripts/verify.sh (cargo) remains authoritative where the registry is
# reachable.
#
#   scripts/offline-check.sh              # build everything, run all tests
#   scripts/offline-check.sh --no-run     # compile only
#   OFFLINE_ALLOW_TEST_FAIL=1 scripts/offline-check.sh   # don't exit 1 on test failures
#
# Stub semantics (see tools/offline/stubs/*.rs): rayon is sequential,
# parking_lot wraps std::sync, serde(+json) is a real mini implementation,
# rand/rand_chacha/proptest are deterministic xoshiro-based stand-ins.
# Tests that depend on the exact ChaCha stream may behave differently than
# under real deps. (The workspace no longer uses crossbeam; its stub file
# stays only because crates/benchmark/build.sh compiles every stub by name.)
set -uo pipefail
cd "$(dirname "$0")/.."

RUN_TESTS=1
for arg in "${@:-}"; do
    case "$arg" in
        --no-run) RUN_TESTS=0 ;;
        "") ;;
        *) echo "unknown option: $arg" >&2; exit 2 ;;
    esac
done

STUBS=tools/offline/stubs
OUT=target/offline
DEPS=$OUT/deps
mkdir -p "$DEPS"

RUSTC="rustc --edition 2021 -C opt-level=1 -C debuginfo=0"

fail() { echo "offline-check: FAILED: $*" >&2; exit 1; }

newer_than() { # newer_than <output> <inputs...>  -> 0 if output up to date
    local out=$1 input; shift
    [ -f "$out" ] || return 1
    for input in "$@"; do
        [ "$input" -nt "$out" ] && return 1
    done
    return 0
}

# ---------------------------------------------------------------- stubs

build_stub() { # build_stub <name> [externs...]
    local name=$1; shift
    local out="$DEPS/lib${name}.rlib"
    local externs=() dep_files=()
    for dep in "$@"; do
        if [ "$dep" = "serde_derive" ]; then
            externs+=(--extern "serde_derive=$DEPS/libserde_derive.so")
            dep_files+=("$DEPS/libserde_derive.so")
        else
            externs+=(--extern "$dep=$DEPS/lib${dep}.rlib")
            dep_files+=("$DEPS/lib${dep}.rlib")
        fi
    done
    if newer_than "$out" "$STUBS/${name}.rs" ${dep_files[@]+"${dep_files[@]}"}; then return 0; fi
    echo "==> stub $name"
    $RUSTC --crate-type rlib --crate-name "$name" "$STUBS/${name}.rs" \
        -o "$out" ${externs[@]+"${externs[@]}"} -L "$DEPS" -Awarnings || fail "stub $name"
}

if ! newer_than "$DEPS/libserde_derive.so" "$STUBS/serde_derive.rs"; then
    echo "==> stub serde_derive (proc-macro)"
    $RUSTC --crate-type proc-macro --crate-name serde_derive \
        "$STUBS/serde_derive.rs" -o "$DEPS/libserde_derive.so" -Awarnings \
        || fail "stub serde_derive"
fi
build_stub serde serde_derive
build_stub serde_json serde
build_stub rand
build_stub rand_chacha rand
build_stub rayon
build_stub parking_lot
build_stub bytes
build_stub proptest

STUB_EXTERNS=(
    --extern "serde=$DEPS/libserde.rlib"
    --extern "serde_json=$DEPS/libserde_json.rlib"
    --extern "rand=$DEPS/librand.rlib"
    --extern "rand_chacha=$DEPS/librand_chacha.rlib"
    --extern "rayon=$DEPS/librayon.rlib"
    --extern "parking_lot=$DEPS/libparking_lot.rlib"
    --extern "bytes=$DEPS/libbytes.rlib"
    --extern "proptest=$DEPS/libproptest.rlib"
)

# ------------------------------------------------------------ workspace

# Topological order of the workspace crates.
CRATES=(faults obs frame rag hacc llm provenance viz columnar shard sandbox agents core serve bench)

crate_externs() { # echo --extern flags for every already-built workspace lib
    local flags=()
    for c in "${CRATES[@]}"; do
        local lib="$DEPS/libinfera_${c}.rlib"
        [ -f "$lib" ] && flags+=(--extern "infera_${c}=$lib")
    done
    [ -f "$DEPS/libinfera.rlib" ] && flags+=(--extern "infera=$DEPS/libinfera.rlib")
    if [ "${#flags[@]}" -gt 0 ]; then printf '%s\n' "${flags[@]}"; fi
}

srcs_of() { find "$1" -name '*.rs' 2>/dev/null; }

built_libs() { ls "$DEPS"/libserde.rlib "$DEPS"/lib{serde_json,rand,rand_chacha,rayon,parking_lot,bytes,proptest}.rlib "$DEPS"/libinfera*.rlib 2>/dev/null || true; }

TEST_BINS=()
FAILED_TESTS=()

build_lib() { # build_lib <crate_name> <src> <out_name>
    local name=$1 src=$2 out="$DEPS/lib$3.rlib"
    local -a wext
    mapfile -t wext < <(crate_externs)
    if ! newer_than "$out" $(srcs_of "$(dirname "$src")") $(built_libs); then
        echo "==> lib $name"
        CARGO_MANIFEST_DIR="$(cd "$(dirname "$src")/.." && pwd)" \
        $RUSTC --crate-type rlib --crate-name "$name" "$src" -o "$out" \
            "${STUB_EXTERNS[@]}" ${wext[@]+"${wext[@]}"} -L "$DEPS" \
            || fail "lib $name"
    fi
}

build_test() { # build_test <crate_name> <src> <bin_out>
    local name=$1 src=$2 out=$3
    local -a wext
    mapfile -t wext < <(crate_externs)
    if ! newer_than "$out" $(srcs_of "$(dirname "$src")") $(built_libs); then
        echo "==> test $name"
        CARGO_MANIFEST_DIR="$(cd "$(dirname "$src")/.." && pwd)" \
        $RUSTC --test --crate-name "$name" "$src" -o "$out" \
            "${STUB_EXTERNS[@]}" ${wext[@]+"${wext[@]}"} -L "$DEPS" \
            || fail "test build $name"
    fi
    TEST_BINS+=("$out")
}

build_bin_check() { # compile a binary target (type-check + link, not run)
    local name=$1 src=$2 out=$3
    local -a wext
    mapfile -t wext < <(crate_externs)
    if ! newer_than "$out" "$src" $(built_libs); then
        echo "==> bin $name"
        CARGO_MANIFEST_DIR="$(cd "$(dirname "$src")/../.." && pwd)" \
        $RUSTC --crate-type bin --crate-name "$name" "$src" -o "$out" \
            "${STUB_EXTERNS[@]}" ${wext[@]+"${wext[@]}"} -L "$DEPS" \
            || fail "bin $name"
    fi
}

for c in "${CRATES[@]}"; do
    build_lib "infera_${c}" "crates/$c/src/lib.rs" "infera_${c}"
done
build_lib infera src/lib.rs infera

# Unit tests (lib compiled with --test).
for c in "${CRATES[@]}"; do
    build_test "infera_${c}" "crates/$c/src/lib.rs" "$OUT/unit_${c}"
done
build_test infera src/lib.rs "$OUT/unit_infera"

# Integration tests.
for t in crates/*/tests/*.rs tests/*.rs; do
    [ -f "$t" ] || continue
    tname=$(basename "$t" .rs)
    case "$t" in
        crates/*) cdir=$(basename "$(dirname "$(dirname "$t")")"); label="${cdir}_${tname}" ;;
        *) label="root_${tname}" ;;
    esac
    build_test "$tname" "$t" "$OUT/it_${label}"
done

# The write-path count gate (one meta flush per load, one CSV render per
# frame) stands in for a timing gate this host cannot hold: it must run.
[[ " ${TEST_BINS[*]} " == *" $OUT/it_root_write_path_counts "* ]] \
    || fail "tests/write_path_counts.rs (write-path count gate) is missing"
# So must the identity gate on the CSV number kernel: artifact bytes are a
# contract, and it is what holds the kernel's to std's.
[[ " ${TEST_BINS[*]} " == *" $OUT/it_root_csv_kernel_identity "* ]] \
    || fail "tests/csv_kernel_identity.rs (CSV kernel identity gate) is missing"

# The benchmark crate (not in CRATES) builds itself, optimized, into
# target/benchmark-offline: its integration test above gets the binary from
# build.sh, and its unit tests come from the same script.
echo "==> test benchmark (crates/benchmark/build.sh --test)"
bench_unit=$(bash crates/benchmark/build.sh --test) || fail "test build benchmark"
TEST_BINS+=("$bench_unit")

# Binaries (compile check only).
for b in src/bin/*.rs crates/bench/src/bin/*.rs; do
    [ -f "$b" ] || continue
    bname=$(basename "$b" .rs)
    build_bin_check "$bname" "$b" "$OUT/bin_${bname}"
done

# ------------------------------------------------------------- run tests

if [ "$RUN_TESTS" -eq 1 ]; then
    for bin in "${TEST_BINS[@]}"; do
        echo "==> run $(basename "$bin")"
        if ! "$bin" --test-threads 4 -q; then
            FAILED_TESTS+=("$(basename "$bin")")
        fi
    done
    echo
    if [ "${#FAILED_TESTS[@]}" -gt 0 ]; then
        echo "offline-check: test failures in: ${FAILED_TESTS[*]}" >&2
        [ "${OFFLINE_ALLOW_TEST_FAIL:-0}" = "1" ] || exit 1
    else
        echo "offline-check: all tests passed"
    fi
fi
echo "offline-check: OK"
