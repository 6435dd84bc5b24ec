#!/usr/bin/env bash
# Build the benchmark binary from source and print its path on stdout.
# With `--test`, build the crate's unit tests instead and print their path.
#
# Where cargo can resolve the workspace's dependencies without the network
# the binary is a normal `--release` build. Otherwise (no registry, no
# vendored crates) it is compiled with plain `rustc -O` against the stub
# crates in tools/offline/stubs (read-only here): rayon is sequential there
# and parking_lot wraps std::sync, so numbers from the two flavours are not
# comparable — the flavour is written next to the binary, stamped into every
# result, and `benchmark compare` refuses to compare across flavours.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"
target=$(realpath -m "${CARGO_TARGET_DIR:-target}")

stamp() { # stamp <binary> <flavour>: what the run header reports about the build
    local commit
    commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
    printf '%s\n%s\n%s\n' "$2" "$(rustc -V)" "$commit" >"$1.flavour"
}

if [ "${1:-}" != --test ] && cargo build --release --offline -p infera-benchmark --bin benchmark >/dev/null 2>&1; then
    stamp "$target/release/benchmark" cargo-release
    echo "$target/release/benchmark"
    exit 0
fi

stubs=tools/offline/stubs
out=$target/benchmark-offline
deps=$out/deps
mkdir -p "$deps"
rustc_o=(rustc --edition 2021 -O -C debuginfo=0 -Awarnings -L "$deps")

up_to_date() { # up_to_date <output> <inputs...>
    local output=$1 input
    shift
    [ -f "$output" ] || return 1
    for input in "$@"; do
        [ "$input" -nt "$output" ] && return 1
    done
    return 0
}

externs=()
add_extern() { externs+=(--extern "$1=$2"); }

build_rlib() { # build_rlib <crate name> <root source> <manifest dir> <other inputs...>
    local name=$1 src=$2 manifest_dir=$3 lib="$deps/lib$1.rlib"
    shift 3
    if ! up_to_date "$lib" "$@" "${built[@]}"; then
        echo "benchmark build: $name" >&2
        CARGO_MANIFEST_DIR="$root/$manifest_dir" \
            "${rustc_o[@]}" --crate-type rlib --crate-name "$name" "$src" -o "$lib" "${externs[@]}"
    fi
    add_extern "$name" "$lib"
    built+=("$lib")
}

built=()
derive=$deps/libserde_derive.so
if ! up_to_date "$derive" "$stubs/serde_derive.rs"; then
    echo "benchmark build: serde_derive" >&2
    "${rustc_o[@]}" --crate-type proc-macro --crate-name serde_derive "$stubs/serde_derive.rs" -o "$derive"
fi
add_extern serde_derive "$derive"
built+=("$derive")
for stub in serde serde_json rand rand_chacha rayon parking_lot crossbeam bytes; do
    build_rlib "$stub" "$stubs/$stub.rs" "$stubs" "$stubs/$stub.rs"
done
# Topological order of the workspace crates the serving path links.
for crate in faults obs frame rag hacc llm provenance viz columnar shard sandbox agents core serve; do
    mapfile -t sources < <(find "crates/$crate/src" -name '*.rs')
    build_rlib "infera_$crate" "crates/$crate/src/lib.rs" "crates/$crate" "${sources[@]}"
done

bin=$out/benchmark
kind=(--crate-type bin)
if [ "${1:-}" = --test ]; then
    bin=$out/benchmark-unit-tests
    kind=(--test)
fi
mapfile -t sources < <(find "$here/src" -name '*.rs')
if ! up_to_date "$bin" "${sources[@]}" "${built[@]}"; then
    echo "benchmark build: $(basename "$bin")" >&2
    CARGO_MANIFEST_DIR="$here" \
        "${rustc_o[@]}" "${kind[@]}" --crate-name benchmark "$here/src/main.rs" -o "$bin" "${externs[@]}"
fi
stamp "$bin" offline-stubs
echo "$bin"
