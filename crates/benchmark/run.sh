#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source if it is
# not built yet, then hand every argument to it.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
bin=$("$here/build.sh")
exec "$bin" "$@"
