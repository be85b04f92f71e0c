#!/usr/bin/env bash
# The benchmark package's own gate: format, lints, the harness's unit
# tests, that BENCHMARK.json matches the code, and a smoke run of every
# workload. Everything builds offline into one target directory
# (CARGO_TARGET_DIR when the caller sets it, ../target/perf otherwise).
#
# Not wired into ../ci.sh yet: that file is outside the benchmark's
# paths, so the next non-benchmark change adds the call.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/../target/perf}"

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release -q
cargo build --offline --release -q
bench="$CARGO_TARGET_DIR/release/perf_bench"

"$bench" manifest | diff -u ../BENCHMARK.json - || {
    echo "BENCHMARK.json drifted from the catalogues: regenerate it with 'perf_bench manifest'" >&2
    exit 1
}
"$bench" all --smoke
"$bench" layers --smoke >/dev/null
echo "perf/check.sh: ok"
