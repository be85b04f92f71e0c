#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --workspace -- -D warnings
cargo test -q --workspace

# Paper tables, figures and the soak are byte-pinned: a data-plane or
# host-speed change may not move a simulated dollar, second, answer or
# trace line. Regenerate them with the release binaries and compare with
# the committed canonical files (the soak is the full one: that is what
# results/ holds, and it takes seconds). None of the twenty-four carries
# a byte count of the state files, so a change to the on-disk format of
# durable state leaves them alone.
pinned_bins=(table1 table2 figure1 figure2 serve_soak
  ablation_reuse ablation_rewrite ablation_optimizer ablation_sampling ablation_access)
pinned_files=(BENCH_table1.json BENCH_table2.json BENCH_figure1.json BENCH_figure2.json
  table1.txt table1.json table2.txt table2.json figure1.txt figure2.txt
  BENCH_serve_soak.json BENCH_semcache.json serve_soak.txt health.jsonl
  ablation_reuse.json ablation_reuse.txt ablation_rewrite.json ablation_rewrite.txt
  ablation_optimizer.json ablation_optimizer.txt ablation_sampling.json ablation_sampling.txt
  ablation_access.json ablation_access.txt)
for bin in "${pinned_bins[@]}"; do
  AIDA_RESULTS_DIR=target/ci-results \
    cargo run -q --release -p aida-bench --bin "$bin" >/dev/null
done
for f in "${pinned_files[@]}"; do
  cmp "target/ci-results/$f" "results/$f"
done

# Fork-join: `parallel_map` runs a batch on as many host threads as the
# process has CPUs, and inline on one. The same twenty-four files must come
# out of a run pinned to one CPU, so both paths produce the same bytes.
# On a one-CPU host both runs are inline; only the fork-join unit test
# (at 2 and 8 threads) then covers the threaded path.
if [ "$(nproc)" -le 1 ]; then
  echo "ci.sh: one CPU; the threaded parallel_map path was not compared with results/" >&2
fi
if command -v taskset >/dev/null; then
  for bin in "${pinned_bins[@]}"; do
    AIDA_RESULTS_DIR=target/ci-results-1cpu taskset -c 0 "./target/release/$bin" >/dev/null
  done
  for f in "${pinned_files[@]}"; do
    cmp "target/ci-results-1cpu/$f" "results/$f"
  done
else
  echo "ci.sh: taskset not found; skipping the one-CPU regeneration" >&2
fi

# The soak's durable Context store writes each document once (the pool),
# not once per Context that holds it: 1246 document references over 35
# distinct documents are ~0.6 MB. The per-Context copy was 12.36 MB.
state_bytes=$(wc -c <target/ci-results/serve_soak_durable/state.bin)
if [ "$state_bytes" -gt 1048576 ]; then
  echo "serve_soak_durable/state.bin is $state_bytes bytes (> 1 MiB):" \
    "documents are being written per Context again" >&2
  exit 1
fi

# Static analysis: the workspace must stay clean above the checked-in
# baseline (lint.toml), and the lint report itself must be
# deterministic — two runs produce byte-identical JSONL, equal to the
# committed report.
AIDA_RESULTS_DIR=target/ci-lint-a cargo run -q -p aida-lint -- --deny-new
AIDA_RESULTS_DIR=target/ci-lint-b cargo run -q -p aida-lint -- --deny-new
cmp target/ci-lint-a/lint_report.jsonl target/ci-lint-b/lint_report.jsonl
cmp target/ci-lint-a/lint_report.jsonl results/lint_report.jsonl

# Pyrite VM parity: the differential suite (fixture corpus, error
# fixtures, agent step programs, multi-program sessions, fuel sweeps,
# generated program matrices) must hold against the test-only oracle
# in crates/script/tests/common/oracle.rs, an AST walker with its own
# values and kernels. Release build so the property matrices run at
# full size quickly.
cargo test -q --release -p aida-script --test differential

# Pyrite VM determinism: the bench's canonical JSON carries only
# deterministic metrics — two runs must be byte-identical, and equal to
# the committed one. (`pyrite_vm.txt` carries wall-clock timings and is
# not pinned; nothing here gates on host speed.)
AIDA_RESULTS_DIR=target/ci-pyrite-a \
  cargo run -q --release -p aida-bench --bin pyrite_bench >/dev/null
AIDA_RESULTS_DIR=target/ci-pyrite-b \
  cargo run -q --release -p aida-bench --bin pyrite_bench >/dev/null
cmp target/ci-pyrite-a/BENCH_pyrite_vm.json target/ci-pyrite-b/BENCH_pyrite_vm.json
cmp target/ci-pyrite-a/BENCH_pyrite_vm.json results/BENCH_pyrite_vm.json

# Static cost bounds: the analyzer snapshot over the fixed corpus must
# be deterministic — two runs byte-identical on both the canonical JSON
# and the per-program JSONL, both equal to the committed files — and the
# binary itself asserts every bound survives the plan-cache artifact
# round-trip (exit nonzero otherwise). `bounds.txt` carries wall-clock
# timings and is not pinned.
AIDA_RESULTS_DIR=target/ci-bounds-a \
  cargo run -q --release -p aida-bench --bin bounds_bench >/dev/null
AIDA_RESULTS_DIR=target/ci-bounds-b \
  cargo run -q --release -p aida-bench --bin bounds_bench >/dev/null
for f in BENCH_bounds.json bounds.jsonl; do
  cmp "target/ci-bounds-a/$f" "target/ci-bounds-b/$f"
  cmp "target/ci-bounds-a/$f" "results/$f"
done

# Serving layer: the ContextManager stress test wants optimized atomics
# and real thread pressure (eight threads share one manager; the service
# itself runs every query on its one dispatch thread), and the soak
# smoke proves the service binary runs end to end (SERVE_SOAK_SMOKE=1
# shrinks the workload). The soak itself asserts the shared semantic
# cache is strictly cheaper than the cache-off baseline and exits
# nonzero otherwise.
cargo test -q --release --test serve
SERVE_SOAK_SMOKE=1 AIDA_RESULTS_DIR=target/ci-cache-a \
  cargo run -q --release -p aida-bench --bin serve_soak >/dev/null

# Live front door: wire-protocol codec properties, listener soaks, and
# closed-loop client/autoscaler behavior (release: the soaks are long).
cargo test -q --release --test net

# Listener smoke: the live phase drives a closed-loop fleet over the
# simulated transport through the wire protocol into the same service.
# The binary asserts in-process byte-identity, an SLO-holding autoscaler
# that beats the fixed max pool on worker-seconds, and zero wire errors;
# the gate additionally demands two separate processes agree byte-for-
# byte on the live trace, the live health export, and the bench JSON.
SERVE_SOAK_SMOKE=1 SERVE_SOAK_LIVE=1 AIDA_RESULTS_DIR=target/ci-live-a \
  cargo run -q --release -p aida-bench --bin serve_soak >/dev/null
SERVE_SOAK_SMOKE=1 SERVE_SOAK_LIVE=1 AIDA_RESULTS_DIR=target/ci-live-b \
  cargo run -q --release -p aida-bench --bin serve_soak >/dev/null
cmp target/ci-live-a/traces/serve_live.jsonl target/ci-live-b/traces/serve_live.jsonl
cmp target/ci-live-a/health_live.jsonl target/ci-live-b/health_live.jsonl
cmp target/ci-live-a/BENCH_serve_live.json target/ci-live-b/BENCH_serve_live.json

# The full live soak (about four seconds) must also reproduce the
# committed live files, not only agree with itself. The trace is the one
# that records the live schedule query by query; the other two are
# aggregates.
SERVE_SOAK_LIVE=1 AIDA_RESULTS_DIR=target/ci-live-full \
  cargo run -q --release -p aida-bench --bin serve_soak >/dev/null
for f in BENCH_serve_live.json health_live.jsonl traces/serve_live.jsonl; do
  cmp "target/ci-live-full/$f" "results/$f"
done

# Semantic cache: warm restarts, eviction interplay, and corrupted
# snapshots (also covered in the debug `cargo test -q` above, but the
# release run matches how the service actually ships).
cargo test -q --release --test cache

# Cache determinism: a second seeded soak must produce a byte-identical
# service trace — memoization may not perturb replay. The health export
# is part of the same contract: per-tenant windowed percentiles and SLO
# burn verdicts must replay byte-for-byte.
SERVE_SOAK_SMOKE=1 AIDA_RESULTS_DIR=target/ci-cache-b \
  cargo run -q --release -p aida-bench --bin serve_soak >/dev/null
cmp target/ci-cache-a/traces/serve_soak.jsonl target/ci-cache-b/traces/serve_soak.jsonl
cmp target/ci-cache-a/health.jsonl target/ci-cache-b/health.jsonl

# Flight-recorder smoke: a soak with an armed WAL crash point must leave
# a parseable flight dump behind (header line naming the trigger, then
# the retained event records). The probe inside serve_soak additionally
# asserts the dump carries >= 64 events ending in the crash record.
rm -f target/ci-cache-a/traces/flight_1.jsonl
SERVE_SOAK_SMOKE=1 SERVE_SOAK_CRASH=1 AIDA_RESULTS_DIR=target/ci-cache-a \
  cargo run -q --release -p aida-bench --bin serve_soak >/dev/null
test -s target/ci-cache-a/traces/flight_1.jsonl
head -c 11 target/ci-cache-a/traces/flight_1.jsonl | grep -q '{"flight":"'

# Cold-vs-warm through a disk spill: cache_bench writes the snapshot,
# reloads it in a fresh runtime, and asserts identical answers at lower
# cost (exits nonzero otherwise).
AIDA_RESULTS_DIR=target/ci-cache-a \
  cargo run -q --release -p aida-bench --bin cache_bench >/dev/null

# Durability: the crash-injection suite must recover the SAME state on
# every run. Two same-seed passes dump the recovered scenario as JSONL
# and the dumps must be byte-identical.
AIDA_DURABILITY_DUMP=target/ci-durability-a cargo test -q --test durability
AIDA_DURABILITY_DUMP=target/ci-durability-b cargo test -q --test durability
cmp target/ci-durability-a/recovered_state.jsonl \
  target/ci-durability-b/recovered_state.jsonl

# Kill-9 smoke: murder a soak mid-run (leaving whatever torn WAL tail /
# half-written checkpoint it managed), then rerun against the same
# durable dir. The restart probe must swallow the wreckage and the full
# rerun must pass all its restart assertions (exit 0).
rm -rf target/ci-kill9
(timeout -s KILL 1 env SERVE_SOAK_SMOKE=1 AIDA_RESULTS_DIR=target/ci-kill9 \
  ./target/release/serve_soak >/dev/null 2>&1 || true)
SERVE_SOAK_SMOKE=1 AIDA_RESULTS_DIR=target/ci-kill9 \
  cargo run -q --release -p aida-bench --bin serve_soak >/dev/null

# Checkpoint scaling: the bench itself asserts delta-mode bytes per
# checkpoint stay within 2x between the 1x and 10x store (smoke rungs)
# while full rewrites grow with the store — by per-Context metadata
# only: Contexts narrowed from one lake leave each document in a
# snapshot once, and an insert frame over known documents defines none
# — and that group commit cuts ledger fsyncs >= 5x (exit nonzero
# otherwise). Its canonical JSON carries only deterministic metrics —
# two runs must be byte-identical.
CHECKPOINT_BENCH_SMOKE=1 AIDA_RESULTS_DIR=target/ci-ckpt-a \
  cargo run -q --release -p aida-bench --bin checkpoint_bench >/dev/null
CHECKPOINT_BENCH_SMOKE=1 AIDA_RESULTS_DIR=target/ci-ckpt-b \
  cargo run -q --release -p aida-bench --bin checkpoint_bench >/dev/null
cmp target/ci-ckpt-a/BENCH_checkpoint.json target/ci-ckpt-b/BENCH_checkpoint.json

# Host-clock benchmark package: its own fmt/clippy/unit tests, the
# BENCHMARK.json manifest check and a smoke run of every workload. It
# proves the benchmark still builds against the crates unchanged; speed
# is judged by before/after runs (perf/README.md), never here.
perf/check.sh
