#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace

# A test run narrowed by a name filter must run at least one test: a
# filter that matches nothing (its test renamed or deleted) runs zero
# tests and `cargo test` still exits 0.
filtered_test() {
  local out
  if ! out=$(cargo test "$@" 2>&1); then
    printf '%s\n' "$out" >&2
    return 1
  fi
  if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' <<<"$out"; then
    echo "ci.sh: cargo test $* ran no test" >&2
    return 1
  fi
}

# Paper tables, figures and the soak are byte-pinned: a data-plane or
# host-speed change may not move a simulated dollar, second, answer or
# trace line. Regenerate them with the release binaries and compare with
# the committed canonical files (the soak is the full one: that is what
# results/ holds, and it takes seconds). None of the thirty-four carries
# a byte count of the state files; the soak's durable directory (its
# Context-store snapshot, the semantic cache's snapshot and the ledger's
# log, `serve_soak_durable/`) is compared file for file as well. The ten
# traces are the only pinned record of the traced path: every span,
# event and counter (cache hits and the `memo.*` counters included) the
# binaries' traced runs export.
pinned_bins=(table1 table2 figure1 figure2 serve_soak
  ablation_reuse ablation_rewrite ablation_optimizer ablation_sampling ablation_access)
pinned_files=(BENCH_table1.json BENCH_table2.json BENCH_figure1.json BENCH_figure2.json
  table1.txt table1.json table2.txt table2.json figure1.txt figure2.txt
  BENCH_serve_soak.json BENCH_semcache.json serve_soak.txt health.jsonl
  ablation_reuse.json ablation_reuse.txt ablation_rewrite.json ablation_rewrite.txt
  ablation_optimizer.json ablation_optimizer.txt ablation_sampling.json ablation_sampling.txt
  ablation_access.json ablation_access.txt
  traces/table1.jsonl traces/table2.jsonl traces/figure1.jsonl traces/figure2.jsonl
  traces/serve_soak.jsonl traces/ablation_reuse.jsonl traces/ablation_rewrite.jsonl
  traces/ablation_optimizer.jsonl traces/ablation_sampling.jsonl traces/ablation_access.jsonl)
for bin in "${pinned_bins[@]}"; do
  AIDA_RESULTS_DIR=target/ci-results \
    cargo run -q --release -p aida-bench --bin "$bin" >/dev/null
done
for f in "${pinned_files[@]}"; do
  cmp "target/ci-results/$f" "results/$f"
done
# The soak's durable directory, file for file (names included).
cmp_durable() {
  diff <(ls "$1/serve_soak_durable") <(ls results/serve_soak_durable)
  for f in results/serve_soak_durable/*; do
    cmp "$1/serve_soak_durable/${f##*/}" "$f"
  done
}
cmp_durable target/ci-results

# The set of CPUs the process may use must move no byte: the same
# thirty-four files and durable directory must come out of a run pinned
# to one CPU.
if command -v taskset >/dev/null; then
  for bin in "${pinned_bins[@]}"; do
    AIDA_RESULTS_DIR=target/ci-results-1cpu taskset -c 0 "./target/release/$bin" >/dev/null
  done
  for f in "${pinned_files[@]}"; do
    cmp "target/ci-results-1cpu/$f" "results/$f"
  done
  cmp_durable target/ci-results-1cpu
else
  echo "ci.sh: taskset not found; skipping the one-CPU regeneration" >&2
fi

# The soak's durable Context store writes each document, description and
# findings table once (the pool), not once per Context that holds it: 78
# Contexts over 35 distinct documents, 7 descriptions and 6 findings
# tables are ~0.33 MB. Inline descriptions and findings made it ~0.63 MB,
# per-Context document copies 12.36 MB.
state_bytes=$(wc -c <target/ci-results/serve_soak_durable/state.bin)
if [ "$state_bytes" -gt 524288 ]; then
  echo "serve_soak_durable/state.bin is $state_bytes bytes (> 512 KiB):" \
    "documents, descriptions or findings are being written per Context again" >&2
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

# Pyrite front-end check: the verdict pin (every program of the pinned
# corpus keeps its verdict, or changes for a reason the test shows) and
# the straight-line property (a type error the check reports is the one
# the VM raises), in release for the property's full case count.
cargo test -q --release -p aida-script --test verdicts

# Generic reading parity: the simulated LLM's memo-backed readers (lowered
# text, table view, line spans, and the gram set the extractor asks before
# it bisects a document's lines for a needle) must answer like the
# test-only line-by-line readers they replaced, for memoized and memo-less
# subjects. The gram set's soundness property (a needle the text contains
# is never ruled out) runs next to it. Release runs both properties at
# their full case counts.
filtered_test -q --release -p aida-llm --lib sim::reading_differential
filtered_test -q --release -p aida-data --lib \
  document::tests::a_gram_set_never_rules_out_a_present_needle

# Tokenizer parity: the 64-byte block pass (masks and mask arithmetic) must
# count like the char-by-char walk on ASCII-heavy texts up to 600 bytes,
# runs and non-ASCII characters straddling block boundaries included.
filtered_test -q --release -p aida-llm --lib tokens::tests

# Task-head transparency: a head shared across subjects and models must
# key, answer and bill like one built per call, and like the loose task
# form. (Its memo against the per-call derivations it replaced is the
# second property of `sim::reading_differential` above.)
cargo test -q --release -p aida-llm --test task_heads

# Cache-key and similarity parity: every content key of the pinned cases
# (and every entry of a cache snapshot saved before keys were streamed
# and label hashes memoized) must come out as pinned, the streamed key
# hasher must fold like the old collected `from_parts`, and a cosine
# from stored norms must have the old cosine's bits. Release runs the
# two property tests at their full case counts.
cargo test -q --release -p aida-llm --test content_keys
filtered_test -q --release -p aida-llm --lib embed::tests::norm_identity

# Context-build parity: the embedder's one-pass walk must give the bits
# of the per-word oracle (non-ASCII words and separators, upper-case
# runs, words over 64 bytes, texts over 2,000 chars), the byte-scanning
# HTML stripper the text of the char-by-char one, and the index prefix
# the first 2,000 chars; every legal and Enron document at seeds 1-4
# must strip and embed as the parent code did. Release runs the full
# case counts.
filtered_test -q --release -p aida-llm --lib embed::tests::bigrams
filtered_test -q --release -p aida-data --lib html::tests
filtered_test -q --release -p aida-core --lib context::tests

# Sampling-memo transparency: an optimizer replaying all-hit sampling runs
# from a shared memo must produce the bits of one sampling afresh, call
# for call (matrices, receipts, clocks, cache counters and the final
# cache snapshot), across executor misses, evictions, clears and
# snapshot reloads. Release runs the full case count.
cargo test -q --release -p aida-optimizer --test transparency

# The step memo's transparency: an agent runtime whose step memo clears on
# every miss must give the answers, transcripts, receipts and clock of one
# with the default memo over every policy flow. There is no switch to turn
# a memo off: a budget-1 instance, which clears on every miss, stands in
# for the run without one.
filtered_test -q --release -p aida-agents --lib step_cache::tests

# Shared-reading transparency: a call that answers from a reading another
# model's call on the same task filled must return, bill and cache the
# bits of an independent `invoke` (every task kind, subject kind, oracle,
# fault and cache setting), and a sampler sharing one reading per
# (operator, sample record) must produce the matrices, receipts, clock and
# cache state of one reading every call afresh. Release runs the full
# case counts.
cargo test -q --release -p aida-llm --test shared_readings
filtered_test -q --release -p aida-optimizer --lib \
  sampler::tests::shared_readings_sample_like_afresh_readings

# The runtime's delta chain: random admit/hit/evict/clear/checkpoint
# sequences at capacities of a few entries must recover the cache of its
# last checkpoint byte for byte, and random Context and cache mutations
# with checkpoints and one seed-chosen crash (a torn frame or a snapshot
# commit) must recover both stores at one checkpoint of the live run.
# Release runs the full case counts (2,048 each).
cargo test -q --release --test delta_chain

# Durable text formats: one property harness over the cache snapshot, the
# ledger record and snapshot, the Context-store snapshot and delta frame,
# and the bytecode artifact. Encoder output must round-trip, an edited
# body re-framed with a valid checksum must never panic its decoder, and
# whatever it decodes to must be a fixpoint of decode∘encode. Release
# runs the full case count (a few seconds).
cargo test -q --release --test codecs

# Pyrite VM determinism: the bench's canonical JSON and its per-program
# table (instructions and fuel) — two runs must be byte-identical, and
# equal to the committed files. Nothing here gates on host speed.
AIDA_RESULTS_DIR=target/ci-pyrite-a \
  cargo run -q --release -p aida-bench --bin pyrite_bench >/dev/null
AIDA_RESULTS_DIR=target/ci-pyrite-b \
  cargo run -q --release -p aida-bench --bin pyrite_bench >/dev/null
for f in BENCH_pyrite_vm.json pyrite_vm.txt; do
  cmp "target/ci-pyrite-a/$f" "target/ci-pyrite-b/$f"
  cmp "target/ci-pyrite-a/$f" "results/$f"
done

# Static cost bounds: the analyzer snapshot over the fixed corpus must
# be deterministic — two runs byte-identical on the canonical JSON, the
# per-program JSONL and the table, all equal to the committed files —
# and the binary itself asserts every bound survives the plan-cache
# artifact round-trip (exit nonzero otherwise).
AIDA_RESULTS_DIR=target/ci-bounds-a \
  cargo run -q --release -p aida-bench --bin bounds_bench >/dev/null
AIDA_RESULTS_DIR=target/ci-bounds-b \
  cargo run -q --release -p aida-bench --bin bounds_bench >/dev/null
for f in BENCH_bounds.json bounds.jsonl bounds.txt; do
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
# cost (exits nonzero otherwise). Its dollars are the queries' receipts:
# two runs must write byte-identical JSON, equal to the committed file.
AIDA_RESULTS_DIR=target/ci-cachebench-a \
  cargo run -q --release -p aida-bench --bin cache_bench >/dev/null
AIDA_RESULTS_DIR=target/ci-cachebench-b \
  cargo run -q --release -p aida-bench --bin cache_bench >/dev/null
cmp target/ci-cachebench-a/BENCH_cache_bench.json target/ci-cachebench-b/BENCH_cache_bench.json
cmp target/ci-cachebench-a/BENCH_cache_bench.json results/BENCH_cache_bench.json

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
# two smoke runs must be byte-identical, and a full run (the 100x rung
# too, well under a second) must equal the committed file.
CHECKPOINT_BENCH_SMOKE=1 AIDA_RESULTS_DIR=target/ci-ckpt-a \
  cargo run -q --release -p aida-bench --bin checkpoint_bench >/dev/null
CHECKPOINT_BENCH_SMOKE=1 AIDA_RESULTS_DIR=target/ci-ckpt-b \
  cargo run -q --release -p aida-bench --bin checkpoint_bench >/dev/null
cmp target/ci-ckpt-a/BENCH_checkpoint.json target/ci-ckpt-b/BENCH_checkpoint.json
AIDA_RESULTS_DIR=target/ci-ckpt-full \
  cargo run -q --release -p aida-bench --bin checkpoint_bench >/dev/null
cmp target/ci-ckpt-full/BENCH_checkpoint.json results/BENCH_checkpoint.json

# Host-clock benchmark package: its own fmt/clippy/unit tests, the
# BENCHMARK.json manifest check and a smoke run of every workload. It
# proves the benchmark still builds against the crates unchanged; speed
# is judged by before/after runs (perf/README.md), never here.
perf/check.sh
