//! Soundness suite for the static cost-bound analyzer
//! (`aida_script::bounds`): on every program the generated differential
//! matrix can produce, a completing run must stay within the static
//! bound on all three axes —
//!
//! * fuel actually charged ≤ `fuel_max`,
//! * per-tool actual call counts ≤ the per-tool bound,
//! * dollars billed for the run's tool calls at the executing tier
//!   (under the per-call token envelope) ≤ `usd_max(tier)`.
//!
//! Programs that error or exhaust fuel carry no obligation — they never
//! completed — and `unbounded` dimensions are trivially satisfied. The
//! fixtures at the bottom pin programs where the analyzer *must* give
//! up (data-dependent `while`, iteration over tool output) rather than
//! emit a wrong finite number.

use aida_llm::models::{ModelCatalog, ModelId};
use aida_script::bytecode::compile_source;
use aida_script::{Bound, CostBound};

mod common;
use common::{observe_vm, Observed, HARNESS_TOOLS};

const FUEL: u64 = 20_000;

/// The analyzer's per-tool-call billing envelope (`bounds.rs`): its
/// dollar bounds hold for runtimes that never bill a call above it.
const TOOL_CALL_MAX_INPUT_TOKENS: usize = 4096;
const TOOL_CALL_MAX_OUTPUT_TOKENS: usize = 1024;

/// The most one tool call can cost at `tier` under the envelope.
fn usd_per_tool_call(catalog: &ModelCatalog, tier: ModelId) -> f64 {
    catalog
        .spec(tier)
        .cost(TOOL_CALL_MAX_INPUT_TOKENS, TOOL_CALL_MAX_OUTPUT_TOKENS)
}

/// Worst-case calls to `tool`: absence means proven-never-called unless
/// the call set is open.
fn call_bound(bound: &CostBound, tool: &str) -> Bound {
    if bound.calls_open {
        return Bound::Unbounded;
    }
    bound
        .calls_per_tool
        .get(tool)
        .copied()
        .unwrap_or(Bound::Finite(0))
}

/// Checks every soundness obligation of `bound` against one completed
/// observation; returns an error description on violation.
fn check_sound(src: &str, bound: &CostBound, obs: &Observed) -> Result<(), String> {
    let fuel_used = FUEL - obs.fuel_remaining;
    if let Bound::Finite(max) = bound.fuel_max {
        if fuel_used > max {
            return Err(format!(
                "fuel used {fuel_used} > fuel_max {max} for:\n{src}"
            ));
        }
    }
    let catalog = ModelCatalog::default();
    for &tier in ModelId::ALL.iter() {
        let per_call = usd_per_tool_call(&catalog, tier);
        let mut billed = 0.0_f64;
        for tool in HARNESS_TOOLS {
            let actual = obs.calls_to(tool);
            match call_bound(bound, tool) {
                Bound::Finite(max) if actual > max => {
                    return Err(format!(
                        "{tool} called {actual} times > bound {max} for:\n{src}"
                    ));
                }
                _ => {}
            }
            // Bill every tool call at the envelope ceiling — the
            // runtime never bills more per call than this.
            billed += actual as f64 * per_call;
        }
        let max = bound.usd_max(tier);
        if billed > max {
            return Err(format!(
                "billed ${billed:.6} at {} > usd_max ${max:.6} for:\n{src}",
                tier.name()
            ));
        }
    }
    Ok(())
}

#[track_caller]
fn assert_sound(src: &str) {
    let program = compile_source(src).expect("program compiles");
    let obs = observe_vm(src, FUEL);
    if !obs.completed() {
        return; // Errors and exhaustion carry no obligation.
    }
    if let Err(msg) = check_sound(src, &program.bound, &obs) {
        panic!("soundness violation: {msg}");
    }
}

mod generated {
    use super::*;
    use common::templates::{render_program, tpl};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The same 96-program matrix the differential oracle runs:
        /// zero completing programs may exceed any static bound.
        #[test]
        fn generated_programs_respect_static_bounds(
            stmts in prop::collection::vec(tpl(), 1..7),
        ) {
            let src = render_program(&stmts);
            let program = compile_source(&src).expect("templates always parse");
            let obs = observe_vm(&src, FUEL);
            if obs.completed() {
                if let Err(msg) = check_sound(&src, &program.bound, &obs) {
                    prop_assert!(false, "soundness violation: {}", msg);
                }
            }
        }
    }
}

#[test]
fn corpus_shaped_programs_are_sound() {
    // The agent-step shapes the planner policies emit.
    let corpus = [
        "files = list_files()\nhits = [f for f in files if 'csv' in f]\nlen(hits)",
        "total = 0\nfor i in range(50):\n    total += i\nemit(total)\ntotal",
        "i = 0\nacc = 0\nwhile i < 400:\n    acc += i * i\n    i += 1\nacc",
        "def score(n):\n    return n * 3 + 1\nxs = [score(i) for i in range(12)]\nsum(xs)",
        "counts = {}\nfor f in list_files():\n    counts[f] = len(read_file(f))\nsorted(counts)",
    ];
    for src in corpus {
        assert_sound(src);
    }
}

#[test]
fn bounded_corpus_programs_get_finite_fuel() {
    // Purely arithmetic programs with constant loops must not degrade
    // to unbounded — that would make admission gating vacuous.
    let finite = [
        "total = 0\nfor i in range(50):\n    total += i\ntotal",
        "i = 0\nacc = 0\nwhile i < 400:\n    acc += i * i\n    i += 1\nacc",
        "xs = [i * 2 for i in range(30) if i != 3]\nlen(xs)",
    ];
    for src in finite {
        let program = compile_source(src).expect("compiles");
        assert!(
            program.bound.fuel_max.is_finite(),
            "expected finite fuel for:\n{src}\ngot {:?}",
            program.bound
        );
        assert!(!program.bound.unbounded, "expected bounded: {src}");
    }
}

#[test]
fn data_dependent_while_must_be_unbounded() {
    // The analyzer may not invent a finite trip count for a loop whose
    // bound comes from tool output.
    let fixtures = [
        "n = len(list_files())\ni = 0\nwhile i < n:\n    i += 1\ni",
        "text = read_file('a.csv')\ni = 0\nwhile i < len(text):\n    i += 1\ni",
        "i = 10\nwhile i > 0:\n    i = i - 1\ni",
        "i = 0\nwhile i < 10:\n    if i > 5:\n        i += 1\ni",
    ];
    for src in fixtures {
        let program = compile_source(src).expect("compiles");
        assert!(
            program.bound.unbounded,
            "analyzer must degrade to unbounded for:\n{src}\ngot {:?}",
            program.bound
        );
    }
}

#[test]
fn iteration_over_tool_output_is_unbounded_but_entry_call_is_counted() {
    let program = compile_source("for f in list_files():\n    read_file(f)\n0").expect("compiles");
    assert!(program.bound.unbounded);
    assert_eq!(call_bound(&program.bound, "list_files"), Bound::Finite(1));
    assert_eq!(call_bound(&program.bound, "read_file"), Bound::Unbounded);
    // The observed run must still respect the finite dimension.
    let obs = observe_vm("for f in list_files():\n    read_file(f)\n0", FUEL);
    assert!(obs.completed());
    assert!(obs.calls_to("list_files") <= 1);
}
