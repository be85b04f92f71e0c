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
use aida_script::{Bound, CostBound, Interpreter, Ty, TypeEnv};

mod common;
use common::{instrument, observe_vm, Observed, Trace, HARNESS_TOOLS};

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

/// Runs `first`, then `second` on the same interpreter, compiling
/// `second` against the globals `first` left, as the agents runtime
/// compiles a step: if the front end accepts `second` and its run
/// completes, its bound must dominate the run.
fn check_session(first: &str, second: &str) -> Result<(), String> {
    let trace = Trace::default();
    let mut interp = Interpreter::new().with_fuel(FUEL);
    instrument(&mut interp, trace.clone());
    let _ = interp.run(first);
    let mut env = TypeEnv::new();
    for name in interp.global_names() {
        env.bind_global(&name, Ty::Any);
    }
    let compiled = aida_script::parser::parse(second)
        .and_then(|program| aida_script::compile_checked(&program, &env));
    let Ok(program) = compiled else {
        return Ok(()); // Rejected before it runs: nothing to bound.
    };
    trace.take();
    let result = interp.run_compiled(&program);
    let obs = Observed {
        result: match result {
            Ok(v) => format!("Ok: {v}"),
            Err(e) => format!("Err: {e}"),
        },
        trace: trace.take(),
        output: interp.take_output(),
        fuel_remaining: interp.fuel_remaining(),
    };
    if !obs.completed() {
        return Ok(());
    }
    check_sound(second, &program.bound, &obs)
}

mod generated {
    use super::*;
    use common::templates::{render_program, render_statements, tpl};
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

        /// Two-program sessions: the second program reads the first's
        /// globals and is bounded with them bound.
        #[test]
        fn later_programs_respect_bounds_under_the_globals_they_read(
            first in prop::collection::vec(tpl(), 1..5),
            second in prop::collection::vec(tpl(), 1..5),
        ) {
            let first = render_program(&first);
            let second = render_statements(&second);
            if let Err(msg) = check_session(&first, &second) {
                prop_assert!(false, "soundness violation after:\n{}\n---\n{}", first, msg);
            }
        }
    }
}

#[test]
fn a_step_reading_an_earlier_steps_list_is_bounded_by_its_reads() {
    // The first program leaves a 40-element list; the second loops over
    // it calling `read_file`. Bounded as a fresh program it would fault
    // on `files` and promise three fuel and no calls.
    let first = format!("files = [{}]", vec!["'a.csv'"; 40].join(", "));
    let second = "n = len(files)\ni = 0\nwhile i < n:\n    read_file(files[i])\n    i += 1\nn";
    check_session(&first, second).unwrap();
    let looped = "for f in files:\n    read_file(f)\nlen(files)";
    check_session(&first, looped).unwrap();
}

/// A seeded generator of programs whose loops leave early: `break`,
/// `continue` and `return` in loop bodies, with dead statements (and dead
/// loops) after them, stores on exit paths, `while True` loops and
/// comprehension filters. The template matrix has none of these.
struct EarlyExits(u64);

impl EarlyExits {
    fn pick(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn var(&mut self) -> String {
        format!("v{}", self.pick(4))
    }

    fn block(&mut self, out: &mut String, depth: usize, in_loop: bool, in_def: bool) {
        for _ in 0..=self.pick(3) {
            self.stmt(out, depth, in_loop, in_def);
        }
    }

    fn stmt(&mut self, out: &mut String, depth: usize, in_loop: bool, in_def: bool) {
        let pad = "    ".repeat(depth);
        let (a, b) = (self.var(), self.var());
        let (n, m) = (self.pick(6), self.pick(3));
        match self.pick(if depth >= 3 { 6 } else { 13 }) {
            0 => out.push_str(&format!("{pad}{a} = {n}\n")),
            1 => out.push_str(&format!("{pad}{a} += {}\n", m as i64 - 1)),
            2 => out.push_str(&format!("{pad}emit({a})\n")),
            3 if in_loop => {
                out.push_str(&format!("{pad}{}\n", ["break", "continue"][m as usize % 2]))
            }
            3 | 4 if in_def => out.push_str(&format!("{pad}return {a}\n")),
            3 | 4 => out.push_str(&format!(
                "{pad}{a} = [x * 2 for x in range({n}) if x != {m}]\n"
            )),
            5 => out.push_str(&format!("{pad}{a} = len(str({b}))\n")),
            6 => {
                out.push_str(&format!("{pad}if {a} > {m}:\n"));
                self.block(out, depth + 1, in_loop, in_def);
                if n % 2 == 0 {
                    out.push_str(&format!("{pad}else:\n"));
                    self.block(out, depth + 1, in_loop, in_def);
                }
            }
            7 => {
                out.push_str(&format!("{pad}for {a} in range({n}):\n"));
                self.block(out, depth + 1, true, in_def);
            }
            8 => {
                // A counted `while`, incremented before or after its body.
                out.push_str(&format!("{pad}{a} = 0\n{pad}while {a} < {n}:\n"));
                let step = format!("{pad}    {a} += {}\n", 1 + m % 2);
                if m == 0 {
                    out.push_str(&step);
                    self.block(out, depth + 1, true, in_def);
                } else {
                    self.block(out, depth + 1, true, in_def);
                    out.push_str(&step);
                }
            }
            9 => {
                out.push_str(&format!("{pad}while True:\n"));
                self.block(out, depth + 1, true, in_def);
                out.push_str(&format!("{pad}    break\n"));
            }
            10 => {
                out.push_str(&format!("{pad}for {a} in [1, 2, {b}]:\n"));
                self.block(out, depth + 1, true, in_def);
            }
            11 => {
                // A store on the way out of the loop.
                out.push_str(&format!("{pad}if {b} > 1:\n{pad}    {a} = {m}\n"));
                if in_loop {
                    out.push_str(&format!("{pad}    break\n"));
                }
            }
            12 if depth == 0 => {
                out.push_str(&format!(
                    "{pad}def f{m}(v0):\n    v1 = 0\n    v2 = 0\n    v3 = 0\n"
                ));
                self.block(out, 1, false, true);
                out.push_str(&format!("    return v0\n{a} = f{m}({b})\n"));
            }
            _ => out.push_str(&format!("{pad}{a} = {b} + 1\n")),
        }
    }

    fn program(seed: u64) -> String {
        let mut g = EarlyExits(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut src = String::from("v0 = 1\nv1 = 2\nv2 = 3\nv3 = 4\n");
        for _ in 0..=g.pick(5) {
            g.stmt(&mut src, 0, false, false);
        }
        src
    }
}

#[test]
fn programs_that_leave_loops_early_respect_static_bounds() {
    for seed in 1..=2_000 {
        let src = EarlyExits::program(seed);
        let program = compile_source(&src).expect("generated programs compile");
        let obs = observe_vm(&src, FUEL);
        if obs.completed() {
            if let Err(msg) = check_sound(&src, &program.bound, &obs) {
                panic!("seed {seed}: soundness violation: {msg}");
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
