//! Pyrite execution micro-benchmark: the bytecode VM on a policy-shaped
//! program corpus.
//!
//! Two measured configurations, matching the real agent paths:
//!
//! * **cold VM** — parse + typecheck + compile + execute per iteration:
//!   the first execution of a freshly planned step.
//! * **warm VM** — compile once, `run_compiled` per iteration: repeated
//!   execution of a cached plan (the semantic cache keys plans by the
//!   compiled program's content hash, so warm re-runs are the common
//!   case under caching).
//!
//! Wall-clock timings go to stdout and `results/pyrite_vm.txt` only —
//! host time never enters the canonical JSON. `BENCH_pyrite_vm.json`
//! carries exclusively deterministic metrics (programs, iterations,
//! instruction counts, fuel burned, an output checksum), so two runs of
//! this binary produce byte-identical JSON; `ci.sh` runs it twice and
//! `cmp`s.

use aida_bench::{emit_bench, emit_text, BenchResult};
use aida_llm::WallStopwatch;
use aida_script::{compile_source, CompiledProgram, Interpreter, ScriptValue};

/// Iterations per program per configuration.
const ITERS: u32 = 200;

/// Fuel budget, matching the agents runtime.
const FUEL: u64 = 5_000_000;

/// Policy-shaped corpus: the shapes agent planners actually emit —
/// tool probes, filtered comprehensions, aggregation loops, helper
/// functions, string slicing.
const CORPUS: &[(&str, &str)] = &[
    (
        "scan_filter",
        "files = list_files()\n\
         hits = [f for f in files if 'report' in f]\n\
         total = 0\n\
         for f in hits:\n\
         \x20   total = total + len(read_file(f))\n\
         total\n",
    ),
    (
        "aggregate_rows",
        "def parse_row(line):\n\
         \x20   parts = line.split(',')\n\
         \x20   return int(parts[1])\n\
         rows = read_file('data.csv').split('\\n')\n\
         total = 0\n\
         for line in rows[1:]:\n\
         \x20   if len(line) > 0:\n\
         \x20       total = total + parse_row(line)\n\
         total\n",
    ),
    (
        "search_rank",
        "hits = search_keywords('identity theft', 8)\n\
         scores = []\n\
         for h in hits:\n\
         \x20   score = 0\n\
         \x20   for word in h.split(' '):\n\
         \x20       if len(word) > 4:\n\
         \x20           score = score + 1\n\
         \x20   scores.append(score)\n\
         best = 0\n\
         for s in scores:\n\
         \x20   if s > best:\n\
         \x20       best = s\n\
         best\n",
    ),
    (
        "numeric_loop",
        "def ratio(a, b):\n\
         \x20   if b == 0:\n\
         \x20       return 0\n\
         \x20   return a * 100 / b\n\
         acc = 0\n\
         i = 0\n\
         while i < 400:\n\
         \x20   acc = acc + ratio(i, i + 1)\n\
         \x20   i = i + 1\n\
         acc\n",
    ),
];

/// Installs the synthetic tool surface every corpus program runs
/// against. Pure and allocation-cheap so the numbers measure execution
/// machinery, not tool bodies.
fn bind_tools(interp: &mut Interpreter) {
    interp.bind_host_fn("list_files", |_args| {
        Ok(ScriptValue::list(
            ["report_2001.txt", "report_2024.txt", "notes.md"]
                .iter()
                .map(|s| ScriptValue::str(*s))
                .collect(),
        ))
    });
    interp.bind_host_fn("read_file", |_args| {
        Ok(ScriptValue::str(
            "year,n\n2001,10\n2008,40\n2013,75\n2024,130",
        ))
    });
    interp.bind_host_fn("search_keywords", |_args| {
        Ok(ScriptValue::list(
            [
                "identity theft reports rose sharply",
                "consumer sentinel network data book",
                "fraud and other complaints by year",
            ]
            .iter()
            .map(|s| ScriptValue::str(*s))
            .collect(),
        ))
    });
}

fn fresh_interp() -> Interpreter {
    let mut interp = Interpreter::new().with_fuel(FUEL);
    bind_tools(&mut interp);
    interp
}

/// What one run of a corpus program produced.
struct Outcome {
    value: ScriptValue,
    output: Vec<String>,
    fuel_used: u64,
}

fn run_vm(program: &CompiledProgram) -> Outcome {
    let mut interp = fresh_interp();
    let value = interp
        .run_compiled(program)
        .expect("corpus program must run");
    Outcome {
        value,
        output: interp.take_output(),
        fuel_used: FUEL - interp.fuel_remaining(),
    }
}

/// FNV-1a over the rendered values and output lines: an exact-in-f64
/// (32-bit) checksum tying the JSON to the corpus semantics.
fn checksum(outcomes: &[Outcome]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut eat = |s: &str| {
        for b in s.bytes() {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
    };
    for o in outcomes {
        eat(&format!("{}", o.value));
        for line in &o.output {
            eat(line);
        }
    }
    h
}

fn main() {
    let mut report = String::new();
    let mut outcomes = Vec::new();
    let mut total_insns = 0u64;
    let mut total_fuel = 0u64;

    report.push_str(&format!(
        "pyrite_vm: {} programs x {ITERS} iterations per configuration\n\n",
        CORPUS.len()
    ));
    report.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>12}\n",
        "program", "insns", "cold_vm_ms", "warm_vm_ms"
    ));

    for (name, source) in CORPUS {
        let compiled = compile_source(source).expect("corpus program must compile");
        let outcome = run_vm(&compiled);

        let sw = WallStopwatch::start();
        for _ in 0..ITERS {
            let compiled = compile_source(source).expect("corpus program must compile");
            let _ = run_vm(&compiled);
        }
        let cold_s = sw.elapsed_s();

        let sw = WallStopwatch::start();
        for _ in 0..ITERS {
            let _ = run_vm(&compiled);
        }
        let warm_s = sw.elapsed_s();

        report.push_str(&format!(
            "{name:<16} {:>10} {:>12.2} {:>12.2}\n",
            compiled.insn_count(),
            cold_s * 1e3,
            warm_s * 1e3,
        ));

        total_insns += compiled.insn_count() as u64;
        total_fuel += outcome.fuel_used;
        outcomes.push(outcome);
    }

    emit_text("pyrite_vm", &report);

    // Canonical JSON: deterministic metrics only — no wall-clock values,
    // so two runs are byte-identical (ci.sh cmps them).
    emit_bench(
        &BenchResult::new("pyrite_vm", 1)
            .metric("programs", CORPUS.len() as f64)
            .metric("iters_per_config", f64::from(ITERS))
            .metric("total_insns", total_insns as f64)
            .metric("fuel_used", total_fuel as f64)
            .metric("output_checksum", f64::from(checksum(&outcomes))),
    );
}
