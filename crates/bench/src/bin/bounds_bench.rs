//! Static cost-bound analyzer snapshot.
//!
//! Runs `aida_script::analyze` over a corpus of policy-shaped programs
//! (the `pyrite_bench` shapes plus bounded/unbounded exemplars) and
//! writes:
//!
//! * `results/bounds.jsonl` — one line per program with its fuel bound,
//!   per-tool call bounds, Flagship dollar bound, and the human
//!   rendering. Pure static analysis of fixed sources: byte-identical
//!   across runs, `cmp`'d by ci.sh.
//! * `results/BENCH_bounds.json` — canonical deterministic metrics
//!   (program counts by verdict, summed finite bounds).
//! * `results/bounds.txt` — the same table, human-readable.
//!
//! All three are byte-identical across runs. The analyzer's host time is
//! measured by the `perf/` benchmark's `script.bounds_us` rung, not here.
//!
//! Every program's bound is also round-tripped through the versioned
//! artifact encoding (`encode` → `decode`) and the binary aborts on any
//! mismatch — the bound must survive plan caching exactly.

use aida_bench::{emit_bench, emit_text, results_dir, BenchResult};
use aida_llm::ModelId;
use aida_script::{compile_source, CompiledProgram};

/// Analyzer corpus: the `pyrite_bench` execution shapes plus exemplars
/// pinning each verdict class (fuel+usd bounded, fuel-unbounded but
/// dollar-bounded, dollar-unbounded).
const CORPUS: &[(&str, &str)] = &[
    ("straight_line", "x = 1 + 2\ny = x * 10\ny\n"),
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
    (
        "looped_reads",
        "total = 0\n\
         for i in range(40):\n\
         \x20   total = total + len(read_file('a.csv'))\n\
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
        "scan_filter",
        "files = list_files()\n\
         hits = [f for f in files if 'report' in f]\n\
         total = 0\n\
         for f in hits:\n\
         \x20   total = total + len(read_file(f))\n\
         total\n",
    ),
];

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let mut report = String::new();
    let mut jsonl = String::new();
    let mut fuel_bounded = 0u32;
    let mut usd_bounded = 0u32;
    let mut unbounded = 0u32;
    let mut fuel_sum = 0u64;
    let mut usd_flagship_sum = 0.0f64;

    report.push_str(&format!(
        "bounds: static cost-bound analysis over {} programs\n\n",
        CORPUS.len()
    ));
    report.push_str(&format!(
        "{:<16} {:>10} {:>14}  {}\n",
        "program", "fuel_max", "usd_flagship", "bound"
    ));

    for (name, source) in CORPUS {
        let compiled = compile_source(source).expect("corpus program must compile");
        let bound = &compiled.bound;

        // The bound must round-trip the plan-cache artifact exactly.
        let decoded =
            CompiledProgram::decode(&compiled.encode()).expect("artifact must round-trip");
        assert_eq!(bound, &decoded.bound, "{name}: bound diverged in artifact");

        let usd = bound.usd_max(ModelId::Flagship);
        if bound.fuel_max.is_finite() {
            fuel_bounded += 1;
            if let aida_script::Bound::Finite(f) = bound.fuel_max {
                fuel_sum += f;
            }
        }
        if usd.is_finite() {
            usd_bounded += 1;
            usd_flagship_sum += usd;
        }
        if bound.unbounded {
            unbounded += 1;
        }

        let usd_text = if usd.is_finite() {
            format!("{usd:.6}")
        } else {
            "inf".to_string()
        };
        report.push_str(&format!(
            "{name:<16} {:>10} {:>14}  {}\n",
            bound.fuel_max.to_string(),
            usd_text,
            bound.render()
        ));
        jsonl.push_str(&format!(
            "{{\"program\":{},\"fuel_max\":{},\"unbounded\":{},\"usd_flagship\":{},\"bound\":{}}}\n",
            json_str(name),
            json_str(&bound.fuel_max.to_string()),
            bound.unbounded,
            json_str(&usd_text),
            json_str(&bound.render()),
        ));
    }

    let dir = results_dir();
    std::fs::write(dir.join("bounds.jsonl"), &jsonl).expect("write bounds.jsonl");
    emit_text("bounds", &report);

    emit_bench(
        &BenchResult::new("bounds", 0)
            .metric("programs", CORPUS.len() as f64)
            .metric("fuel_bounded", f64::from(fuel_bounded))
            .metric("usd_bounded", f64::from(usd_bounded))
            .metric("unbounded", f64::from(unbounded))
            .metric("fuel_max_sum", fuel_sum as f64)
            .metric("usd_flagship_sum", usd_flagship_sum),
    );
}
