//! Rendering: the result line the benchmark contract asks for, the
//! committed `PERF_*.json` trajectory files, and the tables people read.

use crate::host;
use crate::metrics::{Measured, RunResult, END_TO_END};
use aida_obs::Json;
use std::path::{Path, PathBuf};

/// Where committed results live: `perf/results/`, next to the sources
/// this binary was built from.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Renders JSON with one object field or array item per line — the
/// trajectory files are committed, so a changed number should be a
/// one-line diff. Objects whose values are all scalars stay on one line.
pub fn pretty(json: &Json) -> String {
    let mut out = String::new();
    write_pretty(json, 0, &mut out);
    out.push('\n');
    out
}

fn is_scalar(json: &Json) -> bool {
    !matches!(json, Json::Arr(_) | Json::Obj(_))
}

fn write_pretty(json: &Json, depth: usize, out: &mut String) {
    let pad = |out: &mut String, depth: usize| out.push_str(&"  ".repeat(depth));
    match json {
        Json::Obj(fields) if !fields.iter().all(|(_, v)| is_scalar(v)) => {
            out.push_str("{\n");
            for (i, (key, value)) in fields.iter().enumerate() {
                pad(out, depth + 1);
                out.push_str(&Json::Str(key.clone()).render());
                out.push_str(": ");
                write_pretty(value, depth + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push('}');
        }
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(out, depth + 1);
                write_pretty(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push(']');
        }
        flat => out.push_str(&flat.render()),
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric a `{value, unit}` pair.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut table = Json::obj();
    for &(name, value, unit) in metrics {
        table = table.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", table)
        .render()
}

/// The facts a result file records about where it was measured.
pub fn environment(seed: u64) -> Json {
    Json::obj()
        .field("seed", seed)
        .field("nproc", host::nproc())
        .field(
            "pinned_cpu",
            host::pinned_cpu().map_or(Json::Null, Json::from),
        )
        .field("reference_nominal_s", crate::reference::REFERENCE_S)
        .field("rustc", host::rustc_version())
        .field("git_commit", host::git_commit())
        .field(
            "durable_fs",
            host::filesystem_of(&crate::trial::scratch_base()),
        )
}

/// Writes a result document in its committed, line-per-field form.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, pretty(doc)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("(wrote {})", path.display());
    Ok(())
}

fn measured_json(m: &Measured) -> Json {
    let mut json = Json::obj()
        .field("name", m.name)
        .field("value", m.value)
        .field("unit", m.unit);
    if let Some(raw) = m.raw {
        json = json.field("raw", raw);
    }
    json.field("mad", m.mad).field("samples", m.samples)
}

/// `PERF_<workload>.json`: each end-to-end value with the MAD and
/// sample count behind it, the printed tail, and the environment.
pub fn perf_json(workload: &str, run: &RunResult, environment: Json) -> Json {
    let (p99, max, n) = run.host_tail_ms();
    let digest = run.trials.first().map_or(0, |t| t.digest);
    Json::obj()
        .field("workload", workload)
        .field("environment", environment)
        .field("trials", run.trials.len())
        .field("attempted", run.attempted())
        .field("failed", run.failed())
        .field("digest", format!("{digest:016x}"))
        .field("reference_measured_s", run.reference_s())
        .field(
            "end_to_end",
            run.end_to_end()
                .iter()
                .map(measured_json)
                .collect::<Vec<_>>(),
        )
        .field(
            "ungated_tail",
            Json::obj()
                .field("host_ms_p99", p99)
                .field("host_ms_max", max)
                .field("samples", n),
        )
}

/// One `metric <name> <value> <unit>` line per end-to-end metric — what
/// `noise` reads back from a child `run`, so the value is printed in the
/// shortest form that parses back to the same bits — then the restart
/// passes, the tail and the digest for people.
pub fn print_run(workload: &str, run: &RunResult) {
    println!("== {workload}: {} trials", run.trials.len());
    for (m, def) in run.end_to_end().iter().zip(END_TO_END) {
        println!(
            "metric {:<26} {:>22} {:<10} ({}mad {:.6}, n {}, {} is better, bound {}%)",
            m.name,
            m.value,
            m.unit,
            m.raw.map_or(String::new(), |raw| format!("raw {raw}, ")),
            m.mad,
            m.samples,
            if def.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            def.bound * 100.0,
        );
    }
    println!(
        "reference: {:.3} ms measured against {:.3} ms nominal; host times above are scaled by their ratio, `raw` is the clock",
        run.reference_s() * 1e3,
        crate::reference::REFERENCE_S * 1e3,
    );
    let ms = |stretches: &[crate::trial::Stretch]| -> String {
        let all: Vec<String> = stretches
            .iter()
            .map(|s| format!("{:.1}/{:.3}", s.wall_s * 1e3, s.reference_s * 1e3))
            .collect();
        all.join(" ")
    };
    println!("set-ups, raw ms/reference ms: {}", ms(&run.setups));
    println!(
        "restart passes, raw ms/reference ms: {}",
        ms(&run.restart.passes)
    );
    let (p99, max, n) = run.host_tail_ms();
    println!("ungated: host_ms_p99 {p99:.3} ms, host_ms_max {max:.3} ms over {n} queries");
    println!(
        "digest {:016x} (answers, dollar bits, virtual-second bits, service report)",
        run.trials.first().map_or(0, |t| t.digest)
    );
    for failure in run.failures() {
        println!("FAIL {failure}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = contract_line(
            true,
            1000,
            0,
            &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"latency_ms":{"value":1.2034,"unit":"ms"},"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn pretty_breaks_nested_values_and_keeps_scalar_objects_flat() {
        let json = Json::obj()
            .field("workload", "w")
            .field("env", Json::obj().field("seed", 1u64).field("fs", "ext4"))
            .field(
                "metrics",
                vec![Json::obj().field("name", "a").field("value", 1.5)],
            )
            .field("empty", Vec::<Json>::new());
        assert_eq!(
            pretty(&json),
            "{\n  \"workload\": \"w\",\n  \"env\": {\"seed\":1,\"fs\":\"ext4\"},\n  \"metrics\": [\n    \
             {\"name\":\"a\",\"value\":1.5}\n  ],\n  \"empty\": []\n}\n"
        );
    }
}
