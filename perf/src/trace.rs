//! The traced run: one trial with `RuntimeBuilder::tracing(true)` and
//! the benchmark's own host spans, next to one untraced trial of the
//! same work. It yields the per-layer counts, the spans' self-time
//! shares, the tracing overhead, and — with the rungs' unit costs — an
//! *estimated* share of the wall time per layer. End-to-end metrics are
//! never taken from here.

use crate::layers::{Rung, RungResult, RUNGS};
use crate::metrics::END_TO_END;
use crate::report;
use crate::spans::{escaping_children, is_under, self_times_ns, SpanLog};
use crate::trial::{Counts, Sizes};
use aida_obs::Json;
use std::collections::BTreeMap;

/// A per-layer metric's definition (counts here, rungs in `layers`).
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

impl From<&Rung> for Def {
    fn from(rung: &Rung) -> Def {
        Def {
            name: rung.name,
            unit: rung.unit,
            higher_is_better: rung.higher_is_better,
        }
    }
}

const fn count(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The counts read from the traced run, by layer. "Lower is better"
/// means less work for the same answers; the ratios and the sizes of
/// what the workload was *given* (requests admitted, connections) only
/// describe the run.
pub const COUNTS: [Def; 47] = [
    count("semops.records_in", "count"),
    count("semops.records_out", "count"),
    count("semops.llm_calls", "count"),
    gain("semops.coalesced", "count"),
    count("llm.calls", "count"),
    count("llm.tokens_in", "tokens"),
    count("llm.tokens_out", "tokens"),
    gain("llm.cache_hits", "count"),
    count("llm.cache_misses", "count"),
    gain("llm.cache_hit_ratio", "ratio"),
    count("llm.cache_evictions", "count"),
    count("llm.cache_bytes", "bytes"),
    count("llm.host_us_per_call", "us"),
    gain("core.reuse_hits", "count"),
    count("core.reuse_misses", "count"),
    gain("core.reuse_hit_ratio", "ratio"),
    count("core.evictions", "count"),
    count("core.contexts_resident", "count"),
    count("core.checkpoints", "count"),
    count("core.checkpoint_bytes", "bytes"),
    count("agents.steps_per_query", "count"),
    count("agents.static_rejects", "count"),
    count("script.programs_distinct", "count"),
    gain("serve.admitted", "count"),
    count("serve.shed", "count"),
    count("serve.queue_depth_max", "count"),
    count("serve.queue_wait_virt_s_p95", "virt_s"),
    count("serve.scale_events", "count"),
    count("serve.worker_seconds", "virt_s"),
    count("serve.net.conns", "count"),
    count("serve.net.frames_in", "count"),
    count("serve.net.frames_out", "count"),
    count("serve.net.bytes_in", "bytes"),
    gain("serve.net.plan_hash_hit_ratio", "ratio"),
    count("serve.net.wire_errors", "count"),
    count("serve.wal.appends", "count"),
    count("serve.wal.fsyncs_per_query", "count"),
    count("serve.wal.group_flushes", "count"),
    count("serve.wal.segments_sealed", "count"),
    count("serve.wal.replayed", "count"),
    count("serve.source_busy_share", "ratio"),
    count("sql.statements", "count"),
    count("optimizer.programs", "count"),
    count("optimizer.sample_llm_calls", "count"),
    count("obs.spans", "count"),
    count("obs.events", "count"),
    count("obs.trace_overhead_share", "ratio"),
];

/// What the traced run of one workload produced.
pub struct Traced {
    pub counts: Counts,
    pub log: SpanLog,
    pub attempted: u64,
    pub queries: u64,
    /// Wall seconds of the timed region, traced and untraced.
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub failures: Vec<String>,
}

/// Runs `name` once untraced and once traced, then its restart.
pub fn run(name: &str, seed: u64, sizes: Sizes) -> Traced {
    // Every trial starts from nothing, so one workload serves both.
    let mut workload = crate::workload(name, seed, sizes).expect("workload name was checked");
    let untraced = workload.trial(&mut SpanLog::new(false));
    let mut log = SpanLog::new(true);
    let trial = workload.trial(&mut log);
    let restart = workload.restart(&mut log);

    let (traced_wall_s, untraced_wall_s) = (trial.wall_s(), untraced.wall_s());
    // Two single trials a few seconds apart: compared scaled to the
    // reference, or the host's drift between them would drown the share.
    let overhead = (trial.scaled_wall_s() - untraced.scaled_wall_s()) / untraced.scaled_wall_s();
    let mut counts = trial.counts;
    counts.extend(restart.counts);
    counts.insert("obs.trace_overhead_share", overhead);
    let mut failures = trial.failures;
    failures.extend(restart.failures);
    if trial.digest != untraced.digest {
        failures.push("tracing changed what the run decided".to_string());
    }
    for id in escaping_children(log.spans()) {
        failures.push(format!(
            "span {id} ({}) escapes its parent",
            log.spans()[id].name
        ));
    }
    Traced {
        counts,
        log,
        attempted: trial.attempted,
        queries: trial.samples.len() as u64,
        traced_wall_s,
        untraced_wall_s,
        failures,
    }
}

/// The traced run's counts in catalogue order, 0 for a layer the
/// workload never enters.
fn count_values(traced: &Traced) -> Vec<(Def, f64)> {
    COUNTS
        .iter()
        .map(|def| (*def, traced.counts.get(def.name).copied().unwrap_or(0.0)))
        .collect()
}

/// Every per-layer metric of the benchmark contract, in catalogue
/// order: the traced run's counts, then the rungs.
pub fn per_layer(traced: &Traced, rungs: &[RungResult]) -> Vec<(Def, f64)> {
    let mut values = count_values(traced);
    values.extend(rungs.iter().map(|r| (Def::from(&r.rung), r.median)));
    values
}

/// The spans that hold the timed region: one `scan`, or one `serve` per
/// service the trial ran.
fn timed_roots(log: &SpanLog) -> Vec<usize> {
    let spans = log.spans().iter().enumerate();
    spans
        .filter(|(_, s)| s.parent.is_none() && (s.name == "serve" || s.name == "scan"))
        .map(|(id, _)| id)
        .collect()
}

/// Self time by span name, as shares of the timed roots, for the spans
/// under them. The shares sum to 1 when no child escapes its parent.
pub fn self_time_shares(log: &SpanLog) -> Vec<(&'static str, f64, usize)> {
    let roots = timed_roots(log);
    let spans = log.spans();
    let own = self_times_ns(spans);
    let total: u64 = roots.iter().map(|&root| spans[root].duration_ns()).sum();
    let total = total.max(1) as f64;
    let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if !span.lifetime && roots.iter().any(|&root| is_under(spans, id, root)) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += own[id];
            entry.1 += 1;
        }
    }
    let mut shares: Vec<_> = by_name
        .into_iter()
        .map(|(name, (ns, n))| (name, ns as f64 / total, n))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// An estimate of where the traced wall time went: each layer's count
/// times its rung's unit cost, over the wall. The rungs time fixed work
/// that only resembles what the workload did, so this is a reading aid;
/// the exact tree waits for host-time spans inside the program.
pub fn estimated_layer_shares(traced: &Traced, rungs: &[RungResult]) -> Vec<(&'static str, f64)> {
    let count = |name: &str| traced.counts.get(name).copied().unwrap_or(0.0);
    let unit_s = |name: &str, scale: f64| {
        rungs
            .iter()
            .find(|r| r.rung.name == name)
            .map_or(0.0, |r| r.median / scale)
    };
    let queries = traced.queries as f64;
    let misses = if count("llm.cache_hits") + count("llm.cache_misses") > 0.0 {
        count("llm.cache_misses")
    } else {
        count("llm.calls")
    };
    let lookups = count("core.reuse_hits") + count("core.reuse_misses");
    let frames = count("serve.net.frames_in");
    // What the executor adds per record on top of the call it makes:
    // the cached-filter rung minus the hit it contains.
    let per_cached_record = rungs
        .iter()
        .find(|r| r.rung.name == "semops.filter_cached_rec_per_s")
        .map_or(0.0, |r| 1.0 / r.median);
    let executor_s = (per_cached_record - unit_s("llm.invoke_hit_ns", 1e9)).max(0.0);
    let seconds = [
        (
            "llm (miss path)",
            misses * unit_s("llm.invoke_miss_ns", 1e9),
        ),
        (
            "llm (hit path)",
            count("llm.cache_hits") * unit_s("llm.invoke_hit_ns", 1e9),
        ),
        (
            "semops (executor, per record)",
            count("semops.records_in") * executor_s,
        ),
        (
            "optimizer (plan search)",
            count("optimizer.programs") * unit_s("optimizer.optimize_ms", 1e3),
        ),
        (
            "core (reuse + register)",
            lookups * unit_s("core.manager.reuse_us_at_256", 1e6)
                + count("agents.steps_per_query").min(1.0)
                    * queries
                    * unit_s("core.manager.register_us", 1e6),
        ),
        (
            "agents + script (steps)",
            count("agents.steps_per_query") * queries * unit_s("agents.run_us_per_step", 1e6),
        ),
        (
            "serve (front door)",
            frames
                * (unit_s("serve.listener.turn_us_per_frame", 1e6)
                    + unit_s("serve.codec.decode_ns_per_frame", 1e9))
                + count("serve.net.frames_out") * unit_s("serve.codec.encode_ns_per_frame", 1e9),
        ),
        (
            "serve (ledger WAL)",
            count("serve.wal.appends") * unit_s("serve.wal.append_batch8_us_per_record", 1e6),
        ),
        (
            "core (checkpoints)",
            count("core.checkpoints") * unit_s("core.checkpoint.delta_ms", 1e3),
        ),
        (
            "obs (spans)",
            count("obs.spans") * unit_s("obs.span_ns", 1e9),
        ),
    ];
    let wall = traced.traced_wall_s.max(1e-9);
    let mut shares: Vec<(&'static str, f64)> = seconds
        .iter()
        .map(|&(layer, s)| (layer, s / wall))
        .collect();
    let attributed: f64 = shares.iter().map(|(_, share)| share).sum();
    shares.push(("unattributed residual", 1.0 - attributed));
    shares
}

/// The spans outside the timed root — set-up, save, restart — by name in
/// first-seen order, as `(name, spans, median milliseconds)`.
fn phase_spans(log: &SpanLog) -> Vec<(&'static str, usize, f64)> {
    let roots = timed_roots(log);
    let mut phases: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (id, span) in log.spans().iter().enumerate() {
        if span.parent.is_some() || roots.contains(&id) {
            continue;
        }
        let ms = span.duration_ns() as f64 / 1e6;
        match phases.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, all)) => all.push(ms),
            None => phases.push((span.name, vec![ms])),
        }
    }
    phases
        .into_iter()
        .map(|(name, all)| (name, all.len(), crate::stats::median(&all)))
        .collect()
}

/// `trace <workload>`: prints the counts, the self-time shares and the
/// estimated layer shares; at full size writes the committed
/// `results/TRACE_<workload>.json` and the span file
/// `results/trace_<workload>.jsonl`.
pub fn command(name: &str, seed: u64, sizes: Sizes, write: bool) -> Result<(), String> {
    let traced = run(name, seed, sizes);
    let rungs = crate::layers::run_all(seed, sizes);
    println!("== {name}: traced run, seed {seed}");
    println!(
        "timed region: {:.3} s traced, {:.3} s untraced over {} queries",
        traced.traced_wall_s, traced.untraced_wall_s, traced.queries
    );
    println!("-- counts");
    let counts = count_values(&traced);
    for (def, value) in &counts {
        println!("count {:<34} {value:>18.6} {}", def.name, def.unit);
    }
    println!("-- self time by span, as a share of the timed root");
    let shares = self_time_shares(&traced.log);
    for (span, share, n) in &shares {
        println!("span {span:<28} {:>7.3}%  ({n} spans)", share * 100.0);
    }
    let sum: f64 = shares.iter().map(|(_, share, _)| share).sum();
    println!("sum {:>36.3}%", sum * 100.0);
    println!("-- set-up, save and restart spans (median of each name)");
    let phases = phase_spans(&traced.log);
    for (span, n, ms) in &phases {
        println!("span {span:<28} {ms:>10.3} ms  ({n} spans)");
    }
    println!("-- ESTIMATED share of the traced wall per layer (count x rung unit cost; not gated)");
    let estimates = estimated_layer_shares(&traced, &rungs);
    for (layer, share) in &estimates {
        println!("estimate {layer:<30} {:>7.2}%", share * 100.0);
    }
    if estimates
        .last()
        .is_some_and(|(_, residual)| *residual < 0.0)
    {
        println!(
            "(the estimates exceed the wall: the rungs time 7 KB emails and plan searches over 250 \
             of them, and this workload's units are smaller)"
        );
    }
    if write {
        let dir = report::results_dir();
        let doc = Json::obj()
            .field("workload", name)
            .field("environment", report::environment(seed))
            .field("queries", traced.queries)
            .field("traced_wall_s", traced.traced_wall_s)
            .field("untraced_wall_s", traced.untraced_wall_s)
            .field(
                "counts",
                counts
                    .iter()
                    .map(|(def, value)| {
                        Json::obj()
                            .field("name", def.name)
                            .field("value", *value)
                            .field("unit", def.unit)
                    })
                    .collect::<Vec<_>>(),
            )
            .field(
                "self_time_share_of_timed_root",
                shares
                    .iter()
                    .map(|(span, share, n)| {
                        Json::obj()
                            .field("span", *span)
                            .field("share", *share)
                            .field("spans", *n)
                    })
                    .collect::<Vec<_>>(),
            )
            .field(
                "phase_ms",
                phases
                    .iter()
                    .map(|(span, n, ms)| {
                        Json::obj()
                            .field("span", *span)
                            .field("spans", *n)
                            .field("median_ms", *ms)
                    })
                    .collect::<Vec<_>>(),
            )
            .field(
                "estimated_share_of_traced_wall",
                estimates
                    .iter()
                    .map(|(layer, share)| Json::obj().field("layer", *layer).field("share", *share))
                    .collect::<Vec<_>>(),
            );
        report::write_json(&dir.join(format!("TRACE_{name}.json")), &doc)?;
        let spans = dir.join(format!("trace_{name}.jsonl"));
        std::fs::write(&spans, traced.log.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("(wrote {})", spans.display());
    }
    if (sum - 1.0).abs() > 1e-6 {
        return Err(format!("self-time shares sum to {sum}, not 1"));
    }
    if traced.failures.is_empty() {
        Ok(())
    } else {
        Err(traced.failures.join("; "))
    }
}

/// How long one benchmark run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, generated from the catalogues above so the file
/// cannot drift from the code; `check.sh` compares the two.
pub fn manifest() -> Json {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let command: Vec<&str> = vec![
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "perf/Cargo.toml",
        "--bin",
        "perf_bench",
        "--",
        "bench",
    ];
    let workloads: Vec<Json> = crate::WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj().field("name", *name).field("why", *why))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .field("name", m.name)
                .field("unit", m.unit)
                .field("better", better(m.higher_is_better))
                .field("bound", m.bound)
        })
        .collect();
    let per_layer: Vec<Json> = COUNTS
        .iter()
        .copied()
        .chain(RUNGS.iter().map(Def::from))
        .map(|d| {
            Json::obj()
                .field("name", d.name)
                .field("unit", d.unit)
                .field("better", better(d.higher_is_better))
        })
        .collect();
    Json::obj()
        .field("command", command)
        .field("paths", vec!["perf"])
        .field("run_seconds", RUN_SECONDS)
        .field("workloads", workloads)
        .field("end_to_end", end_to_end)
        .field("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let manifest = manifest();
        let Json::Obj(fields) = &manifest else {
            panic!("manifest is an object")
        };
        let mut names = BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            let (_, Json::Arr(items)) = fields.iter().find(|(k, _)| k == key).unwrap() else {
                panic!("{key} is an array")
            };
            for item in items {
                let Json::Obj(item) = item else { panic!() };
                let (_, Json::Str(name)) = &item[0] else {
                    panic!()
                };
                assert!(name.len() <= 64, "{name}");
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                assert!(names.insert(name.clone()), "{name} is used twice");
            }
        }
        assert_eq!(COUNTS.len() + RUNGS.len(), 96);
        assert!(COUNTS.len() + RUNGS.len() <= 128);
        for (_, why) in crate::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
