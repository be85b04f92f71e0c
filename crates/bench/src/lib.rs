//! `aida-bench`: the benchmark harness.
//!
//! One runnable binary per table/figure/ablation of the paper (see
//! `src/bin/`), plus two Criterion suites:
//!
//! * `paper_tables` — end-to-end timings of the table experiments,
//! * `substrates` — microbenchmarks of the substrate crates (CSV parsing,
//!   embeddings, top-k, keyword search, the script interpreter, SQL).
//!
//! Binaries print the experiment report and persist it under `results/`.

use aida_eval::ExperimentReport;
use std::path::PathBuf;

/// Directory reports are saved into (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("AIDA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Prints a report, writes `<name>.txt` + `<name>.json` under
/// [`results_dir`], and emits the canonical `BENCH_<name>.json` derived
/// from the report's rows. `seed` labels the canonical file (the first
/// trial seed for multi-seed experiments).
pub fn emit(report: &ExperimentReport, seed: u64) {
    let rendered = report.render();
    println!("{rendered}");
    let dir = results_dir();
    let txt = std::fs::write(dir.join(format!("{}.txt", report.name)), &rendered);
    let json = std::fs::write(
        dir.join(format!("{}.json", report.name)),
        report.to_json().render(),
    );
    match txt.and(json) {
        Ok(()) => println!("(saved to {}/{}.{{txt,json}})", dir.display(), report.name),
        Err(err) => eprintln!(
            "warning: could not save results under {}: {err}",
            dir.display()
        ),
    }
    emit_bench(&BenchResult::from_report(report, seed));
}

/// One canonical machine-readable benchmark result. Every bench binary
/// writes exactly one `results/BENCH_<name>.json` in this schema —
/// `{"bench": .., "seed": .., "metrics": {..}}` — so downstream tooling
/// parses a single shape no matter which experiment produced it.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id (`table1`, `serve_soak`, ...); names the output file.
    pub bench: String,
    /// Seed the metrics describe.
    pub seed: u64,
    /// `(name, value)` pairs, rendered in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchResult {
    /// An empty result for `bench` at `seed`.
    pub fn new(bench: impl Into<String>, seed: u64) -> BenchResult {
        BenchResult {
            bench: bench.into(),
            seed,
            metrics: Vec::new(),
        }
    }

    /// Appends one metric (builder-style).
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> BenchResult {
        self.metrics.push((name.into(), value));
        self
    }

    /// Flattens an experiment table into metrics keyed `system/column`.
    fn from_report(report: &ExperimentReport, seed: u64) -> BenchResult {
        let mut out = BenchResult::new(report.name.clone(), seed);
        for row in &report.rows {
            for (name, value) in &row.values {
                out.metrics.push((format!("{}/{name}", row.system), *value));
            }
        }
        out
    }

    /// Derives metrics from a traced run's root spans: billed calls,
    /// tokens, dollars, and the virtual makespan. Used by the figure
    /// binaries, whose primary output is prose rather than a table.
    pub fn from_trace(
        bench: impl Into<String>,
        seed: u64,
        recorder: &aida_obs::Recorder,
    ) -> BenchResult {
        let trace = recorder.trace();
        let mut calls = 0u64;
        let mut input_tokens = 0u64;
        let mut output_tokens = 0u64;
        let mut cost_usd = 0.0f64;
        let mut makespan_s = 0.0f64;
        for id in trace.roots() {
            let totals = trace.inclusive(id);
            calls += totals.calls;
            input_tokens += totals.input_tokens;
            output_tokens += totals.output_tokens;
            cost_usd += totals.cost_usd;
            makespan_s = makespan_s.max(trace.spans[id].end_s);
        }
        BenchResult::new(bench, seed)
            .metric("llm_calls", calls as f64)
            .metric("input_tokens", input_tokens as f64)
            .metric("output_tokens", output_tokens as f64)
            .metric("cost_usd", cost_usd)
            .metric("makespan_s", makespan_s)
    }

    /// Renders the canonical JSON payload.
    pub fn to_json(&self) -> aida_obs::Json {
        let mut metrics = aida_obs::Json::obj();
        for (name, value) in &self.metrics {
            metrics = metrics.field(name, *value);
        }
        aida_obs::Json::obj()
            .field("bench", self.bench.clone())
            .field("seed", self.seed)
            .field("metrics", metrics)
    }
}

/// Writes `results/BENCH_<bench>.json`. The single chokepoint for the
/// canonical schema: every binary's machine-readable headline goes
/// through here. I/O failures warn instead of aborting.
pub fn emit_bench(result: &BenchResult) {
    let path = results_dir().join(format!("BENCH_{}.json", result.bench));
    match std::fs::write(&path, format!("{}\n", result.to_json().render())) {
        Ok(()) => println!("(saved to {})", path.display()),
        Err(err) => eprintln!("warning: could not save {}: {err}", path.display()),
    }
}

/// Prints free-form figure text and writes `<name>.txt`.
pub fn emit_text(name: &str, text: &str) {
    println!("{text}");
    let dir = results_dir();
    match std::fs::write(dir.join(format!("{name}.txt")), text) {
        Ok(()) => println!("(saved to {}/{name}.txt)", dir.display()),
        Err(err) => eprintln!(
            "warning: could not save results under {}: {err}",
            dir.display()
        ),
    }
}

/// Cold-vs-warm numbers from one semantic-cache benchmark run.
#[derive(Debug, Clone)]
pub struct SemcacheBench {
    /// Which binary produced the numbers (`cache_bench`, `serve_soak`).
    pub source: &'static str,
    /// Dollars with a cold (or absent) cache.
    pub cold_usd: f64,
    /// Dollars with a warm (or enabled) cache, same seed and workload.
    pub warm_usd: f64,
    /// Cache hit rate observed during the warm run (hits + coalesced
    /// over lookups).
    pub hit_rate: f64,
    /// Median query latency, cold run (virtual seconds).
    pub p50_cold_s: f64,
    /// 95th-percentile query latency, cold run.
    pub p95_cold_s: f64,
    /// Median query latency, warm run.
    pub p50_warm_s: f64,
    /// 95th-percentile query latency, warm run.
    pub p95_warm_s: f64,
}

impl SemcacheBench {
    /// Percentage of cold-run dollars the warm run saved.
    pub fn reduction_pct(&self) -> f64 {
        if self.cold_usd > 0.0 {
            100.0 * (1.0 - self.warm_usd / self.cold_usd)
        } else {
            0.0
        }
    }

    /// Renders the machine-readable JSON payload.
    pub fn to_json(&self) -> aida_obs::Json {
        aida_obs::Json::obj()
            .field("source", self.source)
            .field("cold_usd", self.cold_usd)
            .field("warm_usd", self.warm_usd)
            .field("reduction_pct", self.reduction_pct())
            .field("hit_rate", self.hit_rate)
            .field("p50_cold_s", self.p50_cold_s)
            .field("p95_cold_s", self.p95_cold_s)
            .field("p50_warm_s", self.p50_warm_s)
            .field("p95_warm_s", self.p95_warm_s)
    }
}

/// Writes `BENCH_semcache.json` under [`results_dir`] and prints the
/// headline numbers. Both `cache_bench` and `serve_soak` emit the same
/// schema; the last writer wins.
pub fn emit_semcache_bench(bench: &SemcacheBench) {
    println!(
        "semantic cache [{}]: cold ${:.4} -> warm ${:.4} ({:.1}% saved, hit rate {:.1}%)",
        bench.source,
        bench.cold_usd,
        bench.warm_usd,
        bench.reduction_pct(),
        100.0 * bench.hit_rate,
    );
    let path = results_dir().join("BENCH_semcache.json");
    match std::fs::write(&path, format!("{}\n", bench.to_json().render())) {
        Ok(()) => println!("(saved to {})", path.display()),
        Err(err) => eprintln!("warning: could not save {}: {err}", path.display()),
    }
}

/// Directory span traces are saved into (`results/traces`, created on
/// demand).
pub fn traces_dir() -> PathBuf {
    let dir = results_dir().join("traces");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes pre-rendered JSONL as `<name>.jsonl` under [`traces_dir`] and
/// returns the path. The single chokepoint for trace-file placement:
/// every binary that persists a trace goes through here, so the layout
/// (and the `AIDA_RESULTS_DIR` override) is decided in one place. I/O
/// failures warn instead of aborting — a read-only filesystem shouldn't
/// kill an experiment run.
pub fn write_trace_jsonl(name: &str, jsonl: &str) -> PathBuf {
    let path = traces_dir().join(format!("{name}.jsonl"));
    match std::fs::write(&path, jsonl) {
        Ok(()) => println!("(trace saved to {})", path.display()),
        Err(err) => eprintln!("warning: could not save trace at {}: {err}", path.display()),
    }
    path
}

/// Prints a recorder's `EXPLAIN ANALYZE` report and writes the span trace
/// as `<name>.jsonl` under [`traces_dir`]. Traces carry only virtual time,
/// so the file is byte-identical across runs at the same seed.
pub fn emit_trace(name: &str, recorder: &aida_obs::Recorder) {
    let trace = recorder.trace();
    println!("{}", trace.explain_analyze());
    write_trace_jsonl(name, &trace.to_jsonl());
}

/// Traced companion runs for the experiment binaries: each returns the
/// recorder of one representative seed-1 run of the experiment's system,
/// for `EXPLAIN ANALYZE` + JSONL export next to the report.
pub mod traces {
    use aida_core::{Context, Runtime};
    use aida_llm::SimLlm;
    use aida_obs::Recorder;
    use aida_optimizer::{Optimizer, OptimizerConfig, Policy, SamplerConfig};
    use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};
    use aida_synth::{enron, legal};

    /// The Table 1 system under trace: PZ compute on the legal workload.
    pub fn table1() -> Recorder {
        let workload = legal::generate(1);
        aida_eval::run_pz_compute_traced(&workload, 1).1
    }

    /// The Table 2 system under trace: PZ compute on the Enron workload.
    pub fn table2() -> Recorder {
        let workload = enron::generate(1);
        aida_eval::run_pz_compute_traced(&workload, 1).1
    }

    /// Figure 2's search → compute pipeline under trace.
    pub fn figure2() -> Recorder {
        aida_eval::figure2_traced(1).1
    }

    /// Ablation A under trace: two computes where the second reuses the
    /// first's materialized Context (reuse hit/miss events appear).
    pub fn ablation_reuse() -> Recorder {
        let rt = Runtime::builder().seed(1).tracing(true).build();
        let workload = legal::generate(1);
        workload.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", workload.lake.clone())
            .description(workload.description.clone())
            .with_vector_index()
            .build(&rt);
        let _ = rt
            .query(&ctx)
            .compute("find the number of identity theft reports in 2001")
            .run();
        let _ = rt
            .query(&ctx)
            .compute("find the number of identity theft reports in 2024")
            .run();
        rt.recorder().clone()
    }

    /// Ablation D under trace: the legal ratio compute with the
    /// split/merge rewrites on (rewrite events appear).
    pub fn ablation_rewrite() -> Recorder {
        let rt = Runtime::builder().seed(1).tracing(true).build();
        let workload = legal::generate(1);
        workload.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", workload.lake.clone())
            .description(workload.description.clone())
            .with_vector_index()
            .build(&rt);
        let _ = rt
            .query(&ctx)
            .compute(&workload.query)
            .with_rewrites(true)
            .run();
        rt.recorder().clone()
    }

    /// Ablation B under trace: the optimizer-chosen Enron plan.
    pub fn ablation_optimizer() -> Recorder {
        let recorder = Recorder::new();
        let env = ExecEnv::new(SimLlm::new(1)).with_recorder(recorder.clone());
        let workload = enron::generate(1);
        workload.install_oracle(&env.llm);
        let ds = aida_core::ProgramSynthesizer::synthesize(&workload.query, &workload.lake);
        let optimizer = Optimizer::new(&env, OptimizerConfig::default());
        let optimized = optimizer.optimize(
            ds.plan(),
            &Policy::MinCost {
                quality_floor: 0.85,
            },
        );
        let _ = Executor::new(&env).execute(&optimized.physical);
        recorder
    }

    /// Ablation E under trace: a small sampling budget, then execution.
    pub fn ablation_sampling() -> Recorder {
        let recorder = Recorder::new();
        let env = ExecEnv::new(SimLlm::new(1)).with_recorder(recorder.clone());
        let workload = enron::generate(1);
        workload.install_oracle(&env.llm);
        let ds = aida_core::ProgramSynthesizer::synthesize(&workload.query, &workload.lake);
        let config = OptimizerConfig {
            sampler: SamplerConfig {
                sample_records: 10,
                bandit_pulls: 12,
            },
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::new(&env, config);
        let optimized = optimizer.optimize(
            ds.plan(),
            &Policy::MinCost {
                quality_floor: 0.85,
            },
        );
        let _ = Executor::new(&env).execute(&optimized.physical);
        recorder
    }

    /// Ablation C under trace: the full-scan semantic filter at the
    /// smallest lake size.
    pub fn ablation_access() -> Recorder {
        let recorder = Recorder::new();
        let env = ExecEnv::new(SimLlm::new(1)).with_recorder(recorder.clone());
        let workload = legal::generate_scaled(1, 10);
        workload.install_oracle(&env.llm);
        let ds = Dataset::scan(&workload.lake, "legal").sem_filter(
            "the file contains national statistics on the number of identity theft reports, \
             covering both the years 2001 and 2024",
        );
        let plan = PhysicalPlan::uniform(ds.plan(), aida_llm::ModelId::Flagship, 8);
        let _ = Executor::new(&env).execute(&plan);
        recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        std::env::set_var(
            "AIDA_RESULTS_DIR",
            std::env::temp_dir().join("aida_results_test"),
        );
        let dir = results_dir();
        assert!(dir.exists());
        std::env::remove_var("AIDA_RESULTS_DIR");
    }

    #[test]
    fn bench_result_renders_the_canonical_schema() {
        let result = BenchResult::new("soak", 42)
            .metric("p99_s", 1.5)
            .metric("queries", 20.0);
        assert_eq!(
            result.to_json().render(),
            r#"{"bench":"soak","seed":42,"metrics":{"p99_s":1.5,"queries":20}}"#
        );
    }

    #[test]
    fn bench_result_from_report_keys_metrics_by_system_and_column() {
        let report = ExperimentReport {
            name: "t".to_string(),
            title: "T".to_string(),
            columns: vec!["cost".to_string()],
            rows: vec![aida_eval::experiments::Row {
                system: "aida".to_string(),
                values: vec![("cost".to_string(), 0.25)],
            }],
            paper: Vec::new(),
            trials: 1,
        };
        let result = BenchResult::from_report(&report, 7);
        assert_eq!(result.bench, "t");
        assert_eq!(result.seed, 7);
        assert_eq!(result.metrics, vec![("aida/cost".to_string(), 0.25)]);
    }
}
