//! Semantic-cache micro-benchmark: cold vs warm cost and latency on the
//! legal and Enron workloads.
//!
//! The cold pass runs every instruction through a fresh runtime with an
//! empty cache and spills the cache to `results/cache/` on exit. The
//! warm pass builds a brand-new runtime (same seed) that loads the
//! snapshot on startup and replays the identical instructions: every
//! semantic call hits the cache, so the warm pass must produce the
//! byte-identical answers at a fraction of the cold dollars. Numbers
//! land in `results/BENCH_cache_bench.json`.

use aida_bench::SemcacheBench;
use aida_core::{Context, Runtime};
use aida_obs::Summary;
use aida_synth::{enron, legal};
use std::path::Path;

struct Pass {
    usd: f64,
    latency: Summary,
    answers: Vec<String>,
    /// Dollars per workload label (`legal`, `enron`), in label order.
    by_workload: Vec<(&'static str, f64)>,
}

fn run_pass(seed: u64, snapshot: &Path) -> (Runtime, Pass) {
    let rt = Runtime::builder()
        .seed(seed)
        .semantic_cache(8192)
        .cache_path(snapshot)
        .build();
    let legal_workload = legal::generate(seed);
    let enron_workload = enron::generate(seed);
    legal_workload.install_oracle(&rt.env().llm);
    enron_workload.install_oracle(&rt.env().llm);
    let legal_ctx = Context::builder("legal", legal_workload.lake.clone())
        .description(legal_workload.description.clone())
        .with_vector_index()
        .build(&rt);
    let enron_ctx = Context::builder("enron", enron_workload.lake.clone())
        .description(enron_workload.description.clone())
        .with_vector_index()
        .build(&rt);

    let legal_mix = [
        "find the number of identity theft reports in 2001",
        "find the number of identity theft reports in 2024",
        "find the number of identity theft reports in 2013",
    ];
    let enron_mix = [
        "find emails with firsthand discussion of the Raptor transaction",
        "find emails with firsthand discussion of the Chewco transaction",
    ];

    let mut pass = Pass {
        usd: 0.0,
        latency: Summary::default(),
        answers: Vec::new(),
        by_workload: vec![("legal", 0.0), ("enron", 0.0)],
    };
    let catalog = rt.env().llm.catalog();
    let queries = legal_mix
        .iter()
        .map(|i| (0, &legal_ctx, *i))
        .chain(enron_mix.iter().map(|i| (1, &enron_ctx, *i)));
    for (workload, ctx, instruction) in queries {
        let clock0 = rt.clock().now();
        let outcome = rt.query(ctx).compute(instruction).run();
        let usd = outcome.receipt.cost(catalog);
        pass.usd += usd;
        pass.by_workload[workload].1 += usd;
        pass.latency.record(rt.clock().now() - clock0);
        pass.answers.push(format!("{:?}", outcome.answer));
    }
    (rt, pass)
}

fn main() {
    let seed = 1;
    let snapshot = aida_bench::results_dir()
        .join("cache")
        .join("cache_bench.snap");
    // Start genuinely cold: drop any snapshot a previous run left behind.
    let _ = std::fs::remove_file(&snapshot);

    let (cold_rt, cold) = run_pass(seed, &snapshot);
    let spilled = cold_rt
        .save_cache()
        .expect("spilling the semantic cache snapshot");
    assert!(spilled, "cold runtime was built with a cache and a path");
    println!(
        "cold pass: ${:.4} over {} queries (cache snapshot at {})",
        cold.usd,
        cold.answers.len(),
        snapshot.display()
    );

    let (warm_rt, warm) = run_pass(seed, &snapshot);
    let stats = warm_rt.cache_stats().expect("warm runtime has a cache");
    println!(
        "warm pass: ${:.4} over {} queries ({} hits / {} coalesced / {} misses)",
        warm.usd,
        warm.answers.len(),
        stats.hits,
        stats.coalesced,
        stats.misses
    );

    for ((name, cold_usd), (_, warm_usd)) in cold.by_workload.iter().zip(&warm.by_workload) {
        println!("  {name}: cold ${cold_usd:.4} -> warm ${warm_usd:.4}");
    }

    if warm.answers != cold.answers {
        eprintln!("FAIL: warm answers diverged from cold answers");
        std::process::exit(1);
    }
    if warm.usd >= cold.usd {
        eprintln!(
            "FAIL: warm pass ${:.4} >= cold pass ${:.4}",
            warm.usd, cold.usd
        );
        std::process::exit(1);
    }

    let bench = SemcacheBench {
        source: "cache_bench",
        cold_usd: cold.usd,
        warm_usd: warm.usd,
        hit_rate: stats.hit_rate(),
        p50_cold_s: cold.latency.p50(),
        p95_cold_s: cold.latency.p95(),
        p50_warm_s: warm.latency.p50(),
        p95_warm_s: warm.latency.p95(),
    };
    aida_bench::emit_bench(
        &aida_bench::BenchResult::new("cache_bench", seed)
            .metric("cold_usd", bench.cold_usd)
            .metric("warm_usd", bench.warm_usd)
            .metric("reduction_pct", bench.reduction_pct())
            .metric("hit_rate", bench.hit_rate)
            .metric("p50_cold_s", bench.p50_cold_s)
            .metric("p95_cold_s", bench.p95_cold_s)
            .metric("p50_warm_s", bench.p50_warm_s)
            .metric("p95_warm_s", bench.p95_warm_s),
    );
}
