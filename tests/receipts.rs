//! Receipts reconcile with the simulator's lifetime usage.
//!
//! Every LLM call returns its receipt, and each layer (executor step,
//! plan, sampler, agent run, program, agentic operator, query) returns
//! the sum of its children's. Nothing in production differences the
//! simulator's usage any more, so this suite does, as the independent
//! oracle: over every scope, the receipt must equal the usage the
//! simulator folded in across the same window, and with a semantic cache
//! its hit/coalesced/miss counts must equal the cache's own counters.

use aida::agents::{tools, AgentConfig, AgentRuntime, CodeAgent, Persona, ToolRegistry};
use aida::core::Context;
use aida::llm::{CacheStats, SemanticCache, SimLlm, UsageSnapshot};
use aida::optimizer::{Optimizer, OptimizerConfig, Policy};
use aida::prelude::*;
use aida::semops::{ExecEnv, Executor, PhysicalPlan};
use aida::synth::{enron, legal};

/// Runs `scope` and checks its receipt against `llm`'s usage and cache
/// counters over the same window.
fn reconciled<T>(llm: &SimLlm, scope: impl FnOnce() -> (T, UsageSnapshot)) -> (T, UsageSnapshot) {
    let usage_before = llm.usage();
    let cache_before = llm.cache().map(SemanticCache::stats);
    let (out, receipt) = scope();
    assert_eq!(
        receipt,
        llm.usage().delta_since(&usage_before),
        "the receipt is exactly what the scope billed"
    );
    if let (Some(cache), Some(before)) = (llm.cache(), cache_before) {
        let CacheStats {
            hits,
            coalesced,
            misses,
            ..
        } = cache.stats().delta_since(&before);
        assert_eq!(
            (
                receipt.cache_hits,
                receipt.cache_coalesced,
                receipt.cache_misses
            ),
            (hits, coalesced, misses),
            "the receipt's cache outcomes are the cache's own counts"
        );
    }
    (out, receipt)
}

fn legal_context(rt: &Runtime, seed: u64) -> Context {
    let workload = legal::generate(seed);
    workload.install_oracle(&rt.env().llm);
    Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(rt)
}

fn enron_context(rt: &Runtime, seed: u64) -> (Context, String) {
    let workload = enron::generate(seed);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("enron", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(rt);
    (ctx, workload.query)
}

/// A query's receipt is the sum of its operators', each operator's covers
/// its programs', and the reported dollars are priced from them.
fn check_query_layers(rt: &Runtime, outcome: &aida::core::ComputeOutcome) {
    let catalog = rt.env().llm.catalog();
    let mut ops = UsageSnapshot::default();
    for op in &outcome.trace {
        assert_eq!(op.cost.to_bits(), op.receipt.cost(catalog).to_bits());
        let mut programs = UsageSnapshot::default();
        for program in &op.programs {
            programs.add(&program.receipt);
        }
        assert!(programs.total_calls() <= op.receipt.total_calls());
        ops.add(&op.receipt);
    }
    assert_eq!(outcome.cost.to_bits(), ops.cost(catalog).to_bits());
    assert!(ops.total_calls() <= outcome.receipt.total_calls());
}

#[test]
fn legal_search_compute_query_reconciles() {
    let rt = Runtime::builder().seed(41).build();
    let ctx = legal_context(&rt, 41);
    let query = || {
        let outcome = rt
            .query(&ctx)
            .search("look for files with identity theft statistics")
            .compute("compute the number of identity theft reports in 2024")
            .with_rewrites(true)
            .run();
        let receipt = outcome.receipt.clone();
        (outcome, receipt)
    };
    let (cold, receipt) = reconciled(&rt.env().llm, query);
    assert!(receipt.total_calls() > 0);
    check_query_layers(&rt, &cold);
    // The repeat reuses the materialized search: that operator bills
    // nothing and its receipt is empty.
    let (warm, _) = reconciled(&rt.env().llm, query);
    assert!(warm.trace[0].reused);
    assert_eq!(warm.trace[0].receipt, UsageSnapshot::default());
    check_query_layers(&rt, &warm);
}

#[test]
fn enron_search_compute_query_reconciles() {
    let rt = Runtime::builder().seed(2).build();
    let (ctx, question) = enron_context(&rt, 2);
    let (outcome, receipt) = reconciled(&rt.env().llm, || {
        let outcome = rt
            .query(&ctx)
            .search("look for emails about the Raptor, Chewco, LJM, Talon and Condor deals")
            .compute(&question)
            .run();
        let receipt = outcome.receipt.clone();
        (outcome, receipt)
    });
    assert!(receipt.total_calls() > 0);
    check_query_layers(&rt, &outcome);
}

/// A Deep Research CodeAgent's receipt covers its planning calls and its
/// manual judgements; CodeAgent+ also bills its semantic tools from
/// inside the Pyrite VM, whose receipts reach the run's through the
/// per-run accumulator.
#[test]
fn code_agent_runs_reconcile() {
    let seed = 3;
    let workload = enron::generate(seed);
    for sem_tools in [false, true] {
        let env = ExecEnv::new(SimLlm::new(seed));
        workload.install_oracle(&env.llm);
        let mut registry = ToolRegistry::new();
        for tool in tools::lake_tools(&workload.lake) {
            registry.register(tool);
        }
        if sem_tools {
            let lake = &workload.lake;
            registry.register(tools::sem_filter_tool(&env, lake, ModelId::Flagship));
            registry.register(tools::sem_extract_tool(&env, lake, ModelId::Flagship));
        }
        // The configuration `aida_eval::systems::run_code_agent` runs.
        let agent = CodeAgent::deep_research(AgentConfig {
            model: ModelId::Flagship,
            max_steps: 10,
            persona: Persona {
                shortcut_bias: 0.8,
                premature_stop: 0.15,
                verify_budget: 6,
            },
            seed,
        });
        let runtime = AgentRuntime::new(&env, registry, Some(workload.lake.clone()));
        let (outcome, receipt) = reconciled(&env.llm, || {
            let outcome = runtime.run(&agent, &workload.query);
            let receipt = outcome.receipt.clone();
            (outcome, receipt)
        });
        let billed_steps = outcome.steps.iter().filter(|s| s.bound.is_some()).count() as u64;
        assert!(
            receipt.total_calls() > billed_steps,
            "judgements and tool calls are on the run's receipt: {} calls over {billed_steps} steps",
            receipt.total_calls()
        );
        let system = aida::eval::systems::run_code_agent(&workload, seed, sem_tools);
        assert_eq!(
            system.cost.to_bits(),
            receipt.cost(env.llm.catalog()).to_bits(),
            "the evaluated system reports the run's receipt"
        );
    }
}

/// Every semantic operator's receipt, with and without the cache.
#[test]
fn every_semantic_operator_reconciles() {
    let lake = DataLake::from_docs([
        Document::new("theft.txt", "identity theft reports rose in 2024"),
        Document::new("gas.txt", "natural gas pipeline maintenance"),
        Document::new("fraud.txt", "identity fraud complaints by year"),
    ]);
    let scan = Dataset::scan(&lake, "docs");
    let field = aida::data::Field::described("topic", "the topic of the item");
    let plans = [
        scan.sem_filter("mentions identity theft"),
        scan.sem_extract("find the topic", vec![field]),
        scan.sem_map("summarize the item", "summary", 30),
        scan.sem_agg("what do the items have in common"),
        scan.sem_topk("identity theft", 2),
        scan.sem_group_by("what the item is about", 2),
        scan.sem_join(
            "both discuss identity",
            &scan.sem_filter("mentions identity"),
        ),
    ];
    for cached in [false, true] {
        let mut llm = SimLlm::new(11);
        if cached {
            llm = llm.with_cache(SemanticCache::with_capacity(0));
        }
        let env = ExecEnv::new(llm);
        for ds in &plans {
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Mini, 4);
            let (report, receipt) = reconciled(&env.llm, || {
                let report = Executor::new(&env).execute(&plan);
                let receipt = report.receipt.clone();
                (report, receipt)
            });
            let calls: usize = report.stats.operators.iter().map(|op| op.calls).sum();
            assert_eq!(calls as u64, receipt.total_calls(), "{}", plan.render());
        }
    }
}

#[test]
fn optimizer_sampling_and_execution_reconcile() {
    let seed = 4;
    let workload = enron::generate(seed);
    let env = ExecEnv::new(SimLlm::new(seed));
    workload.install_oracle(&env.llm);
    let ds = aida::core::ProgramSynthesizer::synthesize(&workload.query, &workload.lake);
    let optimizer = Optimizer::new(&env, OptimizerConfig::default());
    let policy = Policy::MinCost {
        quality_floor: 0.85,
    };
    let (optimized, sampling) = reconciled(&env.llm, || {
        let optimized = optimizer.optimize(ds.plan(), &policy);
        let receipt = optimized.matrix.receipt.clone();
        (optimized, receipt)
    });
    assert!(sampling.total_calls() > 0, "sampling is on");
    assert_eq!(
        optimized.matrix.sampling_cost.to_bits(),
        sampling.cost(env.llm.catalog()).to_bits()
    );
    let (report, receipt) = reconciled(&env.llm, || {
        let report = Executor::new(&env).execute(&optimized.physical);
        let receipt = report.receipt.clone();
        (report, receipt)
    });
    let calls: usize = report.stats.operators.iter().map(|op| op.calls).sum();
    assert_eq!(calls as u64, receipt.total_calls());
}

/// Duplicate records in one batch share their representative's response:
/// the batch bills the representative once and counts each duplicate as
/// coalesced, and a warm repeat is all cache hits.
#[test]
fn coalesced_batch_duplicates_reconcile() {
    let questions = DataLake::from_docs([Document::new("question.txt", "identity theft question")]);
    // Two right-side documents with one text: the join's two pairs have
    // one text, and both joined rows come from the same left record.
    let stats = DataLake::from_docs([
        Document::new("stats_a.txt", "identity theft statistics"),
        Document::new("stats_b.txt", "identity theft statistics"),
    ]);
    let env = ExecEnv::new(SimLlm::new(7).with_cache(SemanticCache::with_capacity(0)));
    let ds = Dataset::scan(&questions, "questions")
        .sem_join(
            "both discuss identity theft",
            &Dataset::scan(&stats, "stats"),
        )
        .sem_filter("mentions identity theft");
    let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 4);
    let execute = || {
        let report = Executor::new(&env).execute(&plan);
        let receipt = report.receipt.clone();
        (report, receipt)
    };
    let (cold, receipt) = reconciled(&env.llm, execute);
    assert_eq!(cold.records.len(), 2, "both identical pairs joined");
    assert_eq!(
        receipt.cache_coalesced, 2,
        "one duplicate pair, one duplicate row"
    );
    let (_, warm) = reconciled(&env.llm, execute);
    assert_eq!(warm.total_calls(), 0);
    assert!(warm.cache_hits > 0);
}

#[test]
fn fault_retries_reconcile() {
    let run = |fault_rate: f64| {
        let rt = Runtime::builder().seed(5).fault_rate(fault_rate).build();
        let ctx = legal_context(&rt, 5);
        let (_, receipt) = reconciled(&rt.env().llm, || {
            let outcome = rt
                .query(&ctx)
                .compute("find the number of identity theft reports in 2024")
                .run();
            let receipt = outcome.receipt.clone();
            (outcome, receipt)
        });
        receipt
    };
    let clean = run(0.0);
    let faulty = run(0.3);
    assert!(
        faulty.total_calls() > clean.total_calls(),
        "each retry's truncated first attempt is billed: {} vs {} calls",
        faulty.total_calls(),
        clean.total_calls()
    );
}

/// Σ per-query receipts == the tenant ledger's spend == the runtime's
/// usage delta, and the ledger's cache credits are the cache's counts.
#[test]
fn serve_charges_reconcile_with_usage_and_cache() {
    let rt = Runtime::builder().seed(9).semantic_cache(4096).build();
    let ctx = legal_context(&rt, 9);
    let mut svc = QueryService::new(rt, ServeConfig::default());
    svc.register_context("legal", ctx);
    svc.register_tenant("acme", TenantConfig::default());
    svc.register_tenant("bolt", TenantConfig::default());
    let loads = [
        TenantLoad::new("acme", "legal")
            .instructions([
                "find the number of identity theft reports in 2024",
                "find the number of identity theft reports in 2001",
            ])
            .queries(6)
            .mean_interarrival(20.0),
        TenantLoad::new("bolt", "legal")
            .instructions(["find the number of identity theft reports in 2024"])
            .queries(4)
            .mean_interarrival(30.0)
            .offset(5.0),
    ];
    let usage_before = svc.runtime().usage();
    let cache_before = svc
        .runtime()
        .cache_stats()
        .expect("the runtime has a cache");
    let report = svc.run(open_loop(9, &loads));
    let usage = svc.runtime().usage().delta_since(&usage_before);
    let cache = svc
        .runtime()
        .cache_stats()
        .expect("the runtime has a cache")
        .delta_since(&cache_before);
    assert_eq!(report.completions.len(), 10);

    let mut queries = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut queries_usd = 0.0;
    for c in &report.completions {
        queries.0 += c.tokens;
        queries.1 += c.llm_calls;
        queries.2 += c.cache_hits;
        queries.3 += c.cache_coalesced;
        queries.4 += c.cache_misses;
        queries_usd += c.cost_usd;
    }
    let mut ledger = (0u64, 0u64, 0u64, 0u64);
    let mut ledger_usd = 0.0;
    for (_, spend) in svc.tenants().spends() {
        ledger.0 += spend.tokens;
        ledger.1 += spend.calls;
        ledger.2 += spend.cache_hits;
        ledger.3 += spend.cache_coalesced;
        ledger_usd += spend.usd;
    }
    assert_eq!(
        queries,
        (
            usage.total_tokens(),
            usage.total_calls(),
            usage.cache_hits,
            usage.cache_coalesced,
            usage.cache_misses
        )
    );
    assert_eq!(ledger, (queries.0, queries.1, queries.2, queries.3));
    assert_eq!(
        (ledger.2, ledger.3, queries.4),
        (cache.hits, cache.coalesced, cache.misses),
        "the credits are the cache's own counts"
    );
    assert!(cache.hits > 0, "repeat questions hit the cache");
    let usd = usage.cost(svc.runtime().env().llm.catalog());
    assert!((queries_usd - usd).abs() < 1e-9, "{queries_usd} vs {usd}");
    assert!((ledger_usd - usd).abs() < 1e-9, "{ledger_usd} vs {usd}");
}
