//! Integration tests for the semantic call cache: warm restarts from a
//! disk-spilled snapshot, interaction with ContextManager eviction,
//! corrupted-snapshot rejection, and byte-identical seeded replay with
//! the cache enabled.

use aida::llm::{SemanticCache, SnapshotError};
use aida::prelude::*;
use aida_testkit::TestDir;
use std::path::Path;

mod common;

fn lake() -> DataLake {
    DataLake::from_docs([
        Document::new("report_2001.txt", "identity theft reports in 2001: 86250"),
        Document::new("report_2002.txt", "identity theft reports in 2002: 161977"),
        Document::new("report_2024.txt", "identity theft reports in 2024: 1135291"),
    ])
}

fn build_runtime(seed: u64, path: &Path) -> Runtime {
    Runtime::builder()
        .seed(seed)
        .semantic_cache(4096)
        .cache_path(path)
        .build()
}

/// The acceptance headline: restart from a disk-spilled cache and
/// reproduce the warm answers with zero additional LLM spend.
#[test]
fn warm_restart_from_snapshot_costs_zero() {
    let dir = TestDir::new("cache-warm-restart");
    let path = dir.file("warm_restart.snap");

    let cold_rt = build_runtime(11, &path);
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&cold_rt);
    let cold = cold_rt
        .query(&ctx)
        .compute("count identity theft reports in 2001")
        .run();
    let cold_cost = cold_rt.cost();
    assert!(cold_cost > 0.0, "the cold run pays for its LLM calls");
    assert!(cold_rt.save_cache().unwrap(), "snapshot written");

    // A brand-new process would start exactly like this: same config,
    // same snapshot path, nothing shared in memory.
    let warm_rt = build_runtime(11, &path);
    assert!(
        warm_rt.cache_stats().unwrap().entries > 0,
        "snapshot loaded on startup"
    );
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&warm_rt);
    let warm = warm_rt
        .query(&ctx)
        .compute("count identity theft reports in 2001")
        .run();
    assert_eq!(
        format!("{:?}", warm.answer),
        format!("{:?}", cold.answer),
        "warm answer identical to cold"
    );
    assert_eq!(
        warm_rt.cost(),
        0.0,
        "every LLM call replays from the snapshot for free"
    );
    let stats = warm_rt.cache_stats().unwrap();
    assert!(stats.hits > 0);
    assert_eq!(stats.misses, 0, "no call fell through to the simulator");
}

/// Satellite (d): ContextManager eviction must not invalidate cache
/// entries. A re-materialized Context replays its semantic calls from
/// the cache at zero incremental dollars.
#[test]
fn context_eviction_preserves_cache_entries() {
    let rt = Runtime::builder()
        .seed(13)
        .context_capacity(1)
        .semantic_cache(4096)
        .build();
    let reports_ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let other_ctx = Context::builder(
        "memos",
        DataLake::from_docs([Document::new("memo.txt", "quarterly memo: revenue up 4%")]),
    )
    .description("internal quarterly memos")
    .build(&rt);

    let first = rt
        .query(&reports_ctx)
        .compute("count identity theft reports in 2001")
        .run();
    let entries_after_first = rt.cache_stats().unwrap().entries;
    assert!(entries_after_first > 0);

    // Capacity 1: this query's materialized Context evicts the first's.
    let _ = rt.query(&other_ctx).compute("summarize the memo").run();
    assert!(
        rt.manager().evictions() > 0,
        "the capacity bound actually evicted"
    );
    assert!(
        rt.cache_stats().unwrap().entries >= entries_after_first,
        "eviction dropped Contexts, not cache entries"
    );

    // Re-running the first query re-materializes the Context, but every
    // LLM call it makes replays from the cache.
    let cost_before = rt.cost();
    let again = rt
        .query(&reports_ctx)
        .compute("count identity theft reports in 2001")
        .run();
    assert_eq!(
        format!("{:?}", again.answer),
        format!("{:?}", first.answer),
        "re-materialized Context reproduces the answer"
    );
    assert_eq!(
        rt.cost(),
        cost_before,
        "zero incremental dollars after eviction"
    );
}

/// A corrupted snapshot is rejected wholesale and the service starts
/// cold instead of serving garbled answers.
#[test]
fn corrupted_snapshot_is_rejected_and_runtime_starts_cold() {
    let dir = TestDir::new("cache-corrupted");
    let path = dir.file("corrupted.snap");

    let rt = build_runtime(17, &path);
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let _ = rt
        .query(&ctx)
        .compute("count identity theft reports in 2002")
        .run();
    assert!(rt.save_cache().unwrap());

    // Garble a byte in the middle of the body.
    let mid = std::fs::read(&path).unwrap().len() / 2;
    common::corrupt_byte(&path, mid);

    // Loading directly reports a typed format error...
    let probe = SemanticCache::with_capacity(4096);
    match probe.load(&path) {
        Err(SnapshotError::Format(_)) => {}
        other => panic!("expected a format rejection, got {other:?}"),
    }
    assert!(probe.is_empty(), "a rejected snapshot admits nothing");

    // ...and a runtime built over the corrupt snapshot starts cold but
    // keeps serving.
    let cold_rt = build_runtime(17, &path);
    assert_eq!(cold_rt.cache_stats().unwrap().entries, 0);
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&cold_rt);
    let outcome = cold_rt
        .query(&ctx)
        .compute("count identity theft reports in 2002")
        .run();
    assert!(outcome.answer.is_some());
    assert!(cold_rt.cost() > 0.0, "cold service recomputes and bills");
}

/// Fixed-seed runs with the cache enabled are byte-identical, including
/// the full observability trace — caching must not perturb replay.
#[test]
fn seeded_replay_with_cache_is_byte_identical() {
    let run = || {
        let rt = Runtime::builder()
            .seed(19)
            .semantic_cache(4096)
            .tracing(true)
            .build();
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let mut answers = String::new();
        for instruction in [
            "count identity theft reports in 2001",
            "count identity theft reports in 2024",
            "count identity theft reports in 2001",
        ] {
            let outcome = rt.query(&ctx).compute(instruction).run();
            answers.push_str(&format!("{:?}\n", outcome.answer));
        }
        (answers, rt.recorder().export_jsonl(), rt.cost())
    };
    let (answers_a, trace_a, cost_a) = run();
    let (answers_b, trace_b, cost_b) = run();
    assert_eq!(answers_a, answers_b);
    assert_eq!(trace_a, trace_b, "traces are byte-identical");
    assert_eq!(cost_a, cost_b);
    assert!(
        trace_a.contains("cache.hit"),
        "cache counters flow into the trace"
    );
}

/// Cold-then-warm on the same runtime: the repeated query is strictly
/// cheaper (here: free) and the answer identical.
#[test]
fn repeated_query_is_strictly_cheaper_with_identical_answer() {
    let rt = Runtime::builder().seed(23).semantic_cache(4096).build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let cold = rt
        .query(&ctx)
        .compute("count identity theft reports in 2024")
        .run();
    let cold_cost = rt.cost();
    assert!(cold_cost > 0.0);
    let warm = rt
        .query(&ctx)
        .compute("count identity theft reports in 2024")
        .run();
    assert_eq!(format!("{:?}", warm.answer), format!("{:?}", cold.answer));
    assert_eq!(rt.cost(), cold_cost, "the warm query added no spend");
}
