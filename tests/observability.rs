//! The unified tracing layer, end to end: span trees whose aggregates
//! reconcile with the billed totals, deterministic JSONL export, and
//! reuse events that appear exactly when Context reuse is enabled.

use aida::core::Context;
use aida::obs::SpanKind;
use aida::prelude::*;
use aida_synth::legal;

/// The Table 1 query, traced: per-operator dollars and virtual seconds
/// must sum to the query root's totals, and the root must agree with the
/// run's own accounting.
#[test]
fn explain_analyze_totals_reconcile_with_the_run() {
    let workload = legal::generate(1);
    let (run, recorder) = aida::eval::run_pz_compute_traced(&workload, 1);
    let trace = recorder.trace();

    let roots = trace.roots();
    assert_eq!(roots.len(), 1, "one query span: {roots:?}");
    let root = roots[0];
    assert_eq!(trace.spans[root].kind, SpanKind::Query);

    // Root inclusive $ equals the run's cost.
    let root_totals = trace.inclusive(root);
    assert!(
        (root_totals.cost_usd - run.cost).abs() < 1e-9,
        "root ${} vs run ${}",
        root_totals.cost_usd,
        run.cost
    );
    // Root duration equals the run's virtual seconds.
    let root_duration = trace.spans[root].duration_s();
    assert!(
        (root_duration - run.time).abs() < 1e-9,
        "root {root_duration}s vs run {}s",
        run.time
    );

    // Per-operator $ and virtual seconds sum to the query totals: the
    // query span has no own LLM calls here, so its children's inclusive
    // costs and durations partition it.
    let children = trace.children(root);
    assert!(!children.is_empty());
    let child_cost: f64 = children.iter().map(|&c| trace.inclusive(c).cost_usd).sum();
    assert!(
        (child_cost - root_totals.cost_usd).abs() < 1e-9,
        "children ${child_cost} vs root ${}",
        root_totals.cost_usd
    );
    let child_time: f64 = children.iter().map(|&c| trace.spans[c].duration_s()).sum();
    assert!(
        (child_time - root_duration).abs() < 1e-6,
        "children {child_time}s vs root {root_duration}s"
    );

    // The tree reaches the physical layer and the report renders it.
    assert!(trace.spans.iter().any(|s| s.kind == SpanKind::PhysicalOp));
    assert!(trace.spans.iter().any(|s| s.kind == SpanKind::AgentStep));
    let report = trace.explain_analyze();
    assert!(report.starts_with("EXPLAIN ANALYZE\n"));
    assert!(report.contains("query"));
    assert!(report.contains("physical_op"));
    assert!(report.contains("llm.calls"));
}

/// Two runs of the Table 1 query at the same seed export byte-identical
/// JSONL traces (the recorder only ever sees the virtual clock).
#[test]
fn traces_are_deterministic_across_runs() {
    let workload = legal::generate(1);
    let (run_a, rec_a) = aida::eval::run_pz_compute_traced(&workload, 1);
    let (run_b, rec_b) = aida::eval::run_pz_compute_traced(&workload, 1);
    assert_eq!(run_a.answer, run_b.answer);
    let jsonl_a = rec_a.trace().to_jsonl();
    let jsonl_b = rec_b.trace().to_jsonl();
    assert!(!jsonl_a.is_empty());
    assert_eq!(jsonl_a, jsonl_b, "same seed must export identical traces");
}

/// Tracing must not perturb the simulation: a traced run and an untraced
/// run at the same seed produce the same answer, cost, and time.
#[test]
fn tracing_never_changes_the_run() {
    let workload = legal::generate(2);
    let untraced = aida::eval::run_pz_compute(&workload, 2);
    let (traced, _) = aida::eval::run_pz_compute_traced(&workload, 2);
    assert_eq!(untraced.answer, traced.answer);
    assert_eq!(untraced.cost, traced.cost);
    assert_eq!(untraced.time, traced.time);
}

fn legal_ctx(rt: &Runtime, seed: u64) -> Context {
    let workload = legal::generate(seed);
    workload.install_oracle(&rt.env().llm);
    Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(rt)
}

/// With Context reuse on, the second query's trace carries a reuse hit
/// (and the first a miss); with reuse off, no reuse events exist at all.
#[test]
fn reuse_events_follow_the_reuse_switch() {
    let rt = Runtime::builder()
        .seed(3)
        .tracing(true)
        .context_reuse(true)
        .build();
    let ctx = legal_ctx(&rt, 3);
    let _ = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2001")
        .run();
    let _ = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2024")
        .run();
    let jsonl = rt.recorder().trace().to_jsonl();
    assert!(
        jsonl.contains("\"event\":\"reuse_miss\""),
        "first lookup misses"
    );
    assert!(
        jsonl.contains("\"event\":\"reuse_hit\""),
        "second lookup hits"
    );
    let (hits, misses) = rt.reuse_stats();
    assert!(hits >= 1, "hits {hits}");
    assert!(misses >= 1, "misses {misses}");

    let rt = Runtime::builder()
        .seed(3)
        .tracing(true)
        .context_reuse(false)
        .build();
    let ctx = legal_ctx(&rt, 3);
    let _ = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2001")
        .run();
    let _ = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2024")
        .run();
    let jsonl = rt.recorder().trace().to_jsonl();
    assert!(
        !jsonl.contains("reuse_hit"),
        "no reuse events when disabled"
    );
    assert!(!jsonl.contains("reuse_miss"));
    assert_eq!(rt.reuse_stats(), (0, 0));
}

/// SQL over materialized findings shows up as `sql` spans and events.
#[test]
fn sql_statements_are_traced() {
    let rt = Runtime::builder().seed(4).tracing(true).build();
    let ctx = legal_ctx(&rt, 4);
    let _ = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2001")
        .run();
    let tables = rt.table_names();
    assert!(!tables.is_empty());
    let out = rt
        .sql(&format!("SELECT COUNT(*) AS n FROM {}", tables[0]))
        .unwrap();
    assert_eq!(out.len(), 1);
    let trace = rt.recorder().trace();
    assert!(trace.spans.iter().any(|s| s.kind == SpanKind::Sql));
    assert_eq!(trace.counters.get("sql.statements"), Some(&1));
    assert!(trace.to_jsonl().contains("\"event\":\"sql\""));
}

/// A disabled recorder records nothing and exports an empty trace.
#[test]
fn disabled_recorder_is_inert() {
    let rt = Runtime::builder().seed(5).build();
    assert!(!rt.recorder().is_enabled());
    let ctx = legal_ctx(&rt, 5);
    let _ = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2001")
        .run();
    let trace = rt.recorder().trace();
    assert!(trace.spans.is_empty());
    assert!(trace.counters.is_empty());
}

fn health_service(seed: u64) -> aida::serve::QueryService {
    use aida::serve::{QueryService, ServeConfig, TenantConfig};
    let rt = Runtime::builder().seed(seed).tracing(true).build();
    let lake = DataLake::from_docs([
        Document::new("report_2001.txt", "identity theft reports in 2001: 86250"),
        Document::new("report_2024.txt", "identity theft reports in 2024: 1135291"),
    ]);
    let ctx = Context::builder("lake", lake)
        .description("FTC identity theft reports by year")
        .build(&rt);
    let mut svc = QueryService::new(rt, ServeConfig::default());
    svc.register_context("reports", ctx);
    svc.register_tenant(
        "acme",
        TenantConfig::weighted(2)
            .p99_latency(1200.0)
            .usd_per_query(1.0),
    );
    svc.register_tenant(
        "bolt",
        TenantConfig::default()
            .p99_latency(1200.0)
            // Ceiling far below the real per-query spend: bolt must
            // breach its cost SLO deterministically.
            .usd_per_query(1e-6),
    );
    svc
}

/// The health surface is part of the deterministic contract: two runs at
/// the same seed must export byte-identical `health.jsonl` content, with
/// populated per-tenant windows and the deterministic cost-SLO breach.
#[test]
fn health_jsonl_is_byte_identical_across_runs() {
    use aida::serve::{open_loop, TenantLoad};
    let run = || {
        let mut svc = health_service(17);
        let loads = [
            TenantLoad::new("acme", "reports")
                .instructions([
                    "count identity theft reports in 2001",
                    "count identity theft reports in 2024",
                ])
                .queries(4)
                .mean_interarrival(25.0),
            TenantLoad::new("bolt", "reports")
                .instructions(["count identity theft reports in 2024"])
                .queries(3)
                .mean_interarrival(40.0)
                .offset(10.0),
        ];
        let report = svc.run(open_loop(17, &loads));
        assert!(!report.completions.is_empty());
        report
    };
    let a = run();
    let b = run();

    let health = a.health_jsonl();
    assert_eq!(health, b.health_jsonl(), "health export is byte-identical");
    assert!(health.contains("\"tenant\":\"acme\""));
    assert!(health.contains("\"tenant\":\"bolt\""));
    assert!(health.contains("\"type\":\"health_summary\""));
    assert!(!a.health.is_empty(), "per-tenant health rows are populated");
    let bolt = a
        .health
        .iter()
        .find(|h| h.tenant.as_str() == "bolt")
        .expect("bolt health row");
    assert!(
        bolt.slo.alerting,
        "bolt's impossible cost ceiling must trip its SLO: {:?}",
        bolt.slo
    );
    let acme = a
        .health
        .iter()
        .find(|h| h.tenant.as_str() == "acme")
        .expect("acme health row");
    assert!(
        !acme.slo.alerting,
        "acme stays within target: {:?}",
        acme.slo
    );
    assert!(acme.latency.count > 0, "acme latency window has samples");
}

/// An injected [`CrashPoint`] must leave a parseable flight dump behind:
/// a header line naming the trigger, then the last `FLIGHT_CAPACITY`
/// records (well above the 64-event forensic floor), ending with the
/// crash-point record itself.
#[test]
fn crash_point_dumps_the_flight_ring() {
    use aida::llm::snapshot::{CrashPoint, FailPlan};
    use aida::serve::{LedgerRecord, LedgerWal};
    use aida_testkit::TestDir;
    use std::sync::Arc;

    let dir = TestDir::new("flight-dump");
    let dump_path = dir.file("flight.jsonl");
    let rt = Runtime::builder()
        .seed(7)
        .tracing(true)
        .flight_dump(&dump_path)
        .build();
    // Overfill the ring so the dump proves both retention and eviction.
    for i in 0..300 {
        rt.recorder().flight("test.load", "tick", format!("i={i}"));
    }

    let plan = FailPlan::new(CrashPoint::WalBeforeAppend).with_recorder(rt.recorder().clone());
    let mut wal = LedgerWal::open(dir.file("ledger.wal")).with_fail_plan(Arc::new(plan));
    let err = wal.append(&LedgerRecord::Admit {
        tenant: aida::serve::TenantId::new("acme"),
    });
    assert!(err.is_err(), "armed crash point fails the append");

    let dump = std::fs::read_to_string(&dump_path).expect("crash point wrote the flight dump");
    let lines: Vec<&str> = dump.lines().collect();
    assert!(
        lines[0].starts_with("{\"flight\":\"crash_point\""),
        "header names the trigger: {}",
        lines[0]
    );
    let capacity: usize = lines[0]
        .split("\"capacity\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .expect("header carries the ring capacity");
    assert!(lines[0].contains(&format!("\"events\":{capacity}")));
    assert_eq!(lines.len(), 1 + capacity, "header plus one line per record");
    assert!(capacity >= 64, "acceptance floor: at least 64 events kept");
    assert!(
        lines[lines.len() - 1].contains("\"kind\":\"crash_point\""),
        "the crash record itself is the newest entry: {}",
        lines[lines.len() - 1]
    );
    // Every body line is a well-formed single JSON object.
    for line in &lines[1..] {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
}

mod props {
    use aida::obs::SlidingWindow;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Window rotation never drops or double-counts a sample at slot
        /// boundaries: for any slot geometry and any nondecreasing
        /// sample times (half-slot increments land exactly on slot
        /// edges), a full-span query returns precisely the samples whose
        /// slot index falls in the trailing ring span — each exactly
        /// once, in recording order.
        #[test]
        fn rotation_never_drops_or_double_counts(
            slot_kind in 0usize..3,
            slots in 1usize..6,
            steps in prop::collection::vec(0u32..4, 1..48),
        ) {
            let slot_s = [0.5, 1.0, 2.5][slot_kind];
            let mut w = SlidingWindow::new(slot_s, slots);
            let mut t = 0.0;
            let mut samples = Vec::new();
            for (i, half_slots) in steps.iter().enumerate() {
                t += f64::from(*half_slots) * (slot_s / 2.0);
                w.record(t, i as f64);
                samples.push((t, i as f64));
            }
            let now = t;
            let slot_index = |t: f64| (t / slot_s) as u64;
            let now_idx = slot_index(now);
            // The ring spans the last `slots` slot indices ending at now.
            let first_idx = now_idx.saturating_sub(slots as u64 - 1);
            let expected: Vec<f64> = samples
                .iter()
                .filter(|(ts, _)| slot_index(*ts) >= first_idx)
                .map(|(_, v)| *v)
                .collect();
            prop_assert_eq!(
                w.count_in(now, w.span_s()),
                expected.len() as u64,
                "in-span samples counted exactly once"
            );
            // Distinct values per sample: any drop or double-count
            // changes the returned multiset, not just its cardinality.
            prop_assert_eq!(w.samples_in(now, w.span_s()), expected);
            let stale: u64 = samples
                .iter()
                .filter(|(ts, _)| slot_index(*ts) < first_idx)
                .count() as u64;
            prop_assert_eq!(
                stale + w.count_in(now, w.span_s()),
                samples.len() as u64,
                "every recorded sample is either in-span or aged out"
            );
        }
    }
}
