//! Failure injection: the pipeline must stay correct when LLM calls
//! transiently fail and retry — only the bill changes. The restart
//! section extends the model to durability faults: crashes during WAL
//! appends and interval checkpoints with queries in flight must never
//! double-charge a tenant.

use aida_llm::SimLlm;
use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};
use aida_synth::legal;

fn run_filter(fault_rate: f64) -> (Vec<String>, f64, f64) {
    let workload = legal::generate(5);
    let env = ExecEnv::new(SimLlm::new(5).with_fault_rate(fault_rate));
    workload.install_oracle(&env.llm);
    let ds = Dataset::scan(&workload.lake, "legal").sem_filter(
        "the file contains national statistics on the number of identity theft reports, \
         covering both the years 2001 and 2024",
    );
    let plan = PhysicalPlan::uniform(ds.plan(), aida_llm::ModelId::Flagship, 8);
    let report = Executor::new(&env).execute(&plan);
    let names = report.records.iter().map(|r| r.source.clone()).collect();
    (names, report.cost(), report.time())
}

#[test]
fn results_are_identical_under_faults_but_cost_rises() {
    let (clean_names, clean_cost, clean_time) = run_filter(0.0);
    let (faulty_names, faulty_cost, faulty_time) = run_filter(0.3);
    // Faults are retried: the answers cannot change.
    assert_eq!(clean_names, faulty_names);
    // But the retries are paid for.
    assert!(
        faulty_cost > clean_cost * 1.15,
        "faulty ${faulty_cost} vs clean ${clean_cost}"
    );
    assert!(faulty_time > clean_time, "{faulty_time} vs {clean_time}");
}

#[test]
fn fault_runs_replay_deterministically() {
    assert_eq!(run_filter(0.3), run_filter(0.3));
}

#[test]
fn recorder_accounts_for_fault_retries() {
    use aida::core::Context;
    use aida::prelude::*;
    let run = |fault_rate: f64| {
        let workload = legal::generate(5);
        let rt = Runtime::builder()
            .seed(5)
            .fault_rate(fault_rate)
            .tracing(true)
            .build();
        workload.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", workload.lake.clone())
            .description(workload.description.clone())
            .with_vector_index()
            .build(&rt);
        let outcome = rt.query(&ctx).compute(&workload.query).run();
        (
            outcome.answer.unwrap().as_float().unwrap(),
            outcome.cost,
            rt.recorder().trace(),
        )
    };
    let (clean_answer, clean_cost, clean_trace) = run(0.0);
    let (faulty_answer, faulty_cost, faulty_trace) = run(0.3);
    // Same answer at the same seed, but the faulty run billed the retries.
    assert_eq!(clean_answer, faulty_answer);
    assert!(faulty_cost > clean_cost, "${faulty_cost} vs ${clean_cost}");
    // Only the faulty trace carries retry accounting.
    assert_eq!(clean_trace.counters.get("llm.fault_retries"), None);
    let retries = *faulty_trace.counters.get("llm.fault_retries").unwrap();
    assert!(retries > 0, "retries {retries}");
    assert!(!clean_trace.to_jsonl().contains("fault_retry"));
    assert!(faulty_trace
        .to_jsonl()
        .contains("\"event\":\"fault_retry\""));
    // The span tree absorbs the extra attempts: the faulty query root is
    // strictly more expensive, and both roots reconcile with their runs.
    let clean_root = clean_trace.roots()[0];
    let faulty_root = faulty_trace.roots()[0];
    let clean_total = clean_trace.inclusive(clean_root);
    let faulty_total = faulty_trace.inclusive(faulty_root);
    assert!((clean_total.cost_usd - clean_cost).abs() < 1e-9);
    assert!((faulty_total.cost_usd - faulty_cost).abs() < 1e-9);
    assert!(faulty_total.calls > clean_total.calls);
}

#[test]
fn end_to_end_compute_survives_faults() {
    use aida::core::Context;
    use aida::prelude::*;
    let run = |fault_rate: f64| {
        let workload = legal::generate(5);
        let rt = Runtime::builder().seed(5).fault_rate(fault_rate).build();
        workload.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", workload.lake.clone())
            .description(workload.description.clone())
            .with_vector_index()
            .build(&rt);
        let outcome = rt.query(&ctx).compute(&workload.query).run();
        (outcome.answer.unwrap().as_float().unwrap(), outcome.cost)
    };
    let (clean_answer, clean_cost) = run(0.0);
    let (faulty_answer, faulty_cost) = run(0.3);
    let truth = legal::true_ratio();
    assert!(((clean_answer - truth) / truth).abs() < 0.05);
    // Same answer under a 30% transient-fault rate, at a higher bill.
    assert_eq!(clean_answer, faulty_answer);
    assert!(faulty_cost > clean_cost, "${faulty_cost} vs ${clean_cost}");
}

// ---- restart under fault ------------------------------------------------

mod restart_under_fault {
    use aida::core::{Context, Runtime};
    use aida::data::{DataLake, Document};
    use aida::llm::snapshot::{CrashPoint, FailPlan};
    use aida::serve::{
        open_loop, LedgerWal, QueryService, ServeConfig, TenantConfig, TenantLedger, TenantLoad,
    };
    use aida_testkit::TestDir;
    use std::sync::Arc;

    fn lake() -> DataLake {
        DataLake::from_docs([
            Document::new("report_2001.txt", "identity theft reports in 2001: 86250"),
            Document::new("report_2002.txt", "identity theft reports in 2002: 161977"),
        ])
    }

    fn service(rt: Runtime) -> QueryService {
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let mut svc = QueryService::new(
            rt,
            ServeConfig {
                workers: 2,
                queue_capacity: 16,
                ..ServeConfig::default()
            },
        );
        svc.register_context("reports", ctx);
        svc.register_tenant("acme", TenantConfig::weighted(2));
        svc.register_tenant("bolt", TenantConfig::default());
        svc
    }

    fn workload() -> Vec<aida::serve::QueryRequest> {
        let loads = [
            TenantLoad::new("acme", "reports")
                .instructions([
                    "count identity theft reports in 2001",
                    "count identity theft reports in 2002",
                ])
                .queries(4)
                .mean_interarrival(30.0),
            TenantLoad::new("bolt", "reports")
                .instructions(["count identity theft reports in 2001"])
                .queries(3)
                .mean_interarrival(45.0)
                .offset(10.0),
        ];
        open_loop(13, &loads)
    }

    /// A crash during a WAL append with queries in flight stops dispatch
    /// immediately, so the durable ledger trails the in-memory one by at
    /// most the single in-flight record — re-admitting the workload after
    /// recovery can never double-charge a tenant.
    #[test]
    fn wal_append_crash_loses_at_most_the_in_flight_record() {
        let dir = TestDir::new("fault-wal-crash");
        let wal_path = dir.file("ledger.wal");
        let mut svc = service(Runtime::builder().seed(13).tracing(true).build());
        let plan = Arc::new(FailPlan::nth(CrashPoint::WalTornAppend, 5).torn_keep(13));
        svc.attach_wal(LedgerWal::open(&wal_path).with_fail_plan(plan.clone()))
            .unwrap();

        let report = svc.run(workload());
        assert!(report.wal_failed, "the report records the crash");
        assert!(
            svc.runtime()
                .recorder()
                .export_jsonl()
                .contains("injected crash at WalTornAppend"),
            "the failure is the injected crash"
        );

        // Recover the durable ledger from disk ("restart").
        let mut recovered = TenantLedger::new();
        let mut wal = LedgerWal::open(&wal_path);
        let recovery = wal.recover(&mut recovered).unwrap();
        assert!(recovery.dropped_tail, "the torn append was truncated");

        // Invariant: per tenant, the durable ledger is never ahead of the
        // in-memory one, and across all tenants at most one record — the
        // in-flight one — is missing.
        let mut lost = 0;
        for (tenant, mem) in svc.tenants().spends() {
            let disk = recovered.spend(tenant);
            assert!(
                disk.usd <= mem.usd + 1e-12,
                "{tenant}: durable ledger must never exceed in-memory spend"
            );
            assert!(disk.calls <= mem.calls);
            if disk.usd.to_bits() != mem.usd.to_bits() {
                lost += 1;
            }
        }
        assert!(
            lost <= 1,
            "ledger delta exceeds one in-flight query ({lost} tenants diverged)"
        );
    }

    /// Interval checkpoints that fail (here: the state path is a
    /// directory, so the rename commit can never land) must not disturb
    /// serving: same answers, bit-identical tenant charges, and the
    /// failures surface as `checkpoint.errors` instead of double-charges.
    #[test]
    fn failed_interval_checkpoints_never_double_charge() {
        let clean_spends = {
            let mut svc = service(Runtime::builder().seed(13).build());
            let report = svc.run(workload());
            assert!(!report.wal_failed);
            (
                report.completions.len(),
                svc.tenants()
                    .spends()
                    .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
                    .collect::<Vec<_>>(),
            )
        };

        let dir = TestDir::new("fault-ckpt");
        let rt = Runtime::builder()
            .seed(13)
            .state_path(dir.path()) // a directory: every checkpoint fails
            .checkpoint_interval(1)
            .tracing(true)
            .build();
        let mut svc = service(rt);
        let report = svc.run(workload());
        let faulty_spends: Vec<(String, u64)> = svc
            .tenants()
            .spends()
            .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
            .collect();

        assert_eq!(report.completions.len(), clean_spends.0);
        assert_eq!(
            faulty_spends, clean_spends.1,
            "failed checkpoints must not change a single charged bit"
        );
        let trace = svc.runtime().recorder().trace();
        let errors = trace
            .counters
            .get("checkpoint.errors")
            .copied()
            .unwrap_or(0);
        assert!(errors > 0, "the failing checkpoints were counted");
    }
}
