//! Integration tests for the serving layer: concurrent hammering of the
//! shared runtime, deterministic replay through the full service, and
//! quota isolation between tenants.

use aida::prelude::*;

fn lake() -> DataLake {
    DataLake::from_docs([
        Document::new("report_2001.txt", "identity theft reports in 2001: 86250"),
        Document::new("report_2002.txt", "identity theft reports in 2002: 161977"),
        Document::new("report_2024.txt", "identity theft reports in 2024: 1135291"),
    ])
}

/// Eight real threads hammer the shared ContextManager (register +
/// reuse) and the SQL catalog at once. Counters must not lose updates:
/// every reuse() call lands as exactly one hit or one miss, every
/// register() either stays in the store or shows up as an eviction, and
/// the capacity bound holds throughout.
#[test]
fn concurrent_hammering_loses_no_updates() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 50;
    const CAPACITY: usize = 16;

    let rt = Runtime::builder().seed(3).build();
    let manager = aida::core::ContextManager::with_capacity(CAPACITY);
    let mut counts = Table::new(Schema::of(["year", "thefts"]));
    counts
        .push_row(vec![Value::Int(2001), Value::Int(86250)])
        .unwrap();
    rt.register_table("counts", counts);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt = &rt;
            let manager = &manager;
            scope.spawn(move || {
                for i in 0..ROUNDS {
                    let lake = DataLake::from_docs([Document::new(
                        format!("doc_{t}_{i}.txt"),
                        format!("content {t} {i}"),
                    )]);
                    let ctx = Context::builder(format!("ctx_{t}_{i}"), lake)
                        .description(format!("stress context {t} {i}"))
                        .build(rt);
                    manager.register(&format!("instruction {t} {i}"), ctx, i as f64);
                    let _ = manager.reuse(&format!("instruction {t} {i}"), 0.5);
                    let table = rt
                        .sql("SELECT thefts FROM counts WHERE year = 2001")
                        .unwrap();
                    assert_eq!(table.len(), 1);
                }
            });
        }
    });

    let (hits, misses) = manager.reuse_stats();
    assert_eq!(
        hits + misses,
        THREADS * ROUNDS,
        "every reuse() call counted exactly once (hits={hits}, misses={misses})"
    );
    assert!(manager.len() <= CAPACITY, "capacity bound held");
    assert_eq!(
        manager.evictions(),
        THREADS * ROUNDS - manager.len() as u64,
        "every register retained or evicted, none lost"
    );
}

fn build_service(seed: u64) -> QueryService {
    let rt = Runtime::builder().seed(seed).build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let mut svc = QueryService::new(
        rt,
        ServeConfig {
            workers: 3,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    svc.register_context("reports", ctx);
    svc
}

/// The full service — driver, admission, WRR dispatch, the virtual
/// worker pool — replays byte-identically at the same seed, including
/// the per-tenant dollar attribution.
#[test]
fn service_replay_is_byte_identical() {
    let run = || {
        let mut svc = build_service(11);
        svc.register_tenant("acme", TenantConfig::weighted(2));
        svc.register_tenant("bolt", TenantConfig::default());
        let loads = [
            TenantLoad::new("acme", "reports")
                .instructions([
                    "count identity theft reports in 2001",
                    "count identity theft reports in 2024",
                ])
                .queries(4)
                .mean_interarrival(25.0),
            TenantLoad::new("bolt", "reports")
                .instructions(["count identity theft reports in 2002"])
                .queries(3)
                .mean_interarrival(40.0)
                .offset(10.0),
        ];
        let report = svc.run(open_loop(11, &loads));
        let acme = svc.tenants().spend(&TenantId::new("acme"));
        let bolt = svc.tenants().spend(&TenantId::new("bolt"));
        (report.to_jsonl(), report.render(), acme.usd, bolt.usd)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "JSONL export is byte-identical");
    assert_eq!(a.1, b.1, "dashboard render is byte-identical");
    assert_eq!(a.2, b.2, "per-tenant dollars identical (acme)");
    assert_eq!(a.3, b.3, "per-tenant dollars identical (bolt)");
    assert!(a.2 > 0.0 && a.3 > 0.0);
}

/// An over-quota tenant is shed with a typed rejection while the other
/// tenant's latency percentiles stay within 2x its solo (alone on the
/// service) values.
#[test]
fn quota_shedding_isolates_the_other_tenant() {
    let calm_load = || {
        TenantLoad::new("calm", "reports")
            .instructions([
                "count identity theft reports in 2001",
                "count identity theft reports in 2024",
            ])
            .queries(5)
            .mean_interarrival(60.0)
    };

    // Solo: calm is the only tenant.
    let mut solo_svc = build_service(21);
    solo_svc.register_tenant("calm", TenantConfig::default());
    let solo = solo_svc.run(open_loop(21, &[calm_load()]));
    let solo_report = &solo.tenants[&TenantId::new("calm")];
    assert_eq!(solo_report.completed, 5);
    let (solo_p50, solo_p95) = (solo_report.latency.p50(), solo_report.latency.p95());

    // Mixed: a noisy neighbor floods the service under a micro-budget,
    // so it is shed after its first completed query.
    let mut mixed_svc = build_service(21);
    mixed_svc.register_tenant("calm", TenantConfig::default());
    mixed_svc.register_tenant("noisy", TenantConfig::default().dollars(1e-6));
    let noisy_load = TenantLoad::new("noisy", "reports")
        .instructions(["count identity theft reports in 2002"])
        .queries(20)
        .mean_interarrival(10.0);
    let mixed = mixed_svc.run(open_loop(21, &[calm_load(), noisy_load]));

    let noisy_report = &mixed.tenants[&TenantId::new("noisy")];
    assert!(
        *noisy_report.shed.get("budget_exhausted").unwrap_or(&0) >= 15,
        "noisy neighbor shed with a typed rejection: {:?}",
        noisy_report.shed
    );

    let calm_report = &mixed.tenants[&TenantId::new("calm")];
    assert_eq!(calm_report.completed, 5, "calm tenant fully served");
    assert!(
        calm_report.latency.p50() <= 2.0 * solo_p50,
        "p50 {} vs solo {}",
        calm_report.latency.p50(),
        solo_p50
    );
    assert!(
        calm_report.latency.p95() <= 2.0 * solo_p95,
        "p95 {} vs solo {}",
        calm_report.latency.p95(),
        solo_p95
    );
}

/// Requests from tenants the service doesn't know are refused with the
/// typed `unknown_tenant` rejection — quota enforcement cannot be
/// bypassed by inventing a fresh tenant id.
#[test]
fn unknown_tenants_cannot_slip_past_admission() {
    let mut svc = build_service(5);
    svc.register_tenant("acme", TenantConfig::default());
    let loads = [TenantLoad::new("ghost", "reports")
        .instructions(["count identity theft reports in 2001"])
        .queries(2)
        .mean_interarrival(5.0)];
    let report = svc.run(open_loop(5, &loads));
    assert!(report.completions.is_empty());
    assert_eq!(report.sheds.len(), 2);
    assert!(report
        .sheds
        .iter()
        .all(|s| s.reason.kind() == "unknown_tenant"));
}
