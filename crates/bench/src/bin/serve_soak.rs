//! Serving-layer soak: four tenants hammer one shared runtime.
//!
//! Two tenants analyze the legal lake, two the Enron lake, with
//! overlapping instruction mixes — so Contexts materialized for one
//! tenant satisfy the other tenant on the same lake (cross-tenant
//! reuse). One tenant runs under a deliberately tight dollar quota to
//! demonstrate typed load-shedding while the other tenants keep their
//! latency.
//!
//! The soak now runs twice on the same seed and workload: once with the
//! semantic call cache disabled (the baseline) and once with a shared
//! cache across all tenants. Repeated instructions across tenants replay
//! out of the cache at zero marginal spend, so the cache-on run must be
//! strictly cheaper; the full (non-smoke) soak asserts at least a 20%
//! dollar reduction. Numbers land in `results/BENCH_semcache.json`.
//!
//! Every tenant declares an SLO (p99 latency target, dollar-per-query
//! ceiling). The service's health layer windows latency/cost/queue-wait
//! per tenant and evaluates multi-window burn rates; the verdicts land
//! in the rendered report, in `results/health.jsonl`, and in the
//! canonical `results/BENCH_serve_soak.json`.
//!
//! The run is deterministic on the virtual clock: same seed → identical
//! `ServiceReport`, byte-identical `results/traces/serve_soak.jsonl` and
//! `results/health.jsonl`. `SERVE_SOAK_SMOKE=1` shrinks the workload for
//! CI. `SERVE_SOAK_CRASH=1` additionally runs a crash-forensics probe: a
//! `FailPlan` tears a ledger commit mid-record, which must leave a
//! parseable flight-recorder dump at `results/traces/flight_<seed>.jsonl`.
//! The headline workload also runs once with tracing off, and its trace,
//! health and rendered exports must equal the traced run's byte for
//! byte: tracing observes the run, it does not perturb it. The
//! recorder's host-time overhead is measured by the `perf/` benchmark's
//! `obs.trace_overhead_share`, not here.
//!
//! The durable phase runs twice: once with one fsync per ledger record
//! (the baseline) and once with group commit + a segmented WAL. The
//! full soak demands at least a 5x fsyncs/query reduction at
//! bit-identical per-tenant dollars, and the grouped restart must
//! replay the ledger's log across full segments.

use aida_bench::{BenchResult, SemcacheBench};
use aida_core::{Context, Runtime};
use aida_llm::{CrashPoint, FailPlan};
use aida_obs::{SloPolicy, Summary};
use aida_serve::{
    open_loop, AutoscaleConfig, ClientConfig, LedgerWal, LiveSource, QueryRequest, QueryService,
    ServeConfig, ServiceReport, TenantConfig, TenantLoad,
};
use aida_synth::{enron, legal};
use std::path::Path;
use std::sync::Arc;

/// Worker-pool shape: `(initial_workers, autoscaler)`. `None` keeps the
/// default fixed pool.
type PoolSetup = Option<(usize, Option<AutoscaleConfig>)>;

fn build_service(
    seed: u64,
    cache: bool,
    durable: Option<&Path>,
    tracing: bool,
    crash: Option<CrashPoint>,
    group_commit: usize,
    pool: PoolSetup,
) -> QueryService {
    let mut builder = Runtime::builder()
        .seed(seed)
        .context_capacity(256)
        .tracing(tracing);
    if cache {
        builder = builder.semantic_cache(4096);
    }
    if let Some(dir) = durable {
        builder = builder
            .cache_path(dir.join("semcache.bin"))
            .state_path(dir.join("state.bin"))
            .checkpoint_interval(16);
    }
    if crash.is_some() {
        builder =
            builder.flight_dump(aida_bench::traces_dir().join(format!("flight_{seed}.jsonl")));
    }
    let rt = builder.build();
    let legal_workload = legal::generate(seed);
    let enron_workload = enron::generate(seed);
    let legal_ctx = Context::builder("legal", legal_workload.lake.clone())
        .description(legal_workload.description.clone())
        .with_vector_index()
        .build(&rt);
    let enron_ctx = Context::builder("enron", enron_workload.lake.clone())
        .description(enron_workload.description.clone())
        .with_vector_index()
        .build(&rt);

    let recorder = rt.recorder().clone();
    // Queries arrive minutes apart, so burn rates are judged over a
    // 15-minute fast window and a 1-hour slow window; the 64×60s health
    // ring spans both.
    let mut config = ServeConfig::default()
        .health_window(60.0, 64)
        .slo_policy(SloPolicy {
            fast_window_s: 900.0,
            slow_window_s: 3600.0,
            ..SloPolicy::default()
        });
    if group_commit > 1 {
        config = config.group_commit(group_commit);
    }
    if let Some((workers, autoscale)) = pool {
        config.workers = workers;
        if let Some(ac) = autoscale {
            config = config.autoscale(ac);
        }
    }
    let mut svc = QueryService::new(rt, config);
    svc.register_context("legal", legal_ctx);
    svc.register_context("enron", enron_ctx);
    // Every tenant declares an SLO; the service reports burn rates but
    // never sheds on them.
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
            .usd_per_query(1.0),
    );
    svc.register_tenant(
        "cora",
        TenantConfig::default()
            .p99_latency(1200.0)
            .usd_per_query(1.0),
    );
    // The quota guinea pig: enough budget for a handful of queries, then
    // every further request is shed with `budget_exhausted`.
    svc.register_tenant(
        "dara",
        TenantConfig::default()
            .dollars(0.05)
            .p99_latency(600.0)
            .usd_per_query(0.01),
    );
    if let Some(dir) = durable {
        let mut wal = LedgerWal::open(dir.join("ledger.wal"));
        if group_commit > 1 {
            // The group-commit phase exercises the whole log: group
            // commits fill segments of 32 records, and the restart
            // replays the snapshot and then every segment.
            wal = wal.segment_records(32);
        }
        if let Some(point) = crash {
            // Let ~10 queries land first so the flight ring has a real
            // event tail to dump when the append tears.
            wal = wal.with_fail_plan(Arc::new(FailPlan::nth(point, 20).with_recorder(recorder)));
        }
        svc.attach_wal(wal).expect("tenant-ledger WAL recovery");
    }
    svc
}

fn spend_bits(svc: &QueryService) -> Vec<(String, u64)> {
    svc.tenants()
        .spends()
        .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
        .collect()
}

fn latency_summary(report: &ServiceReport) -> Summary {
    let mut summary = Summary::default();
    for c in &report.completions {
        summary.record(c.latency_s());
    }
    summary
}

/// The canonical machine-readable headline: service-wide throughput and
/// hit rate plus each tenant's windowed latency percentiles and SLO
/// verdict (0 = ok, 1 = burning).
fn serve_soak_bench(seed: u64, report: &ServiceReport) -> BenchResult {
    let throughput = if report.makespan_s > 0.0 {
        report.completions.len() as f64 / report.makespan_s
    } else {
        0.0
    };
    let mut out = BenchResult::new("serve_soak", seed)
        .metric("queries", report.completions.len() as f64)
        .metric("throughput_qps", throughput)
        .metric("hit_rate", report.cache_hit_rate())
        .metric("total_cost_usd", report.total_cost_usd)
        .metric("slo_alerts", report.slo_alerts as f64);
    for h in &report.health {
        out = out
            .metric(format!("{}/p50_s", h.tenant), h.latency.p50)
            .metric(format!("{}/p95_s", h.tenant), h.latency.p95)
            .metric(format!("{}/p99_s", h.tenant), h.latency.p99)
            .metric(format!("{}/usd_per_query", h.tenant), h.cost.mean)
            .metric(
                format!("{}/slo_breach", h.tenant),
                if h.slo.alerting { 1.0 } else { 0.0 },
            );
    }
    out
}

/// `SERVE_SOAK_CRASH=1`: tear a WAL append mid-record and prove the
/// flight recorder leaves a parseable forensic dump behind.
fn crash_probe(seed: u64, requests: &[QueryRequest]) {
    let dump = aida_bench::traces_dir().join(format!("flight_{seed}.jsonl"));
    let _ = std::fs::remove_file(&dump);
    let crash_dir = aida_bench::results_dir().join("serve_soak_crash");
    let _ = std::fs::remove_dir_all(&crash_dir);
    std::fs::create_dir_all(&crash_dir).expect("create crash dir");

    let mut svc = build_service(
        seed,
        true,
        Some(&crash_dir),
        true,
        Some(CrashPoint::LogTornCommit),
        0,
        None,
    );
    let report = svc.run(requests.to_vec());
    if !report.wal_failed {
        eprintln!("FAIL: injected torn append never fired");
        std::process::exit(1);
    }
    println!(
        "crash probe: {} completions before the torn WAL append halted admission",
        report.completions.len(),
    );
    let text = match std::fs::read_to_string(&dump) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: no flight dump at {} ({e})", dump.display());
            std::process::exit(1);
        }
    };
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    // A later SLO-alert autodump may overwrite the crash-point dump (same
    // path, same ring), so accept any reason but demand the crash record
    // itself survived in the event tail.
    if !header.starts_with("{\"flight\":\"") {
        eprintln!("FAIL: flight dump header malformed: {header}");
        std::process::exit(1);
    }
    if !text.contains("\"kind\":\"crash_point\"") {
        eprintln!("FAIL: flight dump lost the crash_point record");
        std::process::exit(1);
    }
    let events = lines
        .filter(|l| l.starts_with('{') && l.ends_with('}'))
        .count();
    if events < 64 {
        eprintln!("FAIL: flight dump carries only {events} events (< 64)");
        std::process::exit(1);
    }
    println!(
        "crash probe: flight dump at {} ({events} events)",
        dump.display()
    );
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// One closed-loop client per connection. Tenants cycle
/// acme/bolt/cora, with every 25th client on quota-capped dara so the
/// fleet exercises terminal rejections too. A dense head ramps load
/// onto the pool; the sparse tail lets the controller scale back down
/// while traffic still flows. Every 10th client asks its question
/// twice, so its second submission rides the plan-hash path.
fn live_fleet(clients: usize, legal_mix: &[&str; 3], enron_mix: &[&str; 3]) -> Vec<ClientConfig> {
    let head = (clients * 4) / 5;
    (0..clients)
        .map(|i| {
            let (tenant, context, mix) = if i % 25 == 24 {
                ("dara", "enron", enron_mix)
            } else {
                match i % 3 {
                    0 => ("acme", "legal", legal_mix),
                    1 => ("bolt", "legal", legal_mix),
                    _ => ("cora", "enron", enron_mix),
                }
            };
            let start_s = if i < head {
                i as f64 * 0.5
            } else {
                head as f64 * 0.5 + (i - head) as f64 * 30.0
            };
            ClientConfig::new(tenant, context)
                .instructions([mix[i % 3]])
                .queries(if i % 10 == 9 { 2 } else { 1 })
                .think(45.0)
                .retries(3)
                .backoff(30.0)
                .start(start_s)
        })
        .collect()
}

/// `SERVE_SOAK_LIVE=1`: the live front door. A closed-loop fleet
/// connects over the deterministic simulated transport (one connection
/// per client), the listener decodes length-prefixed frames into the
/// admission queue, and the latency-targeted autoscaler resizes the
/// worker pool. The phase serves the same fleet twice on one seed —
/// every report surface must be byte-identical — then once more on a
/// fixed max-size pool, which the autoscaler must beat on
/// worker-seconds while holding the p99 target.
fn live_phase(seed: u64, smoke: bool, legal_mix: &[&str; 3], enron_mix: &[&str; 3]) {
    let clients = if smoke { 150 } else { 1200 };
    // Tight enough that the cold dense head breaches it (queue waits
    // behind the first uncached queries), loose enough that the warm
    // steady state clears it with room — so one run demonstrates both
    // scale directions.
    let target_p99_s = 60.0;
    let autoscale = AutoscaleConfig::new(1, 8, target_p99_s)
        .evaluate_every(30.0)
        .window(240.0)
        .cooldown(120.0);
    let fleet = live_fleet(clients, legal_mix, enron_mix);
    let serve_live = |pool: PoolSetup| {
        let mut svc = build_service(seed, true, None, true, None, 0, pool);
        let mut source = LiveSource::new(seed, fleet.clone());
        let report = svc.serve(&mut source);
        (report, source.outcomes())
    };

    let (report, outcomes) = serve_live(Some((2, Some(autoscale.clone()))));
    let (replay, _) = serve_live(Some((2, Some(autoscale))));
    if report.to_jsonl() != replay.to_jsonl()
        || report.render() != replay.render()
        || report.health_jsonl() != replay.health_jsonl()
    {
        eprintln!("FAIL: same-seed live runs diverged");
        std::process::exit(1);
    }
    println!("{}", report.render());

    let net = report.net.clone().expect("live run carries a net report");
    if (net.stats.conns_opened as usize) < clients {
        eprintln!(
            "FAIL: only {} connections for {clients} clients",
            net.stats.conns_opened
        );
        std::process::exit(1);
    }
    if net.stats.wire_error_total() != 0 {
        eprintln!(
            "FAIL: {} wire errors on a clean fleet",
            net.stats.wire_error_total()
        );
        std::process::exit(1);
    }
    if net.stats.plan_hash_hits == 0 {
        eprintln!("FAIL: repeat submissions never rode the plan-hash path");
        std::process::exit(1);
    }
    if report.scale_events.is_empty() {
        eprintln!("FAIL: the autoscaler never moved under the ramp");
        std::process::exit(1);
    }
    if report.scale_ups() == 0 || report.scale_downs() == 0 {
        eprintln!(
            "FAIL: ramp must exercise both directions, saw {} ups / {} downs",
            report.scale_ups(),
            report.scale_downs()
        );
        std::process::exit(1);
    }
    // The cold burst breaches the target by design; the SLO claim is
    // that the controller converges, so judge p99 over the completions
    // in the second half of the run.
    let latency = latency_summary(&report);
    let mut steady = Summary::default();
    for c in report
        .completions
        .iter()
        .filter(|c| c.end_s * 2.0 >= report.makespan_s)
    {
        steady.record(c.latency_s());
    }
    if steady.p99() > target_p99_s {
        eprintln!(
            "FAIL: converged p99 {:.1}s blew the {target_p99_s:.0}s target",
            steady.p99()
        );
        std::process::exit(1);
    }
    let completed = outcomes.iter().filter(|o| o.kind() == "completed").count();
    if completed * 10 < clients * 8 {
        eprintln!("FAIL: only {completed}/{clients} clients completed (< 80%)");
        std::process::exit(1);
    }

    // Same fleet on a fixed pool at the autoscaler's max bound: the
    // controller must hold the target with fewer worker-seconds.
    let (fixed, _) = serve_live(Some((8, None)));
    if report.worker_seconds >= fixed.worker_seconds {
        eprintln!(
            "FAIL: autoscaler spent {:.1} worker-seconds vs {:.1} fixed",
            report.worker_seconds, fixed.worker_seconds
        );
        std::process::exit(1);
    }
    let saved_pct = 100.0 * (1.0 - report.worker_seconds / fixed.worker_seconds);
    println!(
        "live front door: {} conns (peak {}), {} queries, converged p99 {:.1}s vs target \
         {target_p99_s:.0}s, {} ups / {} downs, {:.0} worker-seconds vs {:.0} fixed \
         ({saved_pct:.1}% saved)",
        net.stats.conns_opened,
        net.stats.conns_peak,
        report.completions.len(),
        steady.p99(),
        report.scale_ups(),
        report.scale_downs(),
        report.worker_seconds,
        fixed.worker_seconds,
    );

    aida_bench::write_trace_jsonl("serve_live", &report.to_jsonl());
    let health_path = aida_bench::results_dir().join("health_live.jsonl");
    match std::fs::write(&health_path, report.health_jsonl()) {
        Ok(()) => println!("(live health saved to {})", health_path.display()),
        Err(err) => eprintln!("warning: could not save {}: {err}", health_path.display()),
    }
    aida_bench::emit_bench(
        &BenchResult::new("serve_live", seed)
            .metric("connections", net.stats.conns_opened as f64)
            .metric("conns_peak", net.stats.conns_peak as f64)
            .metric("clients_completed", net.clients_completed as f64)
            .metric("clients_abandoned", net.clients_abandoned as f64)
            .metric("client_retries", net.client_retries as f64)
            .metric("queries", report.completions.len() as f64)
            .metric("p99_s", latency.p99())
            .metric("converged_p99_s", steady.p99())
            .metric("target_p99_s", target_p99_s)
            .metric("scale_ups", report.scale_ups() as f64)
            .metric("scale_downs", report.scale_downs() as f64)
            .metric("worker_seconds_autoscaled", report.worker_seconds)
            .metric("worker_seconds_fixed", fixed.worker_seconds)
            .metric("worker_seconds_saved_pct", saved_pct)
            .metric("plan_hash_hits", net.stats.plan_hash_hits as f64)
            .metric("wire_errors", net.stats.wire_error_total() as f64),
    );
}

fn main() {
    let env_on = |k: &str| std::env::var(k).is_ok_and(|v| v != "0" && !v.is_empty());
    let smoke = env_on("SERVE_SOAK_SMOKE");
    let seed = 1;
    let queries_per_tenant = if smoke { 3 } else { 25 };

    let legal_mix = [
        "find the number of identity theft reports in 2001",
        "find the number of identity theft reports in 2024",
        "find the number of identity theft reports in 2013",
    ];
    let enron_mix = [
        "find emails with firsthand discussion of the Raptor transaction",
        "find emails with firsthand discussion of the Chewco transaction",
        "find emails with firsthand discussion of the LJM transaction",
    ];
    let loads = vec![
        TenantLoad::new("acme", "legal")
            .instructions(legal_mix)
            .queries(queries_per_tenant)
            .mean_interarrival(120.0),
        TenantLoad::new("bolt", "legal")
            .instructions(legal_mix)
            .queries(queries_per_tenant)
            .mean_interarrival(150.0)
            .offset(30.0),
        TenantLoad::new("cora", "enron")
            .instructions(enron_mix)
            .queries(queries_per_tenant)
            .mean_interarrival(150.0)
            .offset(60.0),
        TenantLoad::new("dara", "enron")
            .instructions(enron_mix)
            .queries(queries_per_tenant)
            .mean_interarrival(120.0)
            .offset(15.0),
    ];
    let requests: Vec<QueryRequest> = open_loop(seed, &loads);

    // Baseline: the same workload through the same service, cache off.
    let mut baseline_svc = build_service(seed, false, None, true, None, 0, None);
    let baseline = baseline_svc.run(requests.clone());

    // The headline run: shared semantic cache across all four tenants,
    // tracing on. Tracing must observe the run, not perturb it: the same
    // run untraced must export the same bytes.
    let untraced = build_service(seed, true, None, false, None, 0, None).run(requests.clone());
    let mut report = build_service(seed, true, None, true, None, 0, None).run(requests.clone());
    let exports = |r: &ServiceReport| {
        [
            ("to_jsonl", r.to_jsonl()),
            ("health_jsonl", r.health_jsonl()),
            ("render", r.render()),
        ]
    };
    let differs = exports(&untraced)
        .into_iter()
        .zip(exports(&report))
        .find(|(a, b)| a.1 != b.1);
    if let Some(((name, _), _)) = differs {
        eprintln!("FAIL: tracing changed the run's {name} export");
        std::process::exit(1);
    }

    let isolated = build_service(seed, true, None, true, None, 0, None).isolated_cost(&requests);
    report.set_isolated_baseline(isolated);

    println!("{}", report.render());
    aida_bench::write_trace_jsonl("serve_soak", &report.to_jsonl());
    aida_bench::emit_text("serve_soak", &report.render());

    // Per-tenant health: windowed percentiles + SLO burn-rate verdicts.
    let health_path = aida_bench::results_dir().join("health.jsonl");
    match std::fs::write(&health_path, report.health_jsonl()) {
        Ok(()) => println!("(health saved to {})", health_path.display()),
        Err(err) => eprintln!("warning: could not save {}: {err}", health_path.display()),
    }
    aida_bench::emit_bench(&serve_soak_bench(seed, &report));
    if report.health.is_empty() {
        eprintln!("FAIL: soak produced no per-tenant health rows");
        std::process::exit(1);
    }

    let cold_latency = latency_summary(&baseline);
    let warm_latency = latency_summary(&report);
    let bench = SemcacheBench {
        source: "serve_soak",
        cold_usd: baseline.total_cost_usd,
        warm_usd: report.total_cost_usd,
        hit_rate: report.cache_hit_rate(),
        p50_cold_s: cold_latency.p50(),
        p95_cold_s: cold_latency.p95(),
        p50_warm_s: warm_latency.p50(),
        p95_warm_s: warm_latency.p95(),
    };
    aida_bench::emit_semcache_bench(&bench);

    // The cache must pay for itself: strictly cheaper on every soak, and
    // at least 20% cheaper on the full workload.
    if report.total_cost_usd >= baseline.total_cost_usd {
        eprintln!(
            "FAIL: cache-on soak cost ${:.4} >= cache-off ${:.4}",
            report.total_cost_usd, baseline.total_cost_usd
        );
        std::process::exit(1);
    }
    if !smoke && bench.reduction_pct() < 20.0 {
        eprintln!(
            "FAIL: cache-on soak saved only {:.1}% (< 20%)",
            bench.reduction_pct()
        );
        std::process::exit(1);
    }

    if env_on("SERVE_SOAK_CRASH") {
        crash_probe(seed, &requests);
    }

    if env_on("SERVE_SOAK_LIVE") {
        live_phase(seed, smoke, &legal_mix, &enron_mix);
    }

    // ---- restart phase: the durable-state layer under a process death.
    //
    // A previous soak may have been killed mid-write (CI's kill-9
    // smoke): recovery must swallow whatever partial files it left —
    // a torn WAL tail is truncated, a torn snapshot temp is ignored —
    // then the phase resets to a clean cold run.
    let durable_dir = aida_bench::results_dir().join("serve_soak_durable");
    // A soak built before the log had a manifest left its ledger as one
    // file, `ledger.wal`: that layout is refused by design, so such a
    // directory is only reset.
    let old_layout = durable_dir.join("ledger.wal").is_file();
    if durable_dir.exists() && !old_layout {
        let probe = build_service(seed, true, Some(&durable_dir), true, None, 0, None);
        let recovery = probe.wal_recovery().expect("wal attached");
        println!(
            "restart probe: recovered {} contexts, replayed {} ledger records (dropped tail: {})",
            probe.runtime().manager().len(),
            recovery.replayed,
            recovery.dropped_tail
        );
    }
    if durable_dir.exists() {
        std::fs::remove_dir_all(&durable_dir).expect("reset durable dir");
    }
    std::fs::create_dir_all(&durable_dir).expect("create durable dir");

    // Cold durable run: checkpoint every 16 agentic ops + final save.
    let mut durable_svc = build_service(seed, true, Some(&durable_dir), true, None, 0, None);
    let durable_report = durable_svc.run(requests.clone());
    let cold_spends = spend_bits(&durable_svc);
    durable_svc
        .runtime()
        .save_state()
        .expect("state checkpoint");
    durable_svc.runtime().save_cache().expect("cache spill");
    drop(durable_svc); // the "crash": nothing survives but the files

    // Warm restart: per-tenant dollars must replay bit-identically and
    // the restore itself must spend nothing.
    let warm_svc = build_service(seed, true, Some(&durable_dir), true, None, 0, None);
    let recovery = warm_svc.wal_recovery().expect("wal attached");
    let restore_cost = warm_svc.runtime().cost();
    println!(
        "restart: replayed {} ledger records, restored {} contexts, re-materialization spend ${restore_cost:.4}",
        recovery.replayed,
        warm_svc.runtime().manager().len(),
    );
    if durable_report.wal_appends == 0 {
        eprintln!("FAIL: durable run appended no ledger records");
        std::process::exit(1);
    }
    if spend_bits(&warm_svc) != cold_spends {
        eprintln!("FAIL: per-tenant dollars diverged across the restart");
        std::process::exit(1);
    }
    if recovery.replayed + recovery.skipped == 0 && !recovery.snapshot_loaded {
        eprintln!("FAIL: restart recovered nothing from the ledger WAL");
        std::process::exit(1);
    }
    if warm_svc.runtime().manager().is_empty() {
        eprintln!("FAIL: restart restored no Contexts from the snapshot");
        std::process::exit(1);
    }
    if restore_cost != 0.0 {
        eprintln!("FAIL: restart spent ${restore_cost:.6} re-materializing state");
        std::process::exit(1);
    }
    drop(warm_svc);

    // ---- group-commit phase: the same workload with ledger appends
    // coalesced into one fsync per batch and the tail sealing into
    // segments. Dollars must not move; the fsync count must collapse.
    let grouped_dir = aida_bench::results_dir().join("serve_soak_grouped");
    if grouped_dir.exists() {
        std::fs::remove_dir_all(&grouped_dir).expect("reset grouped dir");
    }
    std::fs::create_dir_all(&grouped_dir).expect("create grouped dir");
    let group = 8;
    let mut grouped_svc = build_service(seed, true, Some(&grouped_dir), true, None, group, None);
    let grouped_report = grouped_svc.run(requests);
    let grouped_spends = spend_bits(&grouped_svc);
    drop(grouped_svc); // crash-stop again: only the log survives

    let queries = grouped_report.completions.len().max(1) as f64;
    let plain_rate = durable_report.wal_fsyncs as f64 / queries;
    let grouped_rate = grouped_report.wal_fsyncs as f64 / queries;
    let speedup = plain_rate / grouped_rate.max(f64::MIN_POSITIVE);
    println!(
        "group commit: {plain_rate:.2} fsyncs/query per-record vs {grouped_rate:.2} grouped \
         ({speedup:.1}x fewer; {} group flushes, {} segments sealed, staleness bound {} records)",
        grouped_report.wal_group_flushes,
        grouped_report.wal_segments_sealed,
        grouped_report.wal_batch_bound,
    );
    if grouped_spends != cold_spends {
        eprintln!("FAIL: group commit changed per-tenant dollars");
        std::process::exit(1);
    }
    if grouped_report.wal_fsyncs == 0 || grouped_report.wal_fsyncs >= durable_report.wal_fsyncs {
        eprintln!(
            "FAIL: group commit did not reduce fsyncs ({} grouped vs {} per-record)",
            grouped_report.wal_fsyncs, durable_report.wal_fsyncs
        );
        std::process::exit(1);
    }
    if !smoke && durable_report.wal_fsyncs < 5 * grouped_report.wal_fsyncs {
        eprintln!("FAIL: group commit reduced fsyncs only {speedup:.1}x (< 5x)");
        std::process::exit(1);
    }

    // Warm restart of the grouped log: the replay walks sealed segments
    // before the tail and lands on the same per-tenant dollars.
    let grouped_warm = build_service(seed, true, Some(&grouped_dir), true, None, group, None);
    let grouped_recovery = grouped_warm.wal_recovery().expect("wal attached");
    println!(
        "group commit restart: replayed {} records from {} sealed segments + tail",
        grouped_recovery.replayed, grouped_recovery.sealed_segments,
    );
    if spend_bits(&grouped_warm) != cold_spends {
        eprintln!("FAIL: grouped restart diverged per-tenant dollars");
        std::process::exit(1);
    }
    if !smoke && grouped_recovery.sealed_segments == 0 {
        eprintln!("FAIL: full grouped soak sealed no segments");
        std::process::exit(1);
    }
    drop(grouped_warm);
    std::fs::remove_dir_all(&grouped_dir).expect("clean grouped dir");
}
