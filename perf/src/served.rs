//! `warm_serve` and `durable_serve`: `serve_soak`'s four-tenant
//! open-loop mix through `QueryService::serve`, in memory and with the
//! write path on.
//!
//! The two share their request streams and one configuration on purpose:
//! `durable_serve − warm_serve` is the ledger WAL, the periodic
//! checkpoints and the recovery they make possible, and nothing else.

use crate::host::Mark;
use crate::source::TimedSource;
use crate::spans::SpanLog;
use crate::trial::{
    dir_bytes, obs_counts, Counts, Digest, Restart, RuntimeBefore, Scratch, Sizes, Stretch, Trial,
    Workload,
};
use aida_core::{Context, Runtime, RuntimeBuilder};
use aida_obs::SloPolicy;
use aida_serve::{
    open_loop, LedgerWal, QueryRequest, QueryService, ReplaySource, ServeConfig, ServiceReport,
    TenantConfig, TenantLoad,
};
use aida_synth::{enron, legal, Workload as Lake};
use std::path::{Path, PathBuf};

/// `durable_serve` checkpoints state and cache every this many agentic
/// operators, like `serve_soak`'s durable phase.
const CHECKPOINT_EVERY: u64 = 16;

/// The four tenants, all funded: this workload measures steady state,
/// not load-shedding.
pub const TENANTS: [&str; 4] = ["acme", "bolt", "cora", "dara"];

pub fn register_tenants(svc: &mut QueryService) {
    svc.register_tenant(
        "acme",
        TenantConfig::weighted(2)
            .p99_latency(1200.0)
            .usd_per_query(1.0),
    );
    for tenant in ["bolt", "cora", "dara"] {
        svc.register_tenant(
            tenant,
            TenantConfig::default()
                .p99_latency(1200.0)
                .usd_per_query(1.0),
        );
    }
}

/// The serving configuration every served workload starts from: the
/// soak's health windows and SLO policy.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .health_window(60.0, 64)
        .slo_policy(SloPolicy {
            fast_window_s: 900.0,
            slow_window_s: 3600.0,
            ..SloPolicy::default()
        })
}

/// The runtime configuration every served workload starts from:
/// semantic cache 4096, Context capacity 256. State and cache paths are
/// always set so every workload can save at exit; only `durable_serve`
/// adds checkpoints while serving.
pub fn runtime_builder(seed: u64, dir: &Path, tracing: bool) -> RuntimeBuilder {
    Runtime::builder()
        .seed(seed)
        .context_capacity(256)
        .semantic_cache(4096)
        .tracing(tracing)
        .cache_path(dir.join("semcache.bin"))
        .state_path(dir.join("state.bin"))
}

/// `serve_soak`'s instruction mixes: each tenant cycles three questions
/// about its lake.
pub const LEGAL_MIX: [&str; 3] = [
    "find the number of identity theft reports in 2001",
    "find the number of identity theft reports in 2024",
    "find the number of identity theft reports in 2013",
];
pub const ENRON_MIX: [&str; 3] = [
    "find emails with firsthand discussion of the Raptor transaction",
    "find emails with firsthand discussion of the Chewco transaction",
    "find emails with firsthand discussion of the LJM transaction",
];

/// `serve_soak`'s four-tenant open-loop stream, `count` requests long.
///
/// Nothing is replayed untimed first. The mix has six distinct
/// questions and all are first asked within the first fourteen requests,
/// so any warm-up prefix that covers them leaves the timed region billing
/// exactly $0.00: `usd_per_query` would be zero, with no relative bound.
/// A service's ten first-time queries are one in twenty-five of its
/// stream at the full size.
fn requests(seed: u64, count: usize) -> Vec<QueryRequest> {
    let per_tenant = count.div_ceil(TENANTS.len());
    let load = |tenant, context, mix: [&str; 3], mean_gap_s, offset_s| {
        TenantLoad::new(tenant, context)
            .instructions(mix)
            .queries(per_tenant)
            .mean_interarrival(mean_gap_s)
            .offset(offset_s)
    };
    let loads = [
        load("acme", "legal", LEGAL_MIX, 120.0, 0.0),
        load("bolt", "legal", LEGAL_MIX, 150.0, 30.0),
        load("cora", "enron", ENRON_MIX, 150.0, 60.0),
        load("dara", "enron", ENRON_MIX, 120.0, 15.0),
    ];
    let mut stream = open_loop(seed, &loads);
    stream.truncate(count);
    stream
}

/// Per-tenant spend as bit patterns, for exact comparison across a
/// restart.
pub fn spend_bits(svc: &QueryService) -> Vec<(String, u64)> {
    svc.tenants()
        .spends()
        .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
        .collect()
}

/// Counts read from the `ServiceReport` of the timed `serve` call.
pub fn report_counts(report: &ServiceReport, queries: u64, counts: &mut Counts) {
    let admitted: u64 = report.tenants.values().map(|t| t.admitted).sum();
    let waits: Vec<f64> = report
        .completions
        .iter()
        .map(|c| c.queue_wait_s())
        .collect();
    counts.insert("serve.admitted", admitted as f64);
    counts.insert("serve.shed", report.sheds.len() as f64);
    counts.insert("serve.queue_depth_max", report.queue_depth.max());
    counts.insert(
        "serve.queue_wait_virt_s_p95",
        crate::stats::percentile(&waits, 0.95),
    );
    counts.insert("serve.scale_events", report.scale_events.len() as f64);
    counts.insert("serve.worker_seconds", report.worker_seconds);
    let net = report.net.clone().unwrap_or_default();
    counts.insert("serve.net.conns", net.stats.conns_opened as f64);
    counts.insert("serve.net.frames_in", net.stats.frames_in as f64);
    counts.insert("serve.net.frames_out", net.stats.frames_out as f64);
    counts.insert("serve.net.bytes_in", net.stats.bytes_in as f64);
    counts.insert(
        "serve.net.plan_hash_hit_ratio",
        if net.stats.frames_in == 0 {
            0.0
        } else {
            net.stats.plan_hash_hits as f64 / net.stats.frames_in as f64
        },
    );
    counts.insert("serve.net.wire_errors", net.stats.wire_error_total() as f64);
    counts.insert("serve.wal.appends", report.wal_appends as f64);
    counts.insert(
        "serve.wal.fsyncs_per_query",
        report.wal_fsyncs as f64 / queries.max(1) as f64,
    );
    counts.insert("serve.wal.group_flushes", report.wal_group_flushes as f64);
    counts.insert(
        "serve.wal.segments_sealed",
        report.wal_segments_sealed as f64,
    );
}

/// Serves `requests` through a [`TimedSource`] and turns what came back
/// into a [`Trial`] (set-up time is the caller's to fill in).
pub fn timed_serve(
    svc: &mut QueryService,
    source: &mut dyn aida_serve::RequestSource,
    log: &mut SpanLog,
    segment_queries: usize,
) -> (Trial, ServiceReport) {
    let before = RuntimeBefore::read(svc.runtime());
    let root = log.open("serve", None);
    let mut timed = TimedSource::new(source, log, segment_queries);
    let report = svc.serve(&mut timed);
    let (segments, samples, attempted, busy_ns) = timed.finish_timing();
    log.close(root);
    let wall_s: f64 = segments.iter().map(|s| s.stretch.wall_s).sum();

    let mut digest = Digest::default();
    for s in &samples {
        digest.flag(s.ok);
        digest.bits(s.usd);
        digest.bits(s.virt_s);
    }
    digest.text(&report.to_jsonl());

    let mut failures = Vec::new();
    let unanswered = samples.iter().filter(|s| !s.ok).count();
    if unanswered > 0 {
        failures.push(format!("{unanswered} served queries came back unanswered"));
    }
    if !report.sheds.is_empty() {
        failures.push(format!("{} requests were shed", report.sheds.len()));
    }
    if report.wal_failed {
        failures.push("the ledger WAL failed mid-run".to_string());
    }

    let mut counts = Counts::new();
    before.counts_since(svc.runtime(), wall_s, &mut counts);
    report_counts(&report, samples.len() as u64, &mut counts);
    counts.insert("serve.source_busy_share", busy_ns as f64 * 1e-9 / wall_s);
    let trial = Trial {
        setup: Stretch::default(),
        segments,
        attempted,
        samples,
        digest: digest.finish(),
        counts,
        failures,
    };
    (trial, report)
}

/// What a crash-stopped service must bring back.
pub struct Survives {
    /// Per-tenant spend bits, when a WAL carries them.
    pub spends: Option<Vec<(String, u64)>>,
    /// Contexts resident when the service stopped.
    pub contexts: usize,
}

/// Times crash-stop restarts of a served workload's services — one pass
/// rebuilds them all, `rebuild(k, ..)` the `k`th — and checks what came
/// back against `survives`: the recovered per-tenant dollars, the
/// Context count and a $0 re-materialisation bill. Each pass's services
/// are dropped before the next pass starts; the last are handed back so
/// the caller can ask them questions.
pub fn restart_passes(
    min_passes: usize,
    log: &mut SpanLog,
    survives: &[Survives],
    mut rebuild: impl FnMut(usize, &mut SpanLog) -> QueryService,
) -> (Restart, Vec<QueryService>) {
    let mut out = Restart::default();
    let mut last = Vec::new();
    while out.wants_pass(min_passes) {
        last.clear();
        last = out.timed_pass(survives.len(), |k| rebuild(k, log));
        let mut replayed = 0;
        for (svc, want) in last.iter().zip(survives) {
            if want.spends.as_ref().is_some_and(|s| spend_bits(svc) != *s) {
                out.failures
                    .push("restart recovered different per-tenant spend bits".to_string());
            }
            let respend = svc.runtime().cost();
            if respend != 0.0 {
                out.failures
                    .push(format!("restart spent ${respend} re-materialising state"));
            }
            let restored = svc.runtime().manager().len();
            if restored != want.contexts {
                out.failures.push(format!(
                    "restart restored {restored} Contexts, {} were resident",
                    want.contexts
                ));
            }
            replayed += svc.wal_recovery().map_or(0, |r| r.replayed);
        }
        out.counts.insert("serve.wal.replayed", replayed as f64);
    }
    (out, last)
}

/// Asks the six questions of the mix directly and returns the answers as
/// text. A `Completion` only says *that* a query was answered, so each
/// service ends its part of a trial with this probe and folds the
/// answers into the digest, and the restarted service must give the same
/// answers again.
fn probe(rt: &Runtime, contexts: &[Context; 2]) -> Vec<String> {
    let asked = LEGAL_MIX.iter().map(|i| (&contexts[0], i));
    asked
        .chain(ENRON_MIX.iter().map(|i| (&contexts[1], i)))
        .map(|(ctx, instruction)| {
            let answer = rt.query(ctx).compute(*instruction).run().answer;
            format!("{instruction} -> {answer:?}")
        })
        .collect()
}

/// `warm_serve` / `durable_serve`: one process holding
/// `Sizes::serve_lakes` independent services, one per lake pair, that
/// replay the soak's mix one after another.
///
/// One lake pair decides how many of the relevant emails the simulated
/// model keeps when the first email question narrows the Context, and
/// every later hit re-reads that Context: with a single service per
/// trial, work per query, dollars, state size and memory moved 8 to 16%
/// (quartile distance) from seed to seed whatever the host did, and the
/// driver saw 26%. The lakes cannot share a service, because Context
/// reuse matches on the instruction alone and two email lakes asked the
/// same question would answer from each other's materialisations.
pub struct Served {
    seed: u64,
    sizes: Sizes,
    durable: bool,
    scratch: Scratch,
    /// The last trial's services, kept for the end-of-run save and
    /// restart.
    last: Vec<Stopped>,
}

/// A service that has been set up, with the stream it is about to
/// serve.
struct Ready {
    svc: QueryService,
    contexts: [Context; 2],
    dir: PathBuf,
    stream: Vec<QueryRequest>,
}

/// A service that has served its stream, with its durable directory and
/// probe answers.
struct Stopped {
    svc: QueryService,
    dir: PathBuf,
    answers: Vec<String>,
}

impl Served {
    pub fn new(seed: u64, sizes: Sizes, durable: bool) -> Served {
        let label = if durable {
            "durable_serve"
        } else {
            "warm_serve"
        };
        Served {
            seed,
            sizes,
            durable,
            scratch: Scratch::new(label),
            last: Vec::new(),
        }
    }

    /// Service `k`'s seed: its lakes, its request stream and its
    /// simulated models all come from it. Runs at neighbouring `--seed`s
    /// share no lake, so an unusual lake shows in one run of ten, not in
    /// four.
    fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        let lakes = self.sizes.serve_lakes;
        (0..lakes).map(move |k| self.seed.wrapping_mul(lakes).wrapping_add(k))
    }

    /// Runtime + Contexts + tenants (+ WAL recovery when durable) over
    /// `dir`: the whole of one service's start except reading the lakes.
    fn build(
        &self,
        seed: u64,
        lakes: &(Lake, Lake),
        dir: &Path,
        tracing: bool,
        log: &mut SpanLog,
        phase: [&'static str; 3],
    ) -> (QueryService, [Context; 2]) {
        let span = log.open(phase[0], None);
        let mut builder = runtime_builder(seed, dir, tracing);
        if self.durable {
            builder = builder
                .checkpoint_interval(CHECKPOINT_EVERY)
                .delta_checkpoints(true);
        }
        let rt = builder.build();
        // `serve_soak` runs without oracles. Then the Enron questions are
        // answered by keyword overlap, and at five of seeds 1–12 the first
        // answer is empty, the Context is never narrowed and every later
        // hit scans all 250 emails: those seeds ran two to four times
        // slower than the rest. With oracles every seed has one structure.
        legal::register_oracle(&rt.env().llm);
        enron::register_oracle(&rt.env().llm);
        log.close(span);
        let span = log.open(phase[1], None);
        let contexts = [("legal", &lakes.0), ("enron", &lakes.1)].map(|(name, lake)| {
            Context::builder(name, lake.lake.clone())
                .description(lake.description.clone())
                .with_vector_index()
                .build(&rt)
        });
        log.close(span);
        let mut config = serve_config();
        if self.durable {
            config = config.group_commit(8);
        }
        let mut svc = QueryService::new(rt, config);
        for ctx in &contexts {
            svc.register_context(ctx.id.clone(), ctx.clone());
        }
        register_tenants(&mut svc);
        if self.durable {
            let span = log.open(phase[2], None);
            let wal = LedgerWal::open(dir.join("ledger.wal")).segment_records(32);
            svc.attach_wal(wal).expect("tenant-ledger WAL recovery");
            log.close(span);
        }
        (svc, contexts)
    }

    fn lakes(&self) -> Vec<(Lake, Lake)> {
        self.seeds()
            .map(|seed| (legal::generate(seed), enron::generate(seed)))
            .collect()
    }

    /// Everything before the timed region: the lakes, the request
    /// streams, the services, each over its own directory.
    fn set_up(&mut self, log: &mut SpanLog) -> (Stretch, Vec<Ready>) {
        self.last.clear();
        let root = self.scratch.fresh();
        let mark = Mark::now();
        let span = log.open("setup.synth", None);
        let lakes = self.lakes();
        let per_service = self.sizes.serve_requests / lakes.len();
        let streams: Vec<_> = self.seeds().map(|s| requests(s, per_service)).collect();
        log.close(span);
        let mut ready = Vec::new();
        for ((seed, lakes), stream) in self.seeds().zip(&lakes).zip(streams) {
            let dir = root.join(format!("s{}", ready.len()));
            std::fs::create_dir_all(&dir).expect("create service directory");
            let (svc, contexts) =
                self.build(seed, lakes, &dir, log.is_enabled(), log, SETUP_PHASES);
            ready.push(Ready {
                svc,
                contexts,
                dir,
                stream,
            });
        }
        (Stretch::since(&mark), ready)
    }
}

const SETUP_PHASES: [&str; 3] = [
    "setup.runtime_build",
    "setup.context_build",
    "setup.attach_wal",
];
const RESTART_PHASES: [&str; 3] = [
    "restart.build",
    "restart.context_build",
    "restart.attach_wal",
];

impl Workload for Served {
    fn setup(&mut self, log: &mut SpanLog) -> Stretch {
        self.set_up(log).0
    }

    fn trial(&mut self, log: &mut SpanLog) -> Trial {
        let (setup, ready) = self.set_up(log);
        let mut parts = Vec::new();
        for service in ready {
            let Ready {
                mut svc,
                contexts,
                dir,
                stream,
            } = service;
            let (mut part, _report) = timed_serve(
                &mut svc,
                &mut ReplaySource::new(stream),
                log,
                self.sizes.serve_segment,
            );
            obs_counts(svc.runtime(), part.samples.len() as u64, &mut part.counts);
            let answers = probe(svc.runtime(), &contexts);
            let mut digest = Digest::default();
            digest.word(part.digest);
            answers.iter().for_each(|a| digest.text(a));
            part.digest = digest.finish();
            parts.push(part);
            self.last.push(Stopped { svc, dir, answers });
        }
        let mut trial = Trial::joined(parts);
        trial.setup = setup;
        trial
    }

    fn restart(&mut self, log: &mut SpanLog) -> Restart {
        let stopped = std::mem::take(&mut self.last);
        assert!(!stopped.is_empty(), "restart follows a trial");
        let mut survives = Vec::new();
        let mut dirs = Vec::new();
        let mut answers = Vec::new();
        let mut durable_bytes = 0;
        for service in stopped {
            let rt = service.svc.runtime();
            let span = log.open("save_state", None);
            rt.save_state().expect("final state save");
            log.close(span);
            let span = log.open("save_cache", None);
            rt.save_cache().expect("final cache save");
            log.close(span);
            survives.push(Survives {
                spends: self.durable.then(|| spend_bits(&service.svc)),
                contexts: rt.manager().len(),
            });
            drop(service.svc); // crash-stop: nothing survives but the files
            durable_bytes += dir_bytes(&service.dir);
            dirs.push(service.dir);
            answers.push(service.answers);
        }

        let lakes = self.lakes();
        let seeds: Vec<u64> = self.seeds().collect();
        let mut rebuilt = Vec::new();
        let (mut restart, last) =
            restart_passes(self.sizes.restart_passes, log, &survives, |k, log| {
                let (svc, contexts) =
                    self.build(seeds[k], &lakes[k], &dirs[k], false, log, RESTART_PHASES);
                rebuilt.truncate(k);
                rebuilt.push(contexts);
                svc
            });
        for ((svc, contexts), answers) in last.iter().zip(&rebuilt).zip(&answers) {
            if probe(svc.runtime(), contexts) != *answers {
                restart.failures.push(
                    "a restarted service answers the mix's questions differently".to_string(),
                );
            }
        }
        restart.durable_bytes = durable_bytes;
        restart
    }
}
