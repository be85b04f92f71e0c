//! The query service: one shared [`Runtime`] multiplexed across tenants
//! by admission control and a virtual worker pool.
//!
//! # One dispatch thread, a virtual pool
//!
//! Every query executes inline on the thread that calls
//! [`QueryService::serve`], one at a time in dispatch order, so all
//! mutations of the shared runtime (clock, caches, ContextManager)
//! happen in a deterministic order. Concurrency is modeled in *virtual*
//! time instead: a [`Timeline`] places each query on the earliest-free
//! virtual worker, so queries overlap in the reported schedule exactly
//! as they would on an `N`-worker pool. The pool size is a parameter of
//! that model, never a count of host threads. Two runs of the same
//! workload produce byte-identical reports.

use crate::autoscale::{AutoscaleConfig, Autoscaler};
use crate::driver::{ReplaySource, RequestSource};
use crate::net::NetStats;
use crate::queue::AdmissionQueue;
use crate::report::{ServiceReport, TenantReport};
use crate::request::{Completion, QueryRequest, RejectReason, Shed};
use crate::tenant::{
    LedgerRecord, LedgerWal, Spend, TenantConfig, TenantLedger, WalRecovery, WalStats,
};
use crate::TenantId;
use aida_core::{Context, Runtime};
use aida_llm::snapshot::{Log, SnapshotError, StoreId};
use aida_llm::{CacheStats, ScheduledSlot, Timeline, UsageSnapshot};
use aida_obs::{registry, Event, Recorder, SeriesStore, SloPolicy, WindowSnapshot};
use std::collections::BTreeMap;

/// Service tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Virtual worker-pool size (minimum 1): how many queries may
    /// overlap in virtual time. Queries still execute one at a time on
    /// the dispatch thread.
    pub workers: usize,
    /// Admission-queue bound across all tenants (minimum 1).
    pub queue_capacity: usize,
    /// Health-series slot width in virtual seconds.
    pub health_slot_s: f64,
    /// Health-series ring length; `health_slot_s * health_slots` is the
    /// longest trailing window the health layer can answer, so it must
    /// cover `slo_policy.slow_window_s`.
    pub health_slots: usize,
    /// Burn-rate evaluation windows and alert threshold.
    pub slo_policy: SloPolicy,
    /// Group-commit batch bound: ledger records are staged in the log and
    /// committed under one fsync once this many accumulate at a query's
    /// spend record (an admission waits for the next one), with the
    /// runtime's next checkpoint, whichever comes first, and at end of
    /// run. `0` or `1` keeps per-record durability. The bound is also
    /// the crash-staleness guarantee: the durable ledger's spend trails
    /// the in-memory one by at most this many records.
    pub group_commit: usize,
    /// Latency-targeted autoscaling of the virtual worker pool. When
    /// set, the virtual pool's capacity is `autoscale.max_workers` and
    /// the controller resizes its *active* prefix between the
    /// configured bounds; `workers` becomes the initial pool size.
    /// `None` keeps the fixed pool.
    pub autoscale: Option<AutoscaleConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            health_slot_s: 10.0,
            health_slots: 64,
            slo_policy: SloPolicy::default(),
            group_commit: 0,
            autoscale: None,
        }
    }
}

impl ServeConfig {
    /// A config with the given worker-pool size.
    pub fn with_workers(workers: usize) -> ServeConfig {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }

    /// Sets the admission-queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the health-series slot geometry.
    pub fn health_window(mut self, slot_s: f64, slots: usize) -> ServeConfig {
        self.health_slot_s = slot_s;
        self.health_slots = slots;
        self
    }

    /// Sets the SLO burn-rate policy.
    pub fn slo_policy(mut self, policy: SloPolicy) -> ServeConfig {
        self.slo_policy = policy;
        self
    }

    /// Sets the group-commit batch bound (0 or 1 = per-record fsync).
    pub fn group_commit(mut self, records: usize) -> ServeConfig {
        self.group_commit = records;
        self
    }

    /// Enables latency-targeted autoscaling of the worker pool.
    pub fn autoscale(mut self, config: AutoscaleConfig) -> ServeConfig {
        self.autoscale = Some(config);
        self
    }
}

/// Completions between background-ops hooks: the ledger's compaction
/// check runs every `OPS_INTERVAL`-th completion, off the per-query path.
const OPS_INTERVAL: u64 = 16;

/// The ledger's side of one run. Records are staged in the ledger's log,
/// which commits them once [`ServeConfig::group_commit`] are waiting or
/// with the runtime's next checkpoint, whichever comes first, so the
/// durable ledger trails memory by at most one group of records.
struct WalPipeline<'a> {
    wal: &'a mut LedgerWal,
    group_commit: usize,
    /// Completions since the run began, driving the ops-interval hook.
    completions: u64,
}

impl<'a> WalPipeline<'a> {
    fn new(wal: &'a mut LedgerWal, group_commit: usize) -> WalPipeline<'a> {
        wal.set_group_commit(group_commit);
        WalPipeline {
            wal,
            group_commit,
            completions: 0,
        }
    }

    /// Logs one completion's combined spend record and runs the
    /// ops-interval hook: background compaction, off the per-query path.
    /// Returns the fatal `(counter, detail)` pair when durability failed
    /// and dispatch must stop.
    fn settle_spend(
        &mut self,
        report: &mut ServiceReport,
        recorder: &Recorder,
        tenants: &TenantLedger,
        tenant: &TenantId,
        record: LedgerRecord,
    ) -> Option<(&'static str, String)> {
        if let Err(e) = self.wal.append(&record) {
            let detail = format!("spend record for tenant {tenant} failed: {e}");
            return Some((registry::WAL_APPEND_ERRORS, detail));
        }
        self.completions += 1;
        if !self.wal.compaction_due() {
            return None;
        }
        if !self.completions.is_multiple_of(OPS_INTERVAL) {
            // Due but not at an ops boundary: count the deferral instead
            // of paying the snapshot rewrite on the query path.
            report.wal_compactions_deferred += 1;
            recorder.counter_add(registry::WAL_COMPACTIONS_DEFERRED, 1);
            return None;
        }
        if let Err(e) = self.wal.compact(tenants) {
            let detail = format!("ledger compaction failed: {e}");
            return Some((registry::WAL_COMPACTION_ERRORS, detail));
        }
        report.wal_compactions += 1;
        recorder.counter_add(registry::WAL_COMPACTIONS, 1);
        None
    }
}

/// The autoscaling controller plus the worker-seconds integral it
/// drives: `Σ active(t) dt`, advanced at every scale move and closed
/// out at the makespan. A fixed pool integrates to `workers * makespan`.
struct PoolController {
    scaler: Option<(Autoscaler, aida_obs::SlidingWindow)>,
    worker_seconds: f64,
    active: usize,
    last_t: f64,
}

impl PoolController {
    fn new(config: Option<AutoscaleConfig>, initial_active: usize) -> PoolController {
        // The controller reads the same windowed-p99 signal the health
        // layer reports on, fed live at completion instants.
        let scaler = config.map(|cfg| {
            let slot_s = (cfg.evaluate_every_s / 2.0).max(1e-9);
            let span_s = cfg.window_s.max(cfg.policy.slow_window_s) * 2.0;
            let slots = ((span_s / slot_s).ceil() as usize).clamp(8, 16384);
            let window = aida_obs::SlidingWindow::new(slot_s, slots);
            (Autoscaler::new(cfg, initial_active), window)
        });
        PoolController {
            scaler,
            worker_seconds: 0.0,
            active: initial_active,
            last_t: 0.0,
        }
    }

    /// Evaluates the controller at a dispatch instant and commits any
    /// move: resizes the timeline's active prefix, advances the
    /// worker-seconds integral, and records the typed scale event on
    /// every surface (report, counters, gauge, event stream).
    fn observe(
        &mut self,
        now: f64,
        queue_depth: usize,
        timeline: &mut Timeline,
        report: &mut ServiceReport,
        recorder: &Recorder,
    ) {
        let Some((scaler, window)) = self.scaler.as_mut() else {
            return;
        };
        let Some(event) = scaler.observe(now, window, queue_depth) else {
            return;
        };
        self.worker_seconds += self.active as f64 * (event.at_s - self.last_t);
        self.last_t = event.at_s;
        self.active = event.to;
        timeline.set_active(event.to);
        recorder.counter_add(
            if event.direction() == "up" {
                registry::AUTOSCALE_UPS
            } else {
                registry::AUTOSCALE_DOWNS
            },
            1,
        );
        recorder.gauge_set(registry::SERVE_WORKERS, event.at_s, event.to as f64);
        recorder.event(Event::Scale {
            at_s: event.at_s,
            from: event.from as u64,
            to: event.to as u64,
            p99_s: event.p99_s,
            fast_burn: event.fast_burn,
            slow_burn: event.slow_burn,
        });
        report.scale_events.push(event);
    }

    /// Feeds one completion's latency into the controller's window.
    fn record_latency(&mut self, end_s: f64, latency_s: f64) {
        if let Some((_, window)) = self.scaler.as_mut() {
            window.record(end_s, latency_s);
        }
    }

    /// Closes out the integral at the end of the run.
    fn total_worker_seconds(&self, end_t: f64) -> f64 {
        self.worker_seconds + self.active as f64 * (end_t.max(self.last_t) - self.last_t)
    }
}

/// What the shared runtime's counters read at one instant: just before
/// a query ran (its duration and reuse counts are differences from it),
/// or when the run began (the report's totals are differences from it).
/// A query's spend is not among them: it is the query's receipt.
struct Probe {
    clock_s: f64,
    reuse: (u64, u64),
    cache: Option<CacheStats>,
}

impl Probe {
    fn read(runtime: &Runtime) -> Probe {
        Probe {
            clock_s: runtime.clock().now(),
            reuse: runtime.reuse_stats(),
            cache: runtime.cache_stats(),
        }
    }
}

/// One [`QueryService::serve`] call's state outside the scheduler: the
/// service's borrowed halves (the runtime is shared, the ledger
/// mutated), the commit pipeline, the report being built, and what the
/// runtime's counters read when the run began.
struct Dispatcher<'a> {
    runtime: &'a Runtime,
    contexts: &'a BTreeMap<String, Context>,
    tenants: &'a mut TenantLedger,
    wal: Option<WalPipeline<'a>>,
    report: ServiceReport,
    start: Probe,
    evictions_before: u64,
    wal_before: WalStats,
}

impl<'a> Dispatcher<'a> {
    fn new(service: &'a mut QueryService, workers: usize) -> Dispatcher<'a> {
        let mut report = ServiceReport {
            workers,
            wal_replayed: service.wal_recovery.map_or(0, |r| r.replayed),
            ..ServiceReport::default()
        };
        for (tenant, _) in service.tenants.tenants() {
            report.tenants.entry(tenant.clone()).or_default();
        }
        let runtime = &service.runtime;
        let config = &service.config;
        Dispatcher {
            runtime,
            contexts: &service.contexts,
            tenants: &mut service.tenants,
            wal_before: service.wal.as_ref().map(|w| w.stats()).unwrap_or_default(),
            wal: (service.wal.as_mut()).map(|w| WalPipeline::new(w, config.group_commit)),
            report,
            start: Probe::read(runtime),
            evictions_before: runtime.manager().evictions(),
        }
    }

    fn sample_depth(&mut self, t: f64, depth: usize) {
        self.report.queue_depth.set(t, depth as f64);
        let recorder = self.runtime.recorder();
        recorder.gauge_set(registry::SERVE_QUEUE_DEPTH, t, depth as f64);
    }

    fn row(&mut self, tenant: &TenantId) -> &mut TenantReport {
        self.report.tenants.entry(tenant.clone()).or_default()
    }

    /// Marks the run WAL-failed and records the error. Dispatch stops
    /// after this — crash semantics: the durable log trails the
    /// in-memory ledger by at most one batch of records.
    fn wal_fatal(&mut self, counter: &'static str, detail: String) {
        let recorder = self.runtime.recorder();
        recorder.counter_add(counter, 1);
        recorder.event(Event::Error {
            counter: counter.to_string(),
            detail,
        });
        self.report.wal_failed = true;
    }

    /// Records one rejection: the typed shed reaches the source (so a
    /// live client hears about it over the wire), the tenant's shed
    /// counter, and the report's rejection log.
    fn shed(
        &mut self,
        source: &mut dyn RequestSource,
        seq: u64,
        tenant: TenantId,
        at_s: f64,
        reason: RejectReason,
    ) {
        *self.row(&tenant).shed.entry(reason.kind()).or_insert(0) += 1;
        let shed = Shed {
            seq,
            tenant,
            at_s,
            reason,
        };
        source.on_shed(&shed);
        self.report.sheds.push(shed);
    }

    /// The admission check: known tenant, known Context, quota headroom,
    /// queue bound. `Ok` means the request is in the queue.
    fn admission(
        &self,
        queue: &mut AdmissionQueue,
        request: QueryRequest,
    ) -> Result<(), RejectReason> {
        if !self.tenants.knows(&request.tenant) {
            Err(RejectReason::UnknownTenant)
        } else if !self.contexts.contains_key(&request.context) {
            Err(RejectReason::UnknownContext {
                name: request.context.clone(),
            })
        } else if let Some(reason) = self.tenants.over_quota(&request.tenant) {
            Err(reason)
        } else {
            queue.push(request)
        }
    }

    /// Admits one arrival into the queue (logging its admit record) or
    /// sheds it, then samples the queue depth at its arrival instant.
    /// `false` means the WAL failed and dispatch must stop.
    fn admit_or_shed(
        &mut self,
        source: &mut dyn RequestSource,
        queue: &mut AdmissionQueue,
        request: QueryRequest,
    ) -> bool {
        let at_s = request.arrival_s;
        let tenant = request.tenant.clone();
        let seq = request.seq;
        self.row(&tenant).submitted += 1;
        match self.admission(queue, request) {
            Ok(()) => {
                self.row(&tenant).admitted += 1;
                source.on_admitted(seq, &tenant, at_s);
                if let Some(p) = self.wal.as_mut() {
                    let record = LedgerRecord::Admit {
                        tenant: tenant.clone(),
                    };
                    if let Err(e) = p.wal.append(&record) {
                        let detail = format!("admit record for tenant {tenant} failed: {e}");
                        self.wal_fatal(registry::WAL_APPEND_ERRORS, detail);
                        return false;
                    }
                }
            }
            Err(reason) => self.shed(source, seq, tenant, at_s, reason),
        }
        self.sample_depth(at_s, queue.depth());
        true
    }

    /// The dispatch-time re-checks, in order: the queue wait may have
    /// blown the deadline; earlier dispatches may have exhausted the
    /// tenant's quota. `Ok` is the Context to run on (admission already
    /// found it; were it missing, the request would be shed, not the
    /// loop aborted).
    fn dispatch_check(
        &self,
        request: &QueryRequest,
        dispatch_t: f64,
    ) -> Result<&'a Context, RejectReason> {
        let waited_s = dispatch_t - request.arrival_s;
        if let Some(deadline_s) = request.deadline_s.filter(|d| waited_s > *d) {
            return Err(RejectReason::DeadlineExpired {
                waited_s,
                deadline_s,
            });
        }
        if let Some(reason) = self.tenants.over_quota(&request.tenant) {
            return Err(reason);
        }
        self.contexts
            .get(&request.context)
            .ok_or_else(|| RejectReason::UnknownContext {
                name: request.context.clone(),
            })
    }

    /// Settles one executed query: charges what its receipt billed to its
    /// tenant, logs one combined spend record (the charge and its cache
    /// credit land atomically or not at all, so recovery never sees a
    /// half-applied spend), and builds the completion. `None` means the
    /// WAL failed and dispatch must stop.
    fn settle_query(
        &mut self,
        request: &QueryRequest,
        probe: &Probe,
        receipt: &UsageSnapshot,
        slot: ScheduledSlot,
        answered: bool,
    ) -> Option<Completion> {
        let runtime = self.runtime;
        let spend = Spend::of(receipt, runtime.env().llm.catalog());
        let (hits, misses) = runtime.reuse_stats();
        let tenant = &request.tenant;
        self.tenants.charge(tenant, spend);
        if let Some(p) = self.wal.as_mut() {
            let record = LedgerRecord::Spend {
                tenant: tenant.clone(),
                usd: spend.usd,
                tokens: spend.tokens,
                calls: spend.calls,
                cache_hits: spend.cache_hits,
                cache_coalesced: spend.cache_coalesced,
            };
            let recorder = runtime.recorder();
            let failed = p.settle_spend(&mut self.report, recorder, self.tenants, tenant, record);
            if let Some((counter, detail)) = failed {
                self.wal_fatal(counter, detail);
                return None;
            }
        }
        Some(Completion {
            seq: request.seq,
            tenant: tenant.clone(),
            worker: slot.worker,
            submitted_s: request.submitted_s,
            arrival_s: request.arrival_s,
            // Admission happened at the arrival instant (the admission
            // sweep runs every arrival up to the dispatch cursor at its
            // own arrival time).
            admit_s: request.arrival_s,
            start_s: slot.start_s,
            end_s: slot.end_s,
            cost_usd: spend.usd,
            tokens: spend.tokens,
            llm_calls: spend.calls,
            reuse_hits: hits - probe.reuse.0,
            reuse_misses: misses - probe.reuse.1,
            cache_hits: spend.cache_hits,
            cache_coalesced: spend.cache_coalesced,
            cache_misses: receipt.cache_misses,
            answered,
        })
    }

    /// Ends the run: drains the commit buffer so every acknowledged
    /// record is durable before the report is trusted, then fills in
    /// the run's reuse, cache and WAL totals and mirrors them into the
    /// registry.
    fn settle_run(mut self) -> ServiceReport {
        let (runtime, recorder) = (self.runtime, self.runtime.recorder());
        if let Some(p) = self.wal.as_mut().filter(|_| !self.report.wal_failed) {
            if let Err(e) = p.wal.flush() {
                let detail = format!("end-of-run group flush failed: {e}");
                self.wal_fatal(registry::WAL_APPEND_ERRORS, detail);
            }
        }
        let report = &mut self.report;
        let (hits, misses) = runtime.reuse_stats();
        report.reuse_hits = hits - self.start.reuse.0;
        report.reuse_misses = misses - self.start.reuse.1;
        report.evictions = runtime.manager().evictions() - self.evictions_before;
        if let Some(after) = runtime.cache_stats() {
            let delta = match &self.start.cache {
                Some(before) => after.delta_since(before),
                None => after,
            };
            report.cache_hits = delta.hits;
            report.cache_coalesced = delta.coalesced;
            report.cache_misses = delta.misses;
            report.cache_bytes = Some(after.bytes);
        }
        if let Some(p) = &self.wal {
            let (stats, before) = (p.wal.stats(), &self.wal_before);
            report.wal_appends = stats.ledger_records - before.ledger_records;
            report.wal_fsyncs = stats.fsyncs - before.fsyncs;
            report.wal_group_flushes = stats.ledger_commits - before.ledger_commits;
            report.wal_segments_sealed = stats.rolls - before.rolls;
            report.wal_batch_bound = p.group_commit.max(1) as u64;
            recorder.counter_add(registry::WAL_APPENDS, report.wal_appends);
            recorder.counter_add(registry::WAL_FSYNCS, report.wal_fsyncs);
            recorder.counter_add(registry::WAL_GROUP_FLUSHES, report.wal_group_flushes);
            recorder.counter_add(registry::WAL_SEGMENTS_SEALED, report.wal_segments_sealed);
        }
        self.report
    }
}

/// Mirrors the front door's wire counters, and its plan memo's, into the
/// registry.
fn mirror_net_counters(recorder: &Recorder, stats: &NetStats) {
    recorder.counter_add(registry::NET_CONNS_OPENED, stats.conns_opened);
    recorder.counter_add(registry::NET_CONNS_CLOSED, stats.conns_closed);
    recorder.counter_add(registry::NET_FRAMES_IN, stats.frames_in);
    recorder.counter_add(registry::NET_FRAMES_OUT, stats.frames_out);
    recorder.counter_add(registry::NET_BYTES_IN, stats.bytes_in);
    recorder.counter_add(registry::NET_BYTES_OUT, stats.bytes_out);
    recorder.counter_add(registry::NET_PLAN_HASH_HITS, stats.plan_hash_hits);
    recorder.counter_add(registry::NET_WIRE_ERRORS, stats.wire_error_total());
    stats
        .plans
        .for_each_counter(|name, n| recorder.counter_add(&name, n));
}

/// A multi-tenant query service over one shared [`Runtime`].
///
/// All tenants share the runtime's [`ContextManager`], so Contexts
/// materialized answering one tenant's query can satisfy or narrow
/// another tenant's — the headline win of serving from a shared runtime
/// instead of per-tenant isolation.
///
/// [`ContextManager`]: aida_core::ContextManager
pub struct QueryService {
    runtime: Runtime,
    config: ServeConfig,
    contexts: BTreeMap<String, Context>,
    tenants: TenantLedger,
    wal: Option<LedgerWal>,
    wal_recovery: Option<WalRecovery>,
}

impl QueryService {
    /// Creates a service over a runtime.
    pub fn new(runtime: Runtime, config: ServeConfig) -> QueryService {
        QueryService {
            runtime,
            config,
            contexts: BTreeMap::new(),
            tenants: TenantLedger::new(),
            wal: None,
            wal_recovery: None,
        }
    }

    /// Attaches the tenant ledger's store: recovers the ledger's spend
    /// state from disk (its snapshot + the ledger records of the log
    /// after it), then logs every admit and every completed query's
    /// spend durably. When the runtime has a log ([`Runtime::log`]) the
    /// ledger joins it, and `wal`'s path only names the ledger's
    /// snapshots. Call after registering tenants so recovered spend
    /// meets its quota configs.
    pub fn attach_wal(&mut self, mut wal: LedgerWal) -> Result<WalRecovery, SnapshotError> {
        match (self.runtime.log(), self.runtime.log_path()) {
            (Some(log), _) => wal = wal.join(log),
            // A delta-mode run kept the ledger in the runtime's log; its
            // own log would start every tenant at zero spend.
            (None, Some(base)) if Log::open(base).holds(StoreId::Ledger)? => {
                let msg = format!("the ledger is in the runtime's log at {}", base.display());
                return Err(SnapshotError::Format(msg));
            }
            (None, _) => {}
        }
        let recovery = wal.recover(&mut self.tenants)?;
        let recorder = self.runtime.recorder();
        recorder.counter_add(registry::WAL_REPLAYED_RECORDS, recovery.replayed);
        recorder.counter_add(registry::WAL_SKIPPED_RECORDS, recovery.skipped);
        if recovery.dropped_tail {
            recorder.counter_add(registry::WAL_DROPPED_TAILS, 1);
        }
        if recovery.snapshot_loaded
            || recovery.replayed > 0
            || recovery.skipped > 0
            || recovery.dropped_tail
        {
            recorder.flight(
                "serve.wal",
                "recovery",
                format!(
                    "snapshot_loaded {} replayed {} skipped {} dropped_tail {}",
                    recovery.snapshot_loaded,
                    recovery.replayed,
                    recovery.skipped,
                    recovery.dropped_tail
                ),
            );
            recorder.flight_autodump("wal_recovery");
        }
        self.wal = Some(wal);
        self.wal_recovery = Some(recovery);
        Ok(recovery)
    }

    /// What [`QueryService::attach_wal`] recovered, if a WAL is attached.
    pub fn wal_recovery(&self) -> Option<WalRecovery> {
        self.wal_recovery
    }

    /// Registers a named Context that requests may target.
    pub fn register_context(&mut self, name: impl Into<String>, ctx: Context) {
        self.contexts.insert(name.into(), ctx);
    }

    /// Registers a tenant with its weight and quotas. Requests from
    /// unregistered tenants are shed with [`RejectReason::UnknownTenant`].
    pub fn register_tenant(&mut self, tenant: impl Into<TenantId>, config: TenantConfig) {
        self.tenants.register(tenant.into(), config);
    }

    /// The shared runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// The tenant ledger (configs + attributed spend). Spend accumulates
    /// across [`QueryService::run`] calls, so quotas span a service's
    /// whole lifetime.
    pub fn tenants(&self) -> &TenantLedger {
        &self.tenants
    }

    /// Serves a workload to completion and reports what happened.
    ///
    /// Requests are replayed open-loop by virtual arrival instant. Each
    /// is admission-checked (known tenant, known Context, quota, queue
    /// bound), queued, dispatched under weighted round-robin with
    /// per-tenant priorities, re-checked (deadline, quota) at dispatch,
    /// executed inline, and placed on the virtual worker pool.
    pub fn run(&mut self, requests: Vec<QueryRequest>) -> ServiceReport {
        let mut source = ReplaySource::new(requests);
        self.serve(&mut source)
    }

    /// Serves whatever a [`RequestSource`] produces — batch replay or
    /// the live front door — through one dispatch loop and one report
    /// path. Admission verdicts and completions flow back to the source
    /// through its callbacks, so a live source can answer its clients
    /// over the wire at the exact virtual instants the scheduler
    /// decided them.
    pub fn serve(&mut self, source: &mut dyn RequestSource) -> ServiceReport {
        let initial_workers = self.config.workers.max(1);
        let autoscale_cfg = self.config.autoscale.clone();
        // With an autoscaler the virtual pool's capacity is the max
        // bound and the controller resizes the *active* prefix of the
        // timeline; without one, active == capacity == `workers`.
        let (capacity, initial_active) = match &autoscale_cfg {
            Some(ac) => (
                ac.max_workers,
                initial_workers.clamp(ac.min_workers, ac.max_workers),
            ),
            None => (initial_workers, initial_workers),
        };
        let mut timeline = Timeline::new(capacity);
        timeline.set_active(initial_active);
        let mut pool = PoolController::new(autoscale_cfg, initial_active);
        let mut queue = AdmissionQueue::new(self.config.queue_capacity);
        for (tenant, config) in self.tenants.tenants() {
            queue.set_weight(tenant.clone(), config);
        }
        let mut run = Dispatcher::new(self, capacity);

        // The scheduler's virtual cursor: monotone, so admission and
        // dispatch instants never run backwards.
        let mut now = 0.0_f64;
        'dispatch: loop {
            if queue.is_empty() {
                match source.next_arrival() {
                    Some(next) => now = now.max(next),
                    None => break,
                }
            }
            // The controller evaluates at dispatch instants — the only
            // points virtual time moves — on the live latency window and
            // current queue depth.
            let (depth, recorder) = (queue.depth(), run.runtime.recorder());
            pool.observe(now, depth, &mut timeline, &mut run.report, recorder);
            // With a backlog, the next dispatch happens when a worker
            // frees up; arrivals up to that instant compete in the same
            // WRR round (arrivals at exactly the dispatch instant are
            // admitted before the pop).
            let dispatch_t = now.max(timeline.next_free());
            while let Some(request) = source.pop(dispatch_t) {
                if !run.admit_or_shed(source, &mut queue, request) {
                    break 'dispatch;
                }
            }
            now = dispatch_t;
            let Some(request) = queue.pop() else {
                continue;
            };
            run.sample_depth(dispatch_t, queue.depth());
            let ctx = match run.dispatch_check(&request, dispatch_t) {
                Ok(ctx) => ctx,
                Err(reason) => {
                    run.shed(source, request.seq, request.tenant, dispatch_t, reason);
                    continue;
                }
            };
            // Execute first, then place: worker choice does not depend
            // on the duration, which only executing reveals.
            let probe = Probe::read(run.runtime);
            let outcome = run.runtime.query(ctx).compute(&request.instruction).run();
            let duration_s = (run.runtime.clock().now() - probe.clock_s).max(0.0);
            let slot = timeline.schedule(dispatch_t, duration_s);
            let answered = outcome.answer.is_some();
            let receipt = &outcome.receipt;
            let Some(completion) = run.settle_query(&request, &probe, receipt, slot, answered)
            else {
                break;
            };
            pool.record_latency(completion.end_s, completion.latency_s());
            source.on_completion(&completion);
            run.report.settle(completion);
        }
        let mut report = run.settle_run();
        report.makespan_s = timeline.makespan();
        report.worker_seconds = pool.total_worker_seconds(report.makespan_s);
        report.total_cost_usd = report.tenants.values().map(|t| t.cost_usd).sum();
        self.evaluate_health(&mut report);
        // Let the source drain its in-flight responses and write its
        // summary (front-door stats, client outcomes), then mirror the
        // wire counters into the registry.
        source.finish(&mut report);
        if let Some(net) = &report.net {
            mirror_net_counters(self.runtime.recorder(), &net.stats);
        }
        report
    }

    /// Replays the run's completions and queue-depth samples into the
    /// windowed health series, evaluates every tenant's SLO targets at
    /// end of run, and records the verdicts (report rows, `slo.alerts`
    /// counter, flight-recorder notes) — the runtime-health layer.
    fn evaluate_health(&self, report: &mut ServiceReport) {
        let policy = self.config.slo_policy;
        let mut series = SeriesStore::new(
            self.config.health_slot_s.max(f64::MIN_POSITIVE),
            self.config.health_slots.max(1),
        );
        // Completions arrive in dispatch order; their end instants are
        // not monotone across workers, so feed the ring in time order.
        let mut by_end: Vec<&Completion> = report.completions.iter().collect();
        by_end.sort_by(|a, b| a.end_s.total_cmp(&b.end_s).then(a.seq.cmp(&b.seq)));
        for c in by_end {
            let tenant = c.tenant.as_str();
            let key = |name: &str| registry::tenant_series(name, tenant);
            series.record(&key(registry::HEALTH_LATENCY_S), c.end_s, c.latency_s());
            series.record(&key(registry::HEALTH_COST_USD), c.end_s, c.cost_usd);
            series.record(
                &key(registry::HEALTH_QUEUE_WAIT_S),
                c.end_s,
                c.queue_wait_s(),
            );
            let hit = if c.cache_hits + c.cache_coalesced > 0 {
                1.0
            } else {
                0.0
            };
            series.record(&key(registry::HEALTH_CACHE_HIT), c.end_s, hit);
        }
        for (t, depth) in &report.queue_depth.samples {
            series.record(registry::HEALTH_QUEUE_DEPTH, *t, *depth);
        }

        // Sheds can land after the last completion, so "now" is the
        // latest instant any series saw.
        let now_s = report
            .queue_depth
            .samples
            .last()
            .map(|(t, _)| *t)
            .unwrap_or(0.0)
            .max(report.makespan_s);
        let window_s = policy.slow_window_s;
        let span_s = series.slot_s() * series.slots() as f64;
        let empty = WindowSnapshot {
            window_s: window_s.min(span_s),
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
        };

        let tenant_ids: Vec<TenantId> = report.tenants.keys().cloned().collect();
        for tenant in tenant_ids {
            let name = tenant.as_str();
            let key = |metric: &str| registry::tenant_series(metric, name);
            let latency = series.series(&key(registry::HEALTH_LATENCY_S));
            let cost = series.series(&key(registry::HEALTH_COST_USD));
            let queue_wait = series.series(&key(registry::HEALTH_QUEUE_WAIT_S));
            let target = self.tenants.config(&tenant).slo;
            let verdict = aida_obs::slo::evaluate(name, &target, latency, cost, now_s, &policy);
            let snap = |w: Option<&aida_obs::SlidingWindow>| {
                w.map(|w| w.snapshot(now_s, window_s))
                    .unwrap_or_else(|| empty.clone())
            };
            let cache_hit_rate = series
                .series(&key(registry::HEALTH_CACHE_HIT))
                .map(|w| w.mean_in(now_s, window_s))
                .unwrap_or(0.0);
            report.health.push(crate::report::TenantHealth {
                tenant: tenant.clone(),
                latency: snap(latency),
                cost: snap(cost),
                queue_wait: snap(queue_wait),
                cache_hit_rate,
                slo: verdict,
            });
        }
        report.queue_depth_health = series
            .series(registry::HEALTH_QUEUE_DEPTH)
            .map(|w| w.snapshot(now_s, window_s));
        report.slo_alerts = report.health.iter().filter(|h| h.slo.alerting).count() as u64;

        let recorder = self.runtime.recorder();
        recorder.counter_add(registry::SLO_ALERTS, report.slo_alerts);
        if report.slo_alerts > 0 {
            for h in report.health.iter().filter(|h| h.slo.alerting) {
                let kinds: Vec<&str> = h
                    .slo
                    .burns
                    .iter()
                    .filter(|b| b.alerting)
                    .map(|b| b.kind.name())
                    .collect();
                recorder.flight(
                    "serve.slo",
                    "slo_alert",
                    format!(
                        "tenant {}: {} burning over threshold {}",
                        h.tenant,
                        kinds.join("+"),
                        policy.burn_threshold
                    ),
                );
            }
            recorder.flight_autodump("slo_alert");
        }
    }

    /// What the same submitted workload costs through **isolated**
    /// per-tenant runtimes (same seed and config, no shared
    /// ContextManager): the baseline for the shared-runtime comparison.
    /// Every request executes serially in its tenant's own runtime —
    /// within-tenant reuse still applies, cross-tenant reuse cannot.
    pub fn isolated_cost(&self, requests: &[QueryRequest]) -> f64 {
        let mut by_tenant: BTreeMap<&TenantId, Vec<&QueryRequest>> = BTreeMap::new();
        for request in requests {
            by_tenant.entry(&request.tenant).or_default().push(request);
        }
        let mut total = 0.0;
        for (_, mut tenant_requests) in by_tenant {
            tenant_requests
                .sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.seq.cmp(&b.seq)));
            let rt = Runtime::builder()
                .config(self.runtime.config().clone())
                .build();
            for request in tenant_requests {
                let Some(ctx) = self.contexts.get(&request.context) else {
                    continue;
                };
                let _ = rt.query(ctx).compute(&request.instruction).run();
            }
            total += rt.cost();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::{DataLake, Document};

    fn lake() -> DataLake {
        DataLake::from_docs([
            Document::new("report_2001.txt", "identity theft reports in 2001: 86250"),
            Document::new("report_2002.txt", "identity theft reports in 2002: 161977"),
        ])
    }

    fn service(workers: usize, queue_capacity: usize) -> QueryService {
        let rt = Runtime::builder().seed(7).build();
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let mut svc = QueryService::new(
            rt,
            ServeConfig {
                workers,
                queue_capacity,
                ..ServeConfig::default()
            },
        );
        svc.register_context("reports", ctx);
        svc
    }

    #[test]
    fn serves_a_tiny_workload_end_to_end() {
        let mut svc = service(2, 8);
        svc.register_tenant("acme", TenantConfig::default());
        svc.register_tenant("bolt", TenantConfig::default());
        let requests = vec![
            {
                let mut r = QueryRequest::new("acme", "reports", "count identity theft in 2001");
                r.seq = 0;
                r
            },
            {
                let mut r =
                    QueryRequest::new("bolt", "reports", "count identity theft in 2002").at(1.0);
                r.seq = 1;
                r
            },
        ];
        let report = svc.run(requests);
        assert_eq!(report.completions.len(), 2);
        assert!(report.sheds.is_empty());
        assert!(report.total_cost_usd > 0.0);
        assert!(report.makespan_s > 0.0);
        // Both tenants were charged.
        assert!(svc.tenants().spend(&"acme".into()).usd > 0.0);
        assert!(svc.tenants().spend(&"bolt".into()).usd > 0.0);
        // The dashboard renders.
        assert!(report.render().contains("acme"));
    }

    #[test]
    fn the_worker_pool_is_virtual_not_a_thread_count() {
        // A pool no host could back with threads: `workers` sizes the
        // virtual timeline only, and both queries still overlap on it.
        let mut svc = service(100_000, 8);
        svc.register_tenant("acme", TenantConfig::default());
        let requests: Vec<QueryRequest> = (0..2)
            .map(|i| {
                let mut r = QueryRequest::new("acme", "reports", format!("count theft in 200{i}"));
                r.seq = i;
                r
            })
            .collect();
        let report = svc.run(requests);
        assert_eq!(report.workers, 100_000);
        let workers: Vec<usize> = report.completions.iter().map(|c| c.worker).collect();
        assert_eq!(workers, [0, 1]);
        assert_eq!(report.completions[1].start_s, 0.0);
    }

    #[test]
    fn unknown_tenant_and_context_are_shed() {
        let mut svc = service(1, 8);
        svc.register_tenant("acme", TenantConfig::default());
        let requests = vec![
            {
                let mut r = QueryRequest::new("ghost", "reports", "q");
                r.seq = 0;
                r
            },
            {
                let mut r = QueryRequest::new("acme", "nonexistent", "q");
                r.seq = 1;
                r
            },
        ];
        let report = svc.run(requests);
        assert_eq!(report.completions.len(), 0);
        let kinds: Vec<&str> = report.sheds.iter().map(|s| s.reason.kind()).collect();
        assert_eq!(kinds, ["unknown_tenant", "unknown_context"]);
    }

    #[test]
    fn queue_bound_sheds_burst_overflow() {
        // One worker, capacity 2, four simultaneous arrivals: all four
        // are admission-checked before the first dispatch, so two fill
        // the queue and two are shed with QueueFull.
        let mut svc = service(1, 2);
        svc.register_tenant("acme", TenantConfig::default());
        let requests: Vec<QueryRequest> = (0..4)
            .map(|i| {
                let mut r = QueryRequest::new("acme", "reports", format!("count theft in 200{i}"));
                r.seq = i;
                r
            })
            .collect();
        let report = svc.run(requests);
        let full: Vec<&Shed> = report
            .sheds
            .iter()
            .filter(|s| s.reason.kind() == "queue_full")
            .collect();
        assert_eq!(full.len(), 2, "{:?}", report.sheds);
        assert_eq!(report.completions.len() + report.sheds.len(), 4);
    }

    #[test]
    fn deadline_expired_at_dispatch() {
        // One worker; the second request's queue wait exceeds its
        // deadline because the first occupies the only worker.
        let mut svc = service(1, 8);
        svc.register_tenant("acme", TenantConfig::default());
        let requests = vec![
            {
                let mut r = QueryRequest::new("acme", "reports", "count theft in 2001");
                r.seq = 0;
                r
            },
            {
                let mut r =
                    QueryRequest::new("acme", "reports", "count theft in 2002").deadline(0.001);
                r.seq = 1;
                r
            },
        ];
        let report = svc.run(requests);
        assert_eq!(report.completions.len(), 1);
        assert_eq!(report.sheds.len(), 1);
        assert_eq!(report.sheds[0].reason.kind(), "deadline_expired");
    }

    #[test]
    fn quota_sheds_after_spend_accumulates() {
        let mut svc = service(1, 8);
        // A micro-dollar budget: the first query exhausts it, later
        // requests are shed pre-admission.
        svc.register_tenant("acme", TenantConfig::default().dollars(1e-6));
        let requests: Vec<QueryRequest> = (0..3)
            .map(|i| {
                let mut r = QueryRequest::new("acme", "reports", format!("count theft in 200{i}"))
                    .at(1000.0 * i as f64);
                r.seq = i as u64;
                r
            })
            .collect();
        let report = svc.run(requests);
        assert!(!report.completions.is_empty());
        assert!(
            report
                .sheds
                .iter()
                .any(|s| s.reason.kind() == "budget_exhausted"),
            "{:?}",
            report.sheds
        );
    }

    #[test]
    fn quota_recheck_at_dispatch_sheds_after_an_earlier_query_drains_it() {
        // Two requests arrive at the same instant and both pass admission
        // against the untouched micro-quota; the first one's spend
        // exhausts it, so the second is shed when the only worker frees.
        let mut svc = service(1, 8);
        svc.register_tenant("acme", TenantConfig::default().dollars(1e-6));
        let requests: Vec<QueryRequest> = (0..2)
            .map(|i| {
                let mut r = QueryRequest::new("acme", "reports", format!("count theft in 200{i}"));
                r.seq = i;
                r
            })
            .collect();
        let report = svc.run(requests);
        let row = &report.tenants[&TenantId::from("acme")];
        assert_eq!((row.submitted, row.admitted), (2, 2));
        assert_eq!(report.completions.len(), 1);
        let first = &report.completions[0];
        assert_eq!(first.seq, 0);
        assert!(first.cost_usd > 1e-6, "{first:?}");
        assert_eq!(report.sheds.len(), 1, "{:?}", report.sheds);
        let shed = &report.sheds[0];
        assert_eq!(shed.seq, 1);
        assert_eq!(shed.reason.kind(), "budget_exhausted");
        // Shed at its dispatch instant, when the first query freed the
        // worker, not at its arrival.
        assert!(first.end_s > 0.0);
        assert_eq!(shed.at_s, first.end_s);
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let build = || {
            let mut svc = service(2, 8);
            svc.register_tenant("acme", TenantConfig::default());
            svc.register_tenant("bolt", TenantConfig::weighted(2));
            let requests: Vec<QueryRequest> = (0..4)
                .map(|i| {
                    let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
                    let mut r =
                        QueryRequest::new(tenant, "reports", format!("count theft in 200{i}"))
                            .at(i as f64 * 0.5);
                    r.seq = i as u64;
                    r
                })
                .collect();
            svc.run(requests)
        };
        let a = build();
        let b = build();
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.health_jsonl(), b.health_jsonl());
    }

    #[test]
    fn health_rows_window_latency_and_evaluate_slos() {
        let mut svc = service(2, 8);
        // acme's p99 bound is impossible (every query exceeds 1ms), so
        // both burn windows saturate; bolt declares nothing.
        svc.register_tenant("acme", TenantConfig::default().p99_latency(0.001));
        svc.register_tenant("bolt", TenantConfig::default());
        let requests: Vec<QueryRequest> = (0..4)
            .map(|i| {
                let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
                let mut r = QueryRequest::new(tenant, "reports", format!("count theft in 200{i}"))
                    .at(i as f64 * 0.5);
                r.seq = i as u64;
                r
            })
            .collect();
        let report = svc.run(requests);
        assert_eq!(report.health.len(), 2);
        let acme = &report.health[0];
        assert_eq!(acme.tenant.as_str(), "acme");
        assert_eq!(acme.latency.count, 2, "both acme completions in window");
        assert!(acme.latency.p99 >= acme.latency.p50);
        assert!(acme.slo.alerting, "impossible p99 bound must breach");
        let bolt = &report.health[1];
        assert!(bolt.slo.burns.is_empty(), "no declared objective");
        assert!(!bolt.slo.alerting);
        assert_eq!(report.slo_alerts, 1);
        assert!(report.queue_depth_health.is_some());
        // The verdicts surface on every report surface.
        assert!(
            report.render().contains("slo breach"),
            "{}",
            report.render()
        );
        assert!(report.to_jsonl().contains(r#""type":"health""#));
        let health = report.health_jsonl();
        assert!(health.lines().count() == 3, "{health}");
        assert!(health.contains(r#""slo_alerts":1"#), "{health}");
    }

    #[test]
    fn slo_alerts_reach_the_flight_recorder_and_counter() {
        let rt = Runtime::builder().seed(7).tracing(true).build();
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let mut svc = QueryService::new(rt, ServeConfig::with_workers(1));
        svc.register_context("reports", ctx);
        svc.register_tenant("acme", TenantConfig::default().p99_latency(0.001));
        let mut r = QueryRequest::new("acme", "reports", "count identity theft in 2001");
        r.seq = 0;
        let report = svc.run(vec![r]);
        assert_eq!(report.slo_alerts, 1);
        let recorder = svc.runtime().recorder();
        let dir = std::env::temp_dir().join(format!("aida-slo-flight-{}", std::process::id()));
        recorder.set_flight_autodump(dir.join("flight.jsonl"));
        let dumped = recorder.flight_autodump("probe").expect("tracing is on");
        let ring = std::fs::read_to_string(&dumped).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            ring.lines()
                .any(|l| l.contains(r#""source":"serve.slo","kind":"slo_alert""#)),
            "flight ring should note the alert: {ring}"
        );
        // EXPLAIN ANALYZE surfaces the alert through the slo.alerts counter.
        let explain = recorder.trace().explain_analyze();
        assert!(
            explain.contains("health: 1 slo burn-rate alerts (breach)"),
            "{explain}"
        );
    }

    #[test]
    fn shared_cache_attributes_hits_per_tenant() {
        let rt = Runtime::builder().seed(7).semantic_cache(4096).build();
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let mut svc = QueryService::new(
            rt,
            ServeConfig {
                workers: 2,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
        );
        svc.register_context("reports", ctx);
        svc.register_tenant("acme", TenantConfig::default());
        svc.register_tenant("bolt", TenantConfig::default());
        // Both tenants ask the identical question; bolt arrives second,
        // so its semantic calls replay acme's out of the shared cache.
        let requests = vec![
            {
                let mut r = QueryRequest::new("acme", "reports", "count identity theft in 2001");
                r.seq = 0;
                r
            },
            {
                let mut r =
                    QueryRequest::new("bolt", "reports", "count identity theft in 2001").at(50.0);
                r.seq = 1;
                r
            },
        ];
        let report = svc.run(requests);
        assert_eq!(report.completions.len(), 2);
        assert!(report.cache_hits > 0, "{}", report.render());
        assert!(report.cache_bytes.unwrap_or(0) > 0);
        // The ledger attributes the savings to the tenant that benefited.
        let bolt_spend = svc.tenants().spend(&"bolt".into());
        assert!(bolt_spend.cache_hits > 0);
        let acme = &report.tenants[&"acme".into()];
        let bolt = &report.tenants[&"bolt".into()];
        assert!(
            bolt.cache_hits > acme.cache_hits,
            "warm tenant should out-hit the cold one: bolt {} vs acme {}",
            bolt.cache_hits,
            acme.cache_hits
        );
        assert!(
            bolt.cost_usd < acme.cost_usd,
            "warm tenant {} vs cold tenant {}",
            bolt.cost_usd,
            acme.cost_usd
        );
        // Hit/coalesced/miss counts are visible on every surface.
        assert!(report.render().contains("semantic cache:"));
        assert!(report.to_jsonl().contains(r#""cache_hits""#));
    }

    /// `durable_serve`'s alignment — group commit 8, a checkpoint every
    /// 16 operators, segments of 32 records — on the two-document lake,
    /// with the ledger in the runtime's log: a checkpoint query that is
    /// not a full rewrite issues exactly one data-file fsync, the
    /// frame's, which carries the ledger records staged before it, and
    /// no other query (ops boundaries included) more than one, but for
    /// the ledger's compaction at its threshold.
    #[test]
    fn a_checkpoint_query_pays_one_fsync() {
        use crate::driver::ReplaySource;
        /// Per completion: the fsyncs since the previous one, and whether
        /// the query wrote a frame or a rewrite (the runtime's or the
        /// ledger's).
        struct Counting {
            inner: ReplaySource,
            rt: Runtime,
            last: [u64; 4],
            queries: Vec<(u64, bool, bool)>,
        }
        impl RequestSource for Counting {
            fn next_arrival(&mut self) -> Option<f64> {
                self.inner.next_arrival()
            }
            fn pop(&mut self, horizon_s: f64) -> Option<QueryRequest> {
                self.inner.pop(horizon_s)
            }
            fn on_completion(&mut self, _: &Completion) {
                let counters = self.rt.recorder().trace().counters;
                let count = |name| counters.get(name).copied().unwrap_or(0);
                let fsyncs = self.rt.log().unwrap().lock().stats().fsyncs;
                let now = [
                    fsyncs,
                    count("checkpoint.delta_frames"),
                    count("checkpoint.saves"),
                    count(registry::WAL_COMPACTIONS),
                ];
                let [fsyncs, frames, saves, compactions] =
                    [0, 1, 2, 3].map(|i| now[i] - self.last[i]);
                let rewrite = saves > frames || compactions > 0;
                self.queries.push((fsyncs, frames > 0, rewrite));
                self.last = now;
            }
        }
        let dir = std::env::temp_dir().join(format!("aida-svc-one-fsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rt = Runtime::builder()
            .seed(7)
            .tracing(true)
            .semantic_cache(1024)
            .state_path(dir.join("state.bin"))
            .cache_path(dir.join("semcache.bin"))
            .checkpoint_interval(16)
            .delta_checkpoints(true)
            .build();
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let config = ServeConfig::with_workers(2).group_commit(8);
        let mut svc = QueryService::new(rt.clone(), config);
        svc.register_context("reports", ctx);
        svc.register_tenant("acme", TenantConfig::default());
        svc.register_tenant("bolt", TenantConfig::default());
        let wal = LedgerWal::open(dir.join("ledger.wal")).segment_records(32);
        svc.attach_wal(wal).unwrap();
        let requests = (0..160)
            .map(|i| {
                let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
                let year = 2001 + i % 3;
                let mut r = QueryRequest::new(tenant, "reports", format!("count theft in {year}"))
                    .at(i as f64 * 600.0);
                r.seq = i as u64;
                r
            })
            .collect();
        let mut source = Counting {
            inner: ReplaySource::new(requests),
            rt,
            last: [0; 4],
            queries: Vec::new(),
        };
        let report = svc.serve(&mut source);
        assert_eq!(report.completions.len(), 160);
        let frames: Vec<u64> = (source.queries.iter())
            .filter(|(_, frame, rewrite)| *frame && !rewrite)
            .map(|(fsyncs, ..)| *fsyncs)
            .collect();
        assert!(frames.len() >= 4, "{:?}", source.queries);
        assert!(frames.iter().all(|&n| n == 1), "{frames:?}");
        let others = source
            .queries
            .iter()
            .filter(|(_, frame, rewrite)| !frame && !rewrite);
        assert!(
            others.clone().all(|(n, ..)| *n <= 1),
            "{:?}",
            source.queries
        );
        // 320 ledger records: one compaction, at an ops boundary.
        assert_eq!(report.wal_compactions, 1);
        // Every fsync of the run is the log's: the report counts them all.
        let total: u64 = source.queries.iter().map(|(n, ..)| n).sum();
        assert_eq!(report.wal_fsyncs, total);
        assert!(report.wal_segments_sealed > 0, "the log rolled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_reduces_fsyncs_at_identical_spend() {
        let dir = std::env::temp_dir().join(format!(
            "aida-svc-group-commit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let requests = || -> Vec<QueryRequest> {
            (0..8)
                .map(|i| {
                    let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
                    let mut r =
                        QueryRequest::new(tenant, "reports", format!("count theft in 200{i}"))
                            .at(i as f64 * 0.5);
                    r.seq = i as u64;
                    r
                })
                .collect()
        };
        let run = |config: ServeConfig, wal_path: &std::path::Path| {
            let rt = Runtime::builder().seed(7).build();
            let ctx = Context::builder("lake", lake())
                .description("FTC identity theft reports by year")
                .build(&rt);
            let mut svc = QueryService::new(rt, config);
            svc.register_context("reports", ctx);
            svc.register_tenant("acme", TenantConfig::default());
            svc.register_tenant("bolt", TenantConfig::default());
            svc.attach_wal(LedgerWal::open(wal_path)).unwrap();
            let report = svc.run(requests());
            let spends: Vec<u64> = ["acme", "bolt"]
                .iter()
                .map(|t| svc.tenants().spend(&(*t).into()).usd.to_bits())
                .collect();
            (report, spends)
        };
        let base = ServeConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServeConfig::default()
        };
        let (plain, plain_spend) = run(base.clone(), &dir.join("plain.wal"));
        let (grouped, grouped_spend) = run(base.group_commit(8), &dir.join("grouped.wal"));
        assert_eq!(plain.completions.len(), grouped.completions.len());
        // Identical per-tenant dollars, bit for bit.
        assert_eq!(plain_spend, grouped_spend);
        assert_eq!(plain.wal_appends, grouped.wal_appends, "same records");
        // 16 records (8 admits + 8 spends): per-record durability costs
        // 16 fsyncs, batches of 8 cost 2.
        assert_eq!(plain.wal_fsyncs, 16);
        assert_eq!(plain.wal_batch_bound, 1);
        assert_eq!(grouped.wal_fsyncs, 2);
        assert_eq!(grouped.wal_group_flushes, 2);
        assert_eq!(grouped.wal_batch_bound, 8);

        // Both logs replay to the identical ledger.
        for (wal_name, spends) in [("plain.wal", &plain_spend), ("grouped.wal", &grouped_spend)] {
            let mut restarted = crate::tenant::TenantLedger::new();
            LedgerWal::open(dir.join(wal_name))
                .recover(&mut restarted)
                .unwrap();
            let replayed: Vec<u64> = ["acme", "bolt"]
                .iter()
                .map(|t| restarted.spend(&(*t).into()).usd.to_bits())
                .collect();
            assert_eq!(&replayed, spends, "{wal_name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_waits_for_the_ops_interval_and_counts_deferrals() {
        let dir = std::env::temp_dir().join(format!(
            "aida-svc-ops-compact-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rt = Runtime::builder().seed(7).build();
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let mut svc = QueryService::new(
            rt,
            ServeConfig {
                workers: 1,
                queue_capacity: 32,
                ..ServeConfig::default()
            },
        );
        svc.register_context("reports", ctx);
        svc.register_tenant("acme", TenantConfig::default());
        // Threshold 2: compaction is due almost immediately, but it may
        // only run at every OPS_INTERVAL-th (16th) completion.
        svc.attach_wal(LedgerWal::open(dir.join("ledger.wal")).compact_threshold(2))
            .unwrap();
        let requests: Vec<QueryRequest> = (0..20)
            .map(|i| {
                let question = format!("count theft in {}", 2000 + i);
                let mut r = QueryRequest::new("acme", "reports", question).at(i as f64 * 10.0);
                r.seq = i as u64;
                r
            })
            .collect();
        let report = svc.run(requests);
        assert_eq!(report.completions.len(), 20);
        assert_eq!(report.wal_compactions, 1, "{}", report.render());
        assert!(
            report.wal_compactions_deferred >= 1,
            "due-but-deferred completions must be counted: {}",
            report.render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn isolated_baseline_costs_at_least_shared() {
        let mut svc = service(2, 16);
        svc.register_tenant("acme", TenantConfig::default());
        svc.register_tenant("bolt", TenantConfig::default());
        // Both tenants ask the same question: the shared runtime reuses
        // the materialized Context across tenants, isolation cannot.
        let requests: Vec<QueryRequest> = (0..4)
            .map(|i| {
                let tenant = if i % 2 == 0 { "acme" } else { "bolt" };
                let mut r =
                    QueryRequest::new(tenant, "reports", "count identity theft reports in 2001")
                        .at(i as f64);
                r.seq = i as u64;
                r
            })
            .collect();
        let isolated = svc.isolated_cost(&requests);
        let report = svc.run(requests);
        assert!(report.total_cost_usd > 0.0);
        assert!(
            report.total_cost_usd <= isolated + 1e-9,
            "shared {} vs isolated {}",
            report.total_cost_usd,
            isolated
        );
    }
}
