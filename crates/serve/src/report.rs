//! The service dashboard: per-tenant latency percentiles, shed/admit
//! counters, queue-depth trajectory, cross-tenant reuse trend, and the
//! shared-vs-isolated cost comparison.

use crate::autoscale::ScaleEvent;
use crate::net::NetStats;
use crate::request::{Completion, Shed};
use crate::TenantId;
use aida_obs::{Gauge, Json, SloVerdict, Summary, WindowSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write;

/// What the live front door saw: wire-level traffic counters plus the
/// closed-loop client fleet's resolved outcomes. `None` on the report
/// means the run was batch replay — no listener was attached.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetReport {
    /// Listener traffic counters (connections, frames, bytes, errors).
    pub stats: NetStats,
    /// Closed-loop clients that connected.
    pub clients: u64,
    /// Clients that completed every query they wanted.
    pub clients_completed: u64,
    /// Clients that exhausted their retry budget on a retryable shed.
    pub clients_retries_exhausted: u64,
    /// Clients that hit a terminal rejection and hung up.
    pub clients_abandoned: u64,
    /// Clients whose session died on a wire error (or never resolved).
    pub clients_wire_failed: u64,
    /// Retries spent across the fleet.
    pub client_retries: u64,
    /// Queries completed across the fleet (client-side count).
    pub client_queries: u64,
}

impl NetReport {
    /// Serializes as one `net` JSONL object.
    pub fn to_json(&self) -> Json {
        let mut errors = Json::obj();
        for (kind, n) in &self.stats.wire_errors {
            errors = errors.field(kind, *n);
        }
        Json::obj()
            .field("type", "net")
            .field("conns_opened", self.stats.conns_opened)
            .field("conns_closed", self.stats.conns_closed)
            .field("conns_peak", self.stats.conns_peak)
            .field("frames_in", self.stats.frames_in)
            .field("frames_out", self.stats.frames_out)
            .field("bytes_in", self.stats.bytes_in)
            .field("bytes_out", self.stats.bytes_out)
            .field("plan_hash_hits", self.stats.plan_hash_hits)
            .field("wire_errors", errors)
            .field("clients", self.clients)
            .field("clients_completed", self.clients_completed)
            .field("clients_retries_exhausted", self.clients_retries_exhausted)
            .field("clients_abandoned", self.clients_abandoned)
            .field("clients_wire_failed", self.clients_wire_failed)
            .field("client_retries", self.client_retries)
            .field("client_queries", self.client_queries)
    }
}

/// One tenant's windowed health: trailing-window latency/cost/queue-wait
/// statistics plus the SLO burn-rate verdict, evaluated at the end of a
/// [`QueryService::run`].
///
/// [`QueryService::run`]: crate::QueryService::run
#[derive(Debug, Clone)]
pub struct TenantHealth {
    /// The tenant this row describes.
    pub tenant: TenantId,
    /// End-to-end latency over the trailing window (virtual seconds).
    pub latency: WindowSnapshot,
    /// Dollars per completed query over the trailing window.
    pub cost: WindowSnapshot,
    /// Queue wait over the trailing window (virtual seconds).
    pub queue_wait: WindowSnapshot,
    /// Fraction of windowed completions served at least partly from the
    /// semantic cache.
    pub cache_hit_rate: f64,
    /// Burn-rate evaluation of the tenant's declared SLO targets.
    pub slo: SloVerdict,
}

impl TenantHealth {
    /// Serializes as one `health` JSONL object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("type", "health")
            .field("tenant", self.tenant.as_str())
            .field("latency", self.latency.to_json())
            .field("cost_usd", self.cost.to_json())
            .field("queue_wait", self.queue_wait.to_json())
            .field("cache_hit_rate", self.cache_hit_rate)
            .field("slo", self.slo.to_json())
    }
}

/// Aggregates for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Requests the tenant submitted.
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests shed, by typed-reason kind.
    pub shed: BTreeMap<&'static str, u64>,
    /// Dollars attributed to the tenant.
    pub cost_usd: f64,
    /// Tokens attributed to the tenant.
    pub tokens: u64,
    /// Billed LLM calls attributed to the tenant.
    pub llm_calls: u64,
    /// Semantic-cache hits attributed to the tenant.
    pub cache_hits: u64,
    /// Semantic-cache batch duplicates coalesced for the tenant.
    pub cache_coalesced: u64,
    /// Semantic-cache misses attributed to the tenant.
    pub cache_misses: u64,
    /// End-to-end latency summary (virtual seconds).
    pub latency: Summary,
    /// Queue-wait summary (virtual seconds).
    pub queue_wait: Summary,
}

impl TenantReport {
    /// Total requests shed across reasons.
    fn shed_total(&self) -> u64 {
        self.shed.values().sum()
    }
}

/// Everything one [`QueryService::run`] observed.
///
/// [`QueryService::run`]: crate::QueryService::run
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Worker-pool size the run was served with.
    pub workers: usize,
    /// Served queries in dispatch order.
    pub completions: Vec<Completion>,
    /// Refused requests in rejection order.
    pub sheds: Vec<Shed>,
    /// Per-tenant aggregates, in tenant-id order.
    pub tenants: BTreeMap<TenantId, TenantReport>,
    /// Queue depth sampled at every admission and dispatch.
    pub queue_depth: Gauge,
    /// Virtual instant the last worker finished.
    pub makespan_s: f64,
    /// Dollars across all tenants.
    pub total_cost_usd: f64,
    /// Context-reuse hits across the run.
    pub reuse_hits: u64,
    /// Context-reuse misses across the run.
    pub reuse_misses: u64,
    /// Contexts evicted by the ContextManager capacity bound.
    pub evictions: u64,
    /// Semantic-cache hits across the run (zero-spend LLM calls).
    pub cache_hits: u64,
    /// Semantic-cache batch duplicates coalesced across the run.
    pub cache_coalesced: u64,
    /// Semantic-cache misses across the run.
    pub cache_misses: u64,
    /// Resident semantic-cache bytes when the run finished (`None` when
    /// the runtime has no cache configured).
    pub cache_bytes: Option<u64>,
    /// The same workload's cost through isolated per-tenant runtimes
    /// (filled by [`ServiceReport::set_isolated_baseline`]; `None` when
    /// the baseline wasn't run).
    pub isolated_cost_usd: Option<f64>,
    /// Ledger-WAL records appended during the run (admits + spends).
    pub wal_appends: u64,
    /// Ledger-WAL compactions triggered during the run.
    pub wal_compactions: u64,
    /// Compactions found due on the query path and deferred to the
    /// ops-interval hook (one count per completion served while due).
    pub wal_compactions_deferred: u64,
    /// Ledger-WAL records replayed at startup before this run.
    pub wal_replayed: u64,
    /// Data-file fsyncs of the ledger's log during the run
    /// (the log's `WalStats`): in a runtime's log, every
    /// commit, the checkpoints' included, every rewrite snapshot and
    /// every manifest commit.
    pub wal_fsyncs: u64,
    /// Commits that carried ledger records during the run (one fsync
    /// each).
    pub wal_group_flushes: u64,
    /// Log segments closed because they were full during the run.
    pub wal_segments_sealed: u64,
    /// The crash-staleness bound in records: the durable log trails the
    /// in-memory ledger by at most this many records (1 = per-record
    /// durability; >1 = group commit; 0 = no WAL attached).
    pub wal_batch_bound: u64,
    /// True when a WAL append or compaction failed and dispatch stopped
    /// early (crash semantics: the durable log is at most
    /// `wal_batch_bound` records behind the in-memory ledger).
    pub wal_failed: bool,
    /// Per-tenant windowed health rows, in tenant-id order (empty until
    /// a run evaluates them).
    pub health: Vec<TenantHealth>,
    /// Windowed admission-queue depth statistics (service-wide).
    pub queue_depth_health: Option<WindowSnapshot>,
    /// Tenants whose SLO burn rates were alerting at end of run.
    pub slo_alerts: u64,
    /// Autoscaler moves committed during the run, in virtual-time order
    /// (empty when no autoscaler was configured).
    pub scale_events: Vec<ScaleEvent>,
    /// Integral of active workers over the run: `Σ active(t) dt` up to
    /// the makespan. With a fixed pool this is `workers * makespan_s`;
    /// with an autoscaler it is what the latency target actually cost.
    pub worker_seconds: f64,
    /// Live front-door traffic and client outcomes (`None` in batch
    /// replay).
    pub net: Option<NetReport>,
}

impl ServiceReport {
    /// Records what the workload costs without the shared runtime, for
    /// the headline shared-vs-isolated comparison.
    pub fn set_isolated_baseline(&mut self, cost_usd: f64) {
        self.isolated_cost_usd = Some(cost_usd);
    }

    /// Reuse hit rate over the first half of completions (dispatch
    /// order) — the cold half.
    fn first_half_hit_rate(&self) -> f64 {
        Self::hit_rate(&self.completions[..self.completions.len() / 2])
    }

    /// Reuse hit rate over the second half of completions — the warmed
    /// half. Cross-tenant reuse shows up as this exceeding the first.
    fn second_half_hit_rate(&self) -> f64 {
        Self::hit_rate(&self.completions[self.completions.len() / 2..])
    }

    /// Semantic-cache hit rate across the run: hits + coalesced duplicates
    /// over all cache lookups (both avoid a billed LLM call).
    pub fn cache_hit_rate(&self) -> f64 {
        let saved = self.cache_hits + self.cache_coalesced;
        let lookups = saved + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            saved as f64 / lookups as f64
        }
    }

    /// Scale-up moves committed during the run.
    pub fn scale_ups(&self) -> u64 {
        self.scale_events
            .iter()
            .filter(|e| e.direction() == "up")
            .count() as u64
    }

    /// Scale-down moves committed during the run.
    pub fn scale_downs(&self) -> u64 {
        self.scale_events
            .iter()
            .filter(|e| e.direction() == "down")
            .count() as u64
    }

    fn hit_rate(completions: &[Completion]) -> f64 {
        let hits: u64 = completions.iter().map(|c| c.reuse_hits).sum();
        let misses: u64 = completions.iter().map(|c| c.reuse_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Renders the service dashboard.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "SERVICE REPORT  ({} workers, {} served, {} shed)",
            self.workers,
            self.completions.len(),
            self.sheds.len()
        );
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>8} {:>5} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8}",
            "tenant",
            "submitted",
            "admitted",
            "shed",
            "served",
            "$spend",
            "tokens",
            "p50 s",
            "p95 s",
            "p99 s"
        );
        for (tenant, report) in &self.tenants {
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>8} {:>5} {:>9} {:>10.4} {:>8} {:>8.1} {:>8.1} {:>8.1}",
                tenant.as_str(),
                report.submitted,
                report.admitted,
                report.shed_total(),
                report.completed,
                report.cost_usd,
                report.tokens,
                report.latency.p50(),
                report.latency.p95(),
                report.latency.p99(),
            );
        }
        let mut shed_by_reason: BTreeMap<&'static str, u64> = BTreeMap::new();
        for report in self.tenants.values() {
            for (kind, n) in &report.shed {
                *shed_by_reason.entry(kind).or_insert(0) += n;
            }
        }
        if !shed_by_reason.is_empty() {
            let rendered: Vec<String> = shed_by_reason
                .iter()
                .map(|(kind, n)| format!("{kind}={n}"))
                .collect();
            let _ = writeln!(out, "shed by reason: {}", rendered.join(" "));
        }
        let _ = writeln!(
            out,
            "queue depth: max {:.0}, final {:.0}  ({} samples)",
            self.queue_depth.max(),
            self.queue_depth.last(),
            self.queue_depth.samples.len()
        );
        let _ = writeln!(
            out,
            "context reuse: {} hits / {} misses  (first half {:.1}%, second half {:.1}%)  evictions={}",
            self.reuse_hits,
            self.reuse_misses,
            100.0 * self.first_half_hit_rate(),
            100.0 * self.second_half_hit_rate(),
            self.evictions,
        );
        if self.cache_bytes.is_some()
            || self.cache_hits + self.cache_coalesced + self.cache_misses > 0
        {
            let _ = writeln!(
                out,
                "semantic cache: {} hits / {} coalesced / {} misses  (hit rate {:.1}%, {} bytes resident)",
                self.cache_hits,
                self.cache_coalesced,
                self.cache_misses,
                100.0 * self.cache_hit_rate(),
                self.cache_bytes.unwrap_or(0),
            );
        }
        self.render_health(&mut out);
        self.render_pool(&mut out);
        self.render_durability(&mut out);
        match self.isolated_cost_usd {
            Some(isolated) if isolated > 0.0 => {
                let _ = writeln!(
                    out,
                    "total cost: ${:.4} shared vs ${:.4} isolated per-tenant runtimes ({:.1}% saved)",
                    self.total_cost_usd,
                    isolated,
                    100.0 * (1.0 - self.total_cost_usd / isolated),
                );
            }
            _ => {
                let _ = writeln!(out, "total cost: ${:.4} shared", self.total_cost_usd);
            }
        }
        let _ = writeln!(out, "makespan: {:.1} virtual s", self.makespan_s);
        out
    }

    /// The windowed-health section of the dashboard (one row per tenant
    /// with an SLO verdict), skipped when no run evaluated health.
    fn render_health(&self, out: &mut String) {
        if self.health.is_empty() {
            return;
        }
        let window_s = self.health[0].latency.window_s;
        let _ = writeln!(
            out,
            "health ({window_s:.0}s window, {} slo alerts):",
            self.slo_alerts
        );
        for h in &self.health {
            let burns: Vec<String> = h
                .slo
                .burns
                .iter()
                .map(|b| format!("{} {:.2}/{:.2}", b.kind.name(), b.fast, b.slow))
                .collect();
            let _ = writeln!(
                out,
                "  {:<10} n={:<4} p50 {:>6.1}s p95 {:>6.1}s p99 {:>6.1}s  ${:.4}/q  cache {:>5.1}%  slo {}{}",
                h.tenant.as_str(),
                h.latency.count,
                h.latency.p50,
                h.latency.p95,
                h.latency.p99,
                h.cost.mean,
                100.0 * h.cache_hit_rate,
                h.slo.verdict(),
                if burns.is_empty() {
                    String::new()
                } else {
                    format!("  (burn {})", burns.join(", "))
                },
            );
        }
    }

    /// The worker-pool and front-door sections: autoscaler moves plus
    /// the live listener's traffic and client outcomes.
    fn render_pool(&self, out: &mut String) {
        if !self.scale_events.is_empty() || self.worker_seconds > 0.0 {
            let final_workers = self
                .scale_events
                .last()
                .map(|e| e.to)
                .unwrap_or(self.workers);
            let _ = writeln!(
                out,
                "autoscale: {} ups / {} downs  (worker-seconds {:.1}, final pool {})",
                self.scale_ups(),
                self.scale_downs(),
                self.worker_seconds,
                final_workers,
            );
        }
        if let Some(net) = &self.net {
            let _ = writeln!(
                out,
                "front door: {} conns ({} peak open, {} closed), {} frames in / {} out, {} bytes in / {} out, {} plan-hash hits, {} wire errors",
                net.stats.conns_opened,
                net.stats.conns_peak,
                net.stats.conns_closed,
                net.stats.frames_in,
                net.stats.frames_out,
                net.stats.bytes_in,
                net.stats.bytes_out,
                net.stats.plan_hash_hits,
                net.stats.wire_error_total(),
            );
            let _ = writeln!(
                out,
                "clients: {} total — {} completed, {} retries exhausted, {} abandoned, {} wire failed  ({} queries, {} retries)",
                net.clients,
                net.clients_completed,
                net.clients_retries_exhausted,
                net.clients_abandoned,
                net.clients_wire_failed,
                net.client_queries,
                net.client_retries,
            );
        }
    }

    /// The ledger-WAL durability section, skipped when no WAL touched
    /// the run.
    fn render_durability(&self, out: &mut String) {
        if self.wal_appends + self.wal_replayed == 0 && !self.wal_failed {
            return;
        }
        let _ = writeln!(
            out,
            "durability: {} wal appends / {} compactions  ({} replayed at startup{})",
            self.wal_appends,
            self.wal_compactions,
            self.wal_replayed,
            if self.wal_failed { ", WAL FAILED" } else { "" },
        );
        let _ = writeln!(
            out,
            "log i/o: {} fsyncs / {} group flushes  (staleness bound {} records, {} segments sealed, {} compactions deferred)",
            self.wal_fsyncs,
            self.wal_group_flushes,
            self.wal_batch_bound,
            self.wal_segments_sealed,
            self.wal_compactions_deferred,
        );
    }

    /// Folds one completion into the per-tenant aggregates and the
    /// dispatch-ordered completion log. The scheduler calls this once
    /// per served query.
    pub(crate) fn settle(&mut self, completion: Completion) {
        let tenant_report = self.tenants.entry(completion.tenant.clone()).or_default();
        tenant_report.completed += 1;
        tenant_report.cost_usd += completion.cost_usd;
        tenant_report.tokens += completion.tokens;
        tenant_report.llm_calls += completion.llm_calls;
        tenant_report.cache_hits += completion.cache_hits;
        tenant_report.cache_coalesced += completion.cache_coalesced;
        tenant_report.cache_misses += completion.cache_misses;
        tenant_report.latency.record(completion.latency_s());
        tenant_report.queue_wait.record(completion.queue_wait_s());
        self.completions.push(completion);
    }

    /// Exports the run as JSONL: one `query` line per completion in
    /// dispatch order, one `shed` line per rejection, one `tenant` line
    /// per tenant, and a final `service` summary line. Only virtual time
    /// appears, so two same-seed runs export identical bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.completions {
            let line = Json::obj()
                .field("type", "query")
                .field("seq", c.seq)
                .field("tenant", c.tenant.as_str())
                .field("worker", c.worker as u64)
                .field("submitted_s", c.submitted_s)
                .field("arrival_s", c.arrival_s)
                .field("admit_s", c.admit_s)
                .field("start_s", c.start_s)
                .field("end_s", c.end_s)
                .field("latency_s", c.latency_s())
                .field("queue_wait_s", c.queue_wait_s())
                .field("ingest_s", c.ingest_s())
                .field("cost_usd", c.cost_usd)
                .field("tokens", c.tokens)
                .field("llm_calls", c.llm_calls)
                .field("reuse_hits", c.reuse_hits)
                .field("reuse_misses", c.reuse_misses)
                .field("cache_hits", c.cache_hits)
                .field("cache_coalesced", c.cache_coalesced)
                .field("cache_misses", c.cache_misses)
                .field("answered", c.answered);
            out.push_str(&line.render());
            out.push('\n');
        }
        for s in &self.sheds {
            let line = Json::obj()
                .field("type", "shed")
                .field("seq", s.seq)
                .field("tenant", s.tenant.as_str())
                .field("at_s", s.at_s)
                .field("reason", s.reason.kind())
                .field("detail", s.reason.to_string());
            out.push_str(&line.render());
            out.push('\n');
        }
        for e in &self.scale_events {
            out.push_str(&e.to_json().render());
            out.push('\n');
        }
        if let Some(net) = &self.net {
            out.push_str(&net.to_json().render());
            out.push('\n');
        }
        for (tenant, report) in &self.tenants {
            let mut shed = Json::obj();
            for (kind, n) in &report.shed {
                shed = shed.field(kind, *n);
            }
            let line = Json::obj()
                .field("type", "tenant")
                .field("tenant", tenant.as_str())
                .field("submitted", report.submitted)
                .field("admitted", report.admitted)
                .field("completed", report.completed)
                .field("shed", shed)
                .field("cost_usd", report.cost_usd)
                .field("tokens", report.tokens)
                .field("llm_calls", report.llm_calls)
                .field("cache_hits", report.cache_hits)
                .field("cache_coalesced", report.cache_coalesced)
                .field("cache_misses", report.cache_misses)
                .field("latency", report.latency.to_json())
                .field("queue_wait", report.queue_wait.to_json());
            out.push_str(&line.render());
            out.push('\n');
        }
        for h in &self.health {
            out.push_str(&h.to_json().render());
            out.push('\n');
        }
        let mut summary = Json::obj()
            .field("type", "service")
            .field("workers", self.workers as u64)
            .field("served", self.completions.len() as u64)
            .field("shed", self.sheds.len() as u64)
            .field("total_cost_usd", self.total_cost_usd)
            .field("reuse_hits", self.reuse_hits)
            .field("reuse_misses", self.reuse_misses)
            .field("first_half_hit_rate", self.first_half_hit_rate())
            .field("second_half_hit_rate", self.second_half_hit_rate())
            .field("evictions", self.evictions)
            .field("cache_hits", self.cache_hits)
            .field("cache_coalesced", self.cache_coalesced)
            .field("cache_misses", self.cache_misses)
            .field("cache_hit_rate", self.cache_hit_rate())
            .field("wal_appends", self.wal_appends)
            .field("wal_compactions", self.wal_compactions)
            .field("wal_compactions_deferred", self.wal_compactions_deferred)
            .field("wal_replayed", self.wal_replayed)
            .field("wal_fsyncs", self.wal_fsyncs)
            .field("wal_group_flushes", self.wal_group_flushes)
            .field("wal_segments_sealed", self.wal_segments_sealed)
            .field("wal_batch_bound", self.wal_batch_bound)
            .field("wal_failed", self.wal_failed)
            .field("slo_alerts", self.slo_alerts)
            .field("scale_ups", self.scale_ups())
            .field("scale_downs", self.scale_downs())
            .field("worker_seconds", self.worker_seconds)
            .field("makespan_s", self.makespan_s)
            .field("queue_depth", self.queue_depth.to_json());
        if let Some(bytes) = self.cache_bytes {
            summary = summary.field("cache_bytes", bytes);
        }
        if let Some(isolated) = self.isolated_cost_usd {
            summary = summary.field("isolated_cost_usd", isolated);
        }
        out.push_str(&summary.render());
        out.push('\n');
        out
    }

    /// Exports the windowed health rows as standalone JSONL — one
    /// `health` line per tenant plus a final `health_summary` line. This
    /// is the payload of `results/health.jsonl`; only virtual time and
    /// deterministic statistics appear, so two same-seed runs export
    /// identical bytes.
    pub fn health_jsonl(&self) -> String {
        let mut out = String::new();
        for h in &self.health {
            out.push_str(&h.to_json().render());
            out.push('\n');
        }
        let mut summary = Json::obj()
            .field("type", "health_summary")
            .field("tenants", self.health.len() as u64)
            .field("slo_alerts", self.slo_alerts)
            .field("makespan_s", self.makespan_s);
        if let Some(depth) = &self.queue_depth_health {
            summary = summary.field("queue_depth", depth.to_json());
        }
        out.push_str(&summary.render());
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(seq: u64, hits: u64, misses: u64) -> Completion {
        Completion {
            seq,
            tenant: "t".into(),
            worker: 0,
            submitted_s: 0.0,
            arrival_s: 0.0,
            admit_s: 0.0,
            start_s: 1.0,
            end_s: 2.0,
            cost_usd: 0.5,
            tokens: 100,
            llm_calls: 1,
            reuse_hits: hits,
            reuse_misses: misses,
            cache_hits: 0,
            cache_coalesced: 0,
            cache_misses: 0,
            answered: true,
        }
    }

    #[test]
    fn half_split_hit_rates() {
        let mut report = ServiceReport::default();
        // First half: all misses. Second half: all hits.
        report.completions.push(completion(0, 0, 2));
        report.completions.push(completion(1, 0, 2));
        report.completions.push(completion(2, 2, 0));
        report.completions.push(completion(3, 2, 0));
        assert_eq!(report.first_half_hit_rate(), 0.0);
        assert_eq!(report.second_half_hit_rate(), 1.0);
    }

    #[test]
    fn empty_report_renders_and_exports() {
        let report = ServiceReport::default();
        assert_eq!(report.first_half_hit_rate(), 0.0);
        let text = report.render();
        assert!(text.contains("SERVICE REPORT"));
        let jsonl = report.to_jsonl();
        assert!(jsonl.trim_end().ends_with('}'));
        assert!(jsonl.contains(r#""type":"service""#));
    }

    #[test]
    fn jsonl_lines_are_typed() {
        let mut report = ServiceReport::default();
        report.completions.push(completion(7, 1, 0));
        report.sheds.push(Shed {
            seq: 8,
            tenant: "t".into(),
            at_s: 3.0,
            reason: crate::RejectReason::UnknownTenant,
        });
        report.tenants.insert("t".into(), TenantReport::default());
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with(r#"{"type":"query","seq":7"#));
        assert!(lines[1].starts_with(r#"{"type":"shed","seq":8"#));
        assert!(lines[2].starts_with(r#"{"type":"tenant""#));
        assert!(lines[3].starts_with(r#"{"type":"service""#));
    }

    #[test]
    fn cache_line_renders_only_when_cache_was_active() {
        let mut report = ServiceReport::default();
        assert!(!report.render().contains("semantic cache"));
        report.cache_hits = 6;
        report.cache_coalesced = 2;
        report.cache_misses = 8;
        report.cache_bytes = Some(1024);
        let text = report.render();
        assert!(
            text.contains("semantic cache: 6 hits / 2 coalesced / 8 misses"),
            "{text}"
        );
        assert!(text.contains("hit rate 50.0%"), "{text}");
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains(r#""cache_hits":6"#));
        assert!(jsonl.contains(r#""cache_bytes":1024"#));
    }

    #[test]
    fn durability_line_renders_only_when_wal_was_active() {
        let mut report = ServiceReport::default();
        assert!(!report.render().contains("durability:"));
        report.wal_appends = 12;
        report.wal_compactions = 1;
        report.wal_replayed = 4;
        let text = report.render();
        assert!(
            text.contains("durability: 12 wal appends / 1 compactions  (4 replayed at startup)"),
            "{text}"
        );
        report.wal_failed = true;
        assert!(report.render().contains("WAL FAILED"));
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains(r#""wal_appends":12"#));
        assert!(jsonl.contains(r#""wal_failed":true"#));
    }

    #[test]
    fn log_io_line_surfaces_group_commit_and_staleness_bound() {
        let mut report = ServiceReport::default();
        assert!(!report.render().contains("log i/o:"));
        report.wal_appends = 40;
        report.wal_fsyncs = 6;
        report.wal_group_flushes = 5;
        report.wal_batch_bound = 8;
        report.wal_segments_sealed = 2;
        report.wal_compactions_deferred = 3;
        let text = report.render();
        assert!(
            text.contains(
                "log i/o: 6 fsyncs / 5 group flushes  (staleness bound 8 records, 2 segments sealed, 3 compactions deferred)"
            ),
            "{text}"
        );
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains(r#""wal_fsyncs":6"#));
        assert!(jsonl.contains(r#""wal_group_flushes":5"#));
        assert!(jsonl.contains(r#""wal_batch_bound":8"#));
        assert!(jsonl.contains(r#""wal_segments_sealed":2"#));
        assert!(jsonl.contains(r#""wal_compactions_deferred":3"#));
    }

    fn health_row(tenant: &str, alerting: bool) -> TenantHealth {
        let snap = |v: f64| WindowSnapshot {
            window_s: 300.0,
            count: 4,
            mean: v,
            p50: v,
            p95: v,
            p99: v,
        };
        TenantHealth {
            tenant: tenant.into(),
            latency: snap(2.0),
            cost: snap(0.001),
            queue_wait: snap(0.5),
            cache_hit_rate: 0.25,
            slo: SloVerdict {
                tenant: tenant.to_string(),
                burns: vec![aida_obs::BurnRate {
                    kind: aida_obs::SloKind::Latency,
                    fast: if alerting { 3.0 } else { 0.0 },
                    slow: if alerting { 2.0 } else { 0.0 },
                    alerting,
                }],
                alerting,
            },
        }
    }

    #[test]
    fn health_section_renders_and_exports() {
        let mut report = ServiceReport::default();
        assert!(!report.render().contains("health ("));
        report.health.push(health_row("acme", true));
        report.health.push(health_row("bolt", false));
        report.slo_alerts = 1;
        let text = report.render();
        assert!(
            text.contains("health (300s window, 1 slo alerts):"),
            "{text}"
        );
        assert!(text.contains("slo breach"), "{text}");
        assert!(text.contains("slo ok"), "{text}");
        let health = report.health_jsonl();
        let lines: Vec<&str> = health.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(r#"{"type":"health","tenant":"acme""#));
        assert!(lines[0].contains(r#""verdict":"breach""#));
        assert!(lines[2].starts_with(r#"{"type":"health_summary","tenants":2,"slo_alerts":1"#));
        // The combined export carries the same rows plus a summary field.
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains(r#""type":"health""#));
        assert!(jsonl.contains(r#""slo_alerts":1"#));
    }

    #[test]
    fn autoscale_section_renders_and_exports() {
        let mut report = ServiceReport::default();
        assert!(!report.render().contains("autoscale:"));
        report.workers = 8;
        report.worker_seconds = 750.0;
        report.scale_events.push(ScaleEvent {
            at_s: 60.0,
            from: 2,
            to: 3,
            p99_s: 40.0,
            fast_burn: 3.0,
            slow_burn: 2.0,
            queue_depth: 6,
        });
        report.scale_events.push(ScaleEvent {
            at_s: 400.0,
            from: 3,
            to: 2,
            p99_s: 4.0,
            fast_burn: 0.0,
            slow_burn: 0.2,
            queue_depth: 0,
        });
        let text = report.render();
        assert!(
            text.contains("autoscale: 1 ups / 1 downs  (worker-seconds 750.0, final pool 2)"),
            "{text}"
        );
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains(r#"{"type":"scale","at_s":60"#), "{jsonl}");
        assert!(jsonl.contains(r#""scale_ups":1"#) && jsonl.contains(r#""scale_downs":1"#));
        assert!(jsonl.contains(r#""worker_seconds":750"#));
    }

    #[test]
    fn net_section_renders_and_exports() {
        let mut report = ServiceReport::default();
        assert!(!report.render().contains("front door:"));
        let mut net = NetReport {
            clients: 4,
            clients_completed: 3,
            clients_retries_exhausted: 1,
            client_retries: 5,
            client_queries: 9,
            ..NetReport::default()
        };
        net.stats.conns_opened = 4;
        net.stats.conns_closed = 4;
        net.stats.conns_peak = 3;
        net.stats.frames_in = 14;
        net.stats.frames_out = 23;
        net.stats.wire_errors.insert("bad_magic".to_string(), 2);
        report.net = Some(net);
        let text = report.render();
        assert!(
            text.contains("front door: 4 conns (3 peak open, 4 closed)"),
            "{text}"
        );
        assert!(
            text.contains("clients: 4 total — 3 completed, 1 retries exhausted"),
            "{text}"
        );
        let jsonl = report.to_jsonl();
        assert!(
            jsonl.contains(r#"{"type":"net","conns_opened":4"#),
            "{jsonl}"
        );
        assert!(
            jsonl.contains(r#""wire_errors":{"bad_magic":2}"#),
            "{jsonl}"
        );
    }

    #[test]
    fn query_lines_carry_the_full_timestamp_chain() {
        let mut report = ServiceReport::default();
        let mut c = completion(0, 0, 0);
        c.submitted_s = 0.5;
        c.arrival_s = 1.0;
        c.admit_s = 1.0;
        report.completions.push(c);
        let jsonl = report.to_jsonl();
        assert!(
            jsonl.contains(r#""submitted_s":0.5,"arrival_s":1,"admit_s":1"#),
            "{jsonl}"
        );
        assert!(jsonl.contains(r#""queue_wait_s":0"#), "{jsonl}");
        assert!(jsonl.contains(r#""ingest_s":0.5"#), "{jsonl}");
    }

    #[test]
    fn isolated_baseline_changes_render() {
        let mut report = ServiceReport {
            total_cost_usd: 1.0,
            ..Default::default()
        };
        assert!(report.render().contains("$1.0000 shared\n"));
        report.set_isolated_baseline(4.0);
        let text = report.render();
        assert!(text.contains("75.0% saved"), "{text}");
    }
}
