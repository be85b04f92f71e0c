//! Trace snapshots and the two renderers: `EXPLAIN ANALYZE` text and
//! JSONL export.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::event::Event;
use crate::json::Json;
use crate::metric::{Gauge, Histogram};
use crate::span::SpanData;

/// Inclusive totals for a span subtree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Billed LLM attempts (successes + fault retries).
    pub calls: u64,
    /// Input tokens billed.
    pub input_tokens: u64,
    /// Output tokens billed.
    pub output_tokens: u64,
    /// Dollars billed.
    pub cost_usd: f64,
}

/// An immutable, deterministic snapshot of a recorder's state.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in creation (id) order.
    pub spans: Vec<SpanData>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Gauges (values sampled over virtual time).
    pub gauges: BTreeMap<String, Gauge>,
    /// Events recorded with no open span.
    pub orphans: Vec<Event>,
}

impl Trace {
    /// Ids of root spans (no parent), in creation order.
    pub fn roots(&self) -> Vec<usize> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.id)
            .collect()
    }

    /// Ids of direct children of `id`, in creation order.
    pub fn children(&self, id: usize) -> Vec<usize> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.id)
            .collect()
    }

    /// Inclusive totals for the subtree rooted at `id` (self + all
    /// descendants).
    pub fn inclusive(&self, id: usize) -> SpanTotals {
        let span = &self.spans[id];
        let mut totals = SpanTotals {
            calls: span.calls,
            input_tokens: span.input_tokens,
            output_tokens: span.output_tokens,
            cost_usd: span.cost_usd,
        };
        for child in self.children(id) {
            let sub = self.inclusive(child);
            totals.calls += sub.calls;
            totals.input_tokens += sub.input_tokens;
            totals.output_tokens += sub.output_tokens;
            totals.cost_usd += sub.cost_usd;
        }
        totals
    }

    /// Renders the `EXPLAIN ANALYZE`-style profile: one tree per root
    /// (query) span, each row showing rows in/out, inclusive billed
    /// calls, inclusive $ and virtual seconds, and the percentage of the
    /// enclosing query's totals, followed by a counters block.
    pub fn explain_analyze(&self) -> String {
        let mut out = String::from("EXPLAIN ANALYZE\n");
        if self.spans.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for root in self.roots() {
            let root_totals = self.inclusive(root);
            let root_duration = self.spans[root].duration_s();
            self.render_node(&mut out, root, "", true, &root_totals, root_duration);
        }
        if let Some(line) = self.cache_summary() {
            out.push_str(&line);
            out.push('\n');
        }
        if let Some(line) = self.durability_summary() {
            out.push_str(&line);
            out.push('\n');
        }
        if let Some(line) = self.health_summary() {
            out.push_str(&line);
            out.push('\n');
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name} = {value}");
            }
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {name}: count={} mean={:.2}",
                h.count,
                h.mean()
            );
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(
                out,
                "gauge {name}: samples={} last={:.2} max={:.2}",
                g.samples.len(),
                g.last(),
                g.max()
            );
        }
        out
    }

    /// One-line semantic-cache summary from the `cache.*` counters and
    /// the `cache.bytes` gauge, or `None` when no cache activity was
    /// recorded.
    fn cache_summary(&self) -> Option<String> {
        use crate::registry;
        let hits = self.counters.get(registry::CACHE_HIT).copied().unwrap_or(0);
        let coalesced = self
            .counters
            .get(registry::CACHE_COALESCED)
            .copied()
            .unwrap_or(0);
        let misses = self
            .counters
            .get(registry::CACHE_MISS)
            .copied()
            .unwrap_or(0);
        let lookups = hits + coalesced + misses;
        if lookups == 0 {
            return None;
        }
        let rate = 100.0 * (hits + coalesced) as f64 / lookups as f64;
        let bytes = self
            .gauges
            .get(crate::registry::CACHE_BYTES)
            .map(|g| format!(", {:.0} bytes resident", g.last()))
            .unwrap_or_default();
        Some(format!(
            "semantic cache: {hits} hits / {coalesced} coalesced / {misses} misses (hit rate {rate:.1}%{bytes})"
        ))
    }

    /// One-line durability summary from the `checkpoint.*`, `wal.*`, and
    /// `state.*` counters, or `None` when no durable-state activity was
    /// recorded.
    fn durability_summary(&self) -> Option<String> {
        use crate::registry;
        let count = |name: &str| self.counters.get(name).copied().unwrap_or(0);
        let saves = count(registry::CHECKPOINT_SAVES);
        let restored = count(registry::STATE_RESTORED_CONTEXTS);
        let appends = count(registry::WAL_APPENDS);
        let replayed = count(registry::WAL_REPLAYED_RECORDS);
        let errors = count(registry::CHECKPOINT_ERRORS) + count(registry::WAL_APPEND_ERRORS);
        if saves + restored + appends + replayed + errors == 0 {
            return None;
        }
        Some(format!(
            "durability: {saves} checkpoints / {appends} wal appends (restored {restored} contexts, replayed {replayed} records, {errors} errors)"
        ))
    }

    /// One-line runtime-health summary from the `slo.alerts` counter, or
    /// `None` when no SLO evaluation ran. The counter exists (possibly
    /// at zero) whenever the service evaluated tenant SLOs.
    fn health_summary(&self) -> Option<String> {
        let alerts = self.counters.get(crate::registry::SLO_ALERTS).copied()?;
        let verdict = if alerts == 0 { "ok" } else { "breach" };
        Some(format!("health: {alerts} slo burn-rate alerts ({verdict})"))
    }

    fn render_node(
        &self,
        out: &mut String,
        id: usize,
        prefix: &str,
        is_last: bool,
        root_totals: &SpanTotals,
        root_duration: f64,
    ) {
        let span = &self.spans[id];
        let totals = self.inclusive(id);
        let duration = span.duration_s();
        let connector = if prefix.is_empty() {
            ""
        } else if is_last {
            "└─ "
        } else {
            "├─ "
        };
        let rows = match (span.rows_in, span.rows_out) {
            (Some(i), Some(o)) => format!("  rows={i}->{o}"),
            (None, Some(o)) => format!("  rows=->{o}"),
            _ => String::new(),
        };
        let pct_cost = if root_totals.cost_usd > 0.0 {
            100.0 * totals.cost_usd / root_totals.cost_usd
        } else {
            0.0
        };
        let pct_time = if root_duration > 0.0 {
            100.0 * duration / root_duration
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{prefix}{connector}{} \"{}\"{rows}  calls={}  ${:.6} ({:.1}%)  {:.3}s ({:.1}%)",
            span.kind.name(),
            span.name,
            totals.calls,
            totals.cost_usd,
            pct_cost,
            duration,
            pct_time,
        );
        let children = self.children(id);
        let child_prefix = if prefix.is_empty() {
            "   ".to_string()
        } else {
            format!("{prefix}{}", if is_last { "   " } else { "│  " })
        };
        for (i, child) in children.iter().enumerate() {
            self.render_node(
                out,
                *child,
                &child_prefix,
                i + 1 == children.len(),
                root_totals,
                root_duration,
            );
        }
    }

    /// Exports the trace as JSONL: one `span` line per span in id order,
    /// then one `counters` line, one `histogram` line per histogram, and
    /// an `orphan_events` line when any exist. Deterministic byte-for-byte
    /// for a given recorded state.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&span.to_json().render());
            out.push('\n');
        }
        let mut counters = Json::obj().field("type", "counters");
        for (name, value) in &self.counters {
            counters = counters.field(name, *value);
        }
        out.push_str(&counters.render());
        out.push('\n');
        for (name, h) in &self.histograms {
            let line = Json::obj()
                .field("type", "histogram")
                .field("name", name.as_str())
                .field("data", h.to_json());
            out.push_str(&line.render());
            out.push('\n');
        }
        for (name, g) in &self.gauges {
            let line = Json::obj()
                .field("type", "gauge")
                .field("name", name.as_str())
                .field("data", g.to_json());
            out.push_str(&line.render());
            out.push('\n');
        }
        if !self.orphans.is_empty() {
            let line = Json::obj().field("type", "orphan_events").field(
                "events",
                Json::Arr(self.orphans.iter().map(Event::to_json).collect()),
            );
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::span::SpanKind;

    fn sample() -> Recorder {
        let r = Recorder::new();
        let q = r.span(SpanKind::Query, "demo", 0.0);
        let op = r.span(SpanKind::AgenticOp, "compute", 0.0);
        op.rows(100, 10);
        r.event(Event::LlmCall {
            model: "sim-4o".into(),
            input_tokens: 100,
            output_tokens: 10,
            cost_usd: 0.25,
            latency_s: 4.0,
            faulted: false,
        });
        op.finish(4.0);
        let op2 = r.span(SpanKind::AgenticOp, "search", 4.0);
        r.event(Event::LlmCall {
            model: "sim-4o-mini".into(),
            input_tokens: 50,
            output_tokens: 5,
            cost_usd: 0.75,
            latency_s: 2.0,
            faulted: false,
        });
        op2.finish(6.0);
        q.finish(6.0);
        r.counter_add("llm.calls", 2);
        r
    }

    #[test]
    fn inclusive_totals_sum_children() {
        let t = sample().trace();
        let root = t.roots()[0];
        let totals = t.inclusive(root);
        assert_eq!(totals.calls, 2);
        assert!((totals.cost_usd - 1.0).abs() < 1e-12);
        let child_sum: f64 = t
            .children(root)
            .iter()
            .map(|c| t.inclusive(*c).cost_usd)
            .sum();
        assert!((child_sum - totals.cost_usd).abs() < 1e-12);
    }

    #[test]
    fn explain_analyze_shows_tree_and_percentages() {
        let text = sample().explain_analyze();
        assert!(text.starts_with("EXPLAIN ANALYZE\n"));
        assert!(text.contains("query \"demo\""));
        assert!(text.contains("├─ agentic_op \"compute\""));
        assert!(text.contains("└─ agentic_op \"search\""));
        assert!(text.contains("rows=100->10"));
        assert!(text.contains("(100.0%)"));
        assert!(text.contains("(25.0%)"), "compute is 25% of $1.00:\n{text}");
        assert!(text.contains("llm.calls = 2"));
    }

    #[test]
    fn jsonl_lists_spans_then_counters() {
        let jsonl = sample().export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with(r#"{"type":"span","id":0"#));
        assert!(lines[3].starts_with(r#"{"type":"counters""#));
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn gauges_render_and_export() {
        let r = sample();
        r.gauge_set("serve.queue_depth", 0.0, 2.0);
        r.gauge_set("serve.queue_depth", 3.0, 5.0);
        r.gauge_set("serve.queue_depth", 6.0, 1.0);
        let text = r.explain_analyze();
        assert!(
            text.contains("gauge serve.queue_depth: samples=3 last=1.00 max=5.00"),
            "{text}"
        );
        let jsonl = r.export_jsonl();
        assert!(jsonl.contains(
            r#"{"type":"gauge","name":"serve.queue_depth","data":{"samples":[[0,2],[3,5],[6,1]],"last":1,"max":5}}"#
        ));
        // Disabled recorders ignore gauge sets.
        let off = Recorder::disabled();
        off.gauge_set("x", 0.0, 1.0);
        assert!(off.trace().gauges.is_empty());
    }

    #[test]
    fn cache_counters_render_a_summary_line() {
        let r = sample();
        // No cache activity: no summary.
        assert!(r.trace().cache_summary().is_none());
        assert!(!r.explain_analyze().contains("semantic cache:"));
        r.counter_add("cache.hit", 6);
        r.counter_add("cache.coalesced", 2);
        r.counter_add("cache.miss", 8);
        r.gauge_set("cache.bytes", 16.0, 2048.0);
        let text = r.explain_analyze();
        assert!(
            text.contains(
                "semantic cache: 6 hits / 2 coalesced / 8 misses (hit rate 50.0%, 2048 bytes resident)"
            ),
            "{text}"
        );
    }

    #[test]
    fn durability_counters_render_a_summary_line() {
        let r = sample();
        // No durable-state activity: no summary.
        assert!(r.trace().durability_summary().is_none());
        assert!(!r.explain_analyze().contains("durability:"));
        r.counter_add("checkpoint.saves", 3);
        r.counter_add("wal.appends", 12);
        r.counter_add("state.restored_contexts", 2);
        r.counter_add("wal.replayed_records", 7);
        let text = r.explain_analyze();
        assert!(
            text.contains(
                "durability: 3 checkpoints / 12 wal appends (restored 2 contexts, replayed 7 records, 0 errors)"
            ),
            "{text}"
        );
    }

    #[test]
    fn slo_counter_renders_a_health_line() {
        let r = sample();
        assert!(r.trace().health_summary().is_none());
        assert!(!r.explain_analyze().contains("health:"));
        r.counter_add("slo.alerts", 0);
        assert_eq!(
            r.trace().health_summary().as_deref(),
            Some("health: 0 slo burn-rate alerts (ok)")
        );
        r.counter_add("slo.alerts", 2);
        let text = r.explain_analyze();
        assert!(
            text.contains("health: 2 slo burn-rate alerts (breach)"),
            "{text}"
        );
    }

    #[test]
    fn empty_trace_renders() {
        let t = Trace::default();
        assert!(t.explain_analyze().contains("no spans"));
        assert_eq!(t.to_jsonl(), "{\"type\":\"counters\"}\n");
    }
}
