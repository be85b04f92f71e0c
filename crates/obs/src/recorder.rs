//! The thread-safe trace recorder.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Spans are created only from sequential
//!    orchestration code, so span ids and tree shape are identical run to
//!    run. Leaf LLM calls are recorded as events and normalized (sorted
//!    by serialized form) when a [`Trace`] snapshot is taken, so threads
//!    sharing a recorder cannot reorder it, and the pinned traces keep
//!    that order. Timestamps are virtual seconds; wall-clock never appears.
//! 2. **Near-zero cost when disabled.** A disabled recorder is an
//!    `Option::None` — every method is a branch on a niche-optimized
//!    pointer and returns immediately, with no allocation and no lock.
//!    Span names and attribute values arrive as `impl Display` and are
//!    formatted only by an enabled recorder, so an untraced request
//!    builds no trace text.
//! 3. **No dependencies.** `std::sync::Mutex` guards one `State`; a
//!    single lock sidesteps lock-ordering hazards between the span stack
//!    and the span table.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::flight::FlightRing;
use crate::metric::{default_bounds, Gauge, Histogram};
use crate::report::Trace;
use crate::span::{SpanData, SpanKind};

/// Counts an owner keeps itself and the recorder reads when it takes a
/// trace, so counting costs the owner no recorder call per operation (a
/// memo's hits and misses: see `aida_llm::memo`).
pub trait CounterSource: Send + Sync {
    /// Adds the source's counters to `counters`.
    fn add_counters(&self, counters: &mut BTreeMap<String, u64>);
}

/// The attached [`CounterSource`]s, in attach order.
#[derive(Default)]
struct Sources(Vec<Arc<dyn CounterSource>>);

impl std::fmt::Debug for Sources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} counter sources", self.0.len())
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanData>,
    /// Innermost-open-span stack; events attach to the top.
    stack: Vec<usize>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, Gauge>,
    /// Events recorded while no span was open (defensive; should be rare).
    orphans: Vec<Event>,
    /// Flight recorder: bounded ring of the most recent typed events.
    flight: FlightRing,
    /// Where `flight_autodump` writes; set once by the runtime builder.
    flight_path: Option<PathBuf>,
    /// Counters read at [`Recorder::trace`], added to `counters`.
    sources: Sources,
}

#[derive(Debug, Default)]
struct Inner {
    state: Mutex<State>,
}

/// A cloneable handle to a shared trace store. The default handle is
/// *disabled*: all recording methods are no-ops.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// Creates an enabled recorder with an empty trace.
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// Creates a disabled recorder (same as `Recorder::default()`).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this handle records anything. Callers may use this to skip
    /// building event payloads entirely.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span as a child of the innermost open span and makes it
    /// the new innermost. `start_s` is virtual time from the `SimClock`.
    /// `name` is formatted only when this recorder is enabled: pass what
    /// the name is built from (`format_args!`, [`crate::clipped`], a
    /// `Display` value), not a built `String`.
    pub fn span(&self, kind: SpanKind, name: impl Display, start_s: f64) -> SpanHandle {
        let Some(inner) = &self.inner else {
            return SpanHandle { inner: None, id: 0 };
        };
        let name = name.to_string();
        let mut st = inner.state.lock().unwrap();
        let id = st.spans.len();
        let parent = st.stack.last().copied();
        st.spans
            .push(SpanData::new(id, parent, kind, name, start_s));
        st.stack.push(id);
        SpanHandle {
            inner: Some(Arc::clone(inner)),
            id,
        }
    }

    /// Attaches a typed event to the innermost open span and folds billed
    /// LLM attempts into that span's self aggregates.
    pub fn event(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        let target = st.stack.last().copied();
        match target {
            Some(id) => {
                let span = &mut st.spans[id];
                match &event {
                    Event::LlmCall {
                        input_tokens,
                        output_tokens,
                        cost_usd,
                        ..
                    }
                    | Event::FaultRetry {
                        billed_input_tokens: input_tokens,
                        billed_output_tokens: output_tokens,
                        cost_usd,
                        ..
                    } => {
                        // Receipts count fault retries as billed calls,
                        // so spans must too for the sums to line up.
                        span.calls += 1;
                        span.input_tokens += input_tokens;
                        span.output_tokens += output_tokens;
                        span.cost_usd += cost_usd;
                    }
                    _ => {}
                }
                st.flight.push_event(event.clone());
                let span = &mut st.spans[id];
                span.events.push(event);
            }
            None => {
                st.flight.push_event(event.clone());
                st.orphans.push(event);
            }
        }
    }

    /// Appends a note directly to the flight recorder without attaching
    /// an event to any span. Use for operational moments (recovery ran,
    /// a crash seam armed, an SLO alert tripped) that are not part of
    /// the deterministic trace.
    pub fn flight(&self, source: &str, kind: &str, detail: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        st.flight.push(source, kind, detail.into());
    }

    /// Sets the file `flight_autodump` writes to. Typically
    /// `results/traces/flight_<seed>.jsonl`, chosen by the runtime
    /// builder.
    pub fn set_flight_autodump(&self, path: impl Into<PathBuf>) {
        let Some(inner) = &self.inner else { return };
        inner.state.lock().unwrap().flight_path = Some(path.into());
    }

    /// The configured autodump path, if any.
    fn flight_autodump_path(&self) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        inner.state.lock().unwrap().flight_path.clone()
    }

    /// Dumps the flight ring to `path` (header line naming `reason`,
    /// then one JSON object per retained record).
    fn flight_dump_to(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let dump = {
            let st = inner.state.lock().unwrap();
            st.flight.render_dump(reason)
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, dump)
    }

    /// Best-effort dump to the configured autodump path. Returns the
    /// path written, or `None` when disabled, unconfigured, or the
    /// write failed — callers are usually mid-crash and must not turn a
    /// forensic nicety into a second failure.
    pub fn flight_autodump(&self, reason: &str) -> Option<PathBuf> {
        let path = self.flight_autodump_path()?;
        self.flight_dump_to(&path, reason).ok()?;
        Some(path)
    }

    /// Adds to a monotonic counter, creating it at zero.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        *st.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads `source`'s counters into every trace taken from now on.
    /// Attaching a source that is already attached does nothing.
    pub fn attach(&self, source: Arc<dyn CounterSource>) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        let addr = |s: &Arc<dyn CounterSource>| Arc::as_ptr(s).cast::<()>();
        if !st.sources.0.iter().any(|s| addr(s) == addr(&source)) {
            st.sources.0.push(source);
        }
    }

    /// Records one histogram sample, creating the histogram with the
    /// registry-default bounds for `name`.
    pub fn histogram_record(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        st.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(default_bounds(name)))
            .record(value);
    }

    /// Records a gauge sample (`value` at virtual instant `time_s`),
    /// creating the gauge on first use.
    pub fn gauge_set(&self, name: &str, time_s: f64, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock().unwrap();
        st.gauges
            .entry(name.to_string())
            .or_default()
            .set(time_s, value);
    }

    /// Takes a deterministic snapshot of the trace. Events inside each
    /// span are sorted by their serialized form so the snapshot is
    /// byte-stable regardless of the order events arrived in.
    pub fn trace(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let st = inner.state.lock().unwrap();
        let mut spans = st.spans.clone();
        for span in &mut spans {
            span.events.sort_by_key(|e| e.to_json().render());
            // Re-fold the dollar aggregate in sorted order: f64 addition is
            // not associative, so the arrival-order running sum kept by
            // `event()` can differ in the last bits between runs whose
            // events arrived in different orders. The integer
            // aggregates are order-insensitive and stand as recorded.
            // (Folded from +0.0 explicitly: `Iterator::sum` for f64 starts
            // at -0.0, which call-free spans would then display as "-$0".)
            span.cost_usd = span
                .events
                .iter()
                .map(|e| match e {
                    Event::LlmCall { cost_usd, .. } | Event::FaultRetry { cost_usd, .. } => {
                        *cost_usd
                    }
                    _ => 0.0,
                })
                .fold(0.0, |acc, c| acc + c);
        }
        let mut orphans = st.orphans.clone();
        orphans.sort_by_key(|e| e.to_json().render());
        let mut counters = st.counters.clone();
        for source in &st.sources.0 {
            source.add_counters(&mut counters);
        }
        Trace {
            spans,
            counters,
            histograms: st.histograms.clone(),
            gauges: st.gauges.clone(),
            orphans,
        }
    }

    /// Renders the human-readable profile (see [`Trace::explain_analyze`]).
    pub fn explain_analyze(&self) -> String {
        self.trace().explain_analyze()
    }

    /// Exports the trace as JSONL (see [`Trace::to_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        self.trace().to_jsonl()
    }
}

/// RAII guard for an open span. Prefer calling [`SpanHandle::finish`]
/// with an explicit virtual end time; dropping without finishing closes
/// the span with zero duration (its start time).
#[derive(Debug)]
pub struct SpanHandle {
    inner: Option<Arc<Inner>>,
    id: usize,
}

impl SpanHandle {
    /// Span id, when recording is enabled.
    pub fn id(&self) -> Option<usize> {
        self.inner.as_ref().map(|_| self.id)
    }

    /// Sets a free-form attribute on the span. `value` is formatted
    /// only when the span is recorded, as [`Recorder::span`]'s name is.
    pub fn attr(&self, key: &str, value: impl Display) {
        if let Some(inner) = &self.inner {
            let value = value.to_string();
            let mut st = inner.state.lock().unwrap();
            let id = self.id;
            st.spans[id].attrs.push((key.to_string(), value));
        }
    }

    /// Sets the rows-in/rows-out cardinality of the span.
    pub fn rows(&self, rows_in: usize, rows_out: usize) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().unwrap();
            let id = self.id;
            st.spans[id].rows_in = Some(rows_in);
            st.spans[id].rows_out = Some(rows_out);
        }
    }

    /// Closes the span at the given virtual time and pops it off the
    /// innermost-span stack.
    pub fn finish(mut self, end_s: f64) {
        self.close(Some(end_s));
    }

    fn close(&mut self, end_s: Option<f64>) {
        if let Some(inner) = self.inner.take() {
            let mut st = inner.state.lock().unwrap();
            if let Some(pos) = st.stack.iter().rposition(|&id| id == self.id) {
                st.stack.remove(pos);
            }
            if let Some(end) = end_s {
                let id = self.id;
                let span = &mut st.spans[id];
                span.end_s = end.max(span.start_s);
            }
        }
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        self.close(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        let span = r.span(SpanKind::Query, "q", 0.0);
        assert_eq!(span.id(), None);
        r.event(Event::Sql {
            statement: "SELECT 1".into(),
            rows_out: 1,
        });
        r.counter_add("c", 1);
        r.histogram_record("h", 1.0);
        span.finish(1.0);
        let t = r.trace();
        assert!(t.spans.is_empty() && t.counters.is_empty());
    }

    /// A `Display` value that counts how often it is formatted.
    struct Counted<'a>(&'a str, &'a std::cell::Cell<usize>);

    impl Display for Counted<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.1.set(self.1.get() + 1);
            f.write_str(self.0)
        }
    }

    #[test]
    fn a_disabled_recorder_formats_nothing() {
        let (names, values) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let r = Recorder::disabled();
        let span = r.span(SpanKind::Program, Counted("name", &names), 0.0);
        span.attr("plan", Counted("value", &values));
        span.attr("code", crate::clipped(Counted("value", &values), 4));
        span.finish(1.0);
        assert_eq!((names.get(), values.get()), (0, 0));
    }

    #[test]
    fn an_enabled_recorder_formats_each_value_once() {
        let (names, values) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let r = Recorder::new();
        let span = r.span(SpanKind::Program, Counted("step 3", &names), 0.0);
        span.attr("plan", Counted("a\tb", &values));
        span.attr("code", crate::clipped(Counted("x = 1\ny = 2", &values), 6));
        span.finish(1.0);
        assert_eq!((names.get(), values.get()), (1, 2));
        let t = r.trace();
        assert_eq!(t.spans[0].name, "step 3");
        let attrs: Vec<(&str, &str)> = t.spans[0]
            .attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(attrs, [("plan", "a\tb"), ("code", "x = 1…")]);
        assert_eq!(t.spans[0].attrs[1].1, crate::clip("x = 1\ny = 2", 6));
    }

    #[test]
    fn spans_nest_and_events_attach_to_innermost() {
        let r = Recorder::new();
        let q = r.span(SpanKind::Query, "q", 0.0);
        let op = r.span(SpanKind::AgenticOp, "op", 0.0);
        r.event(Event::LlmCall {
            model: "sim-4o".into(),
            input_tokens: 10,
            output_tokens: 5,
            cost_usd: 0.5,
            latency_s: 1.0,
            faulted: false,
        });
        op.finish(2.0);
        q.finish(3.0);
        let t = r.trace();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].calls, 1);
        assert_eq!(t.spans[1].input_tokens, 10);
        assert!((t.spans[1].cost_usd - 0.5).abs() < 1e-12);
        assert_eq!(t.spans[0].calls, 0, "event attached to innermost only");
        assert!((t.spans[0].end_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fault_retry_counts_as_billed_call() {
        let r = Recorder::new();
        let q = r.span(SpanKind::Query, "q", 0.0);
        r.event(Event::FaultRetry {
            model: "sim-4o".into(),
            backoff_s: 2.0,
            billed_input_tokens: 10,
            billed_output_tokens: 2,
            cost_usd: 0.1,
        });
        q.finish(1.0);
        let t = r.trace();
        assert_eq!(t.spans[0].calls, 1);
        assert_eq!(t.spans[0].output_tokens, 2);
    }

    #[test]
    fn drop_without_finish_pops_stack() {
        let r = Recorder::new();
        let q = r.span(SpanKind::Query, "q", 0.0);
        {
            let _op = r.span(SpanKind::AgenticOp, "op", 0.0);
        }
        // After the inner span dropped, events attach to the query again.
        r.event(Event::Sql {
            statement: "SELECT 1".into(),
            rows_out: 0,
        });
        q.finish(1.0);
        let t = r.trace();
        assert_eq!(t.spans[0].events.len(), 1);
        assert_eq!(t.spans[1].duration_s(), 0.0);
    }

    #[test]
    fn events_are_sorted_deterministically_in_snapshots() {
        let make = |order: &[u64]| {
            let r = Recorder::new();
            let q = r.span(SpanKind::Query, "q", 0.0);
            for &i in order {
                r.event(Event::LlmCall {
                    model: format!("m{i}"),
                    input_tokens: i,
                    output_tokens: 0,
                    cost_usd: 0.0,
                    latency_s: 0.0,
                    faulted: false,
                });
            }
            q.finish(1.0);
            r.trace().to_jsonl()
        };
        assert_eq!(make(&[1, 2, 3]), make(&[3, 1, 2]));
    }

    #[test]
    fn events_feed_the_flight_ring() {
        let r = Recorder::new();
        let q = r.span(SpanKind::Query, "q", 0.0);
        r.event(Event::Sql {
            statement: "SELECT 1".into(),
            rows_out: 1,
        });
        r.flight("serve.wal", "recovery", "replayed=3");
        q.finish(1.0);
        let records = r
            .inner
            .as_ref()
            .unwrap()
            .state
            .lock()
            .unwrap()
            .flight
            .records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].source, "event");
        assert_eq!(records[0].kind, "sql");
        assert_eq!(records[1].source, "serve.wal");
        assert_eq!(records[1].seq, 1);
    }

    #[test]
    fn flight_autodump_writes_configured_path() {
        let dir = std::env::temp_dir().join("aida_obs_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight_test.jsonl");
        let _ = std::fs::remove_file(&path);

        let r = Recorder::new();
        assert_eq!(r.flight_autodump("noop"), None, "unconfigured → None");
        r.set_flight_autodump(&path);
        r.flight("test", "note", "hello");
        let written = r.flight_autodump("unit_test").expect("dump path");
        assert_eq!(written, path);
        let dump = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"flight":"unit_test","events":1"#));
        assert!(lines[1].contains(r#""kind":"note""#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disabled_recorder_flight_is_inert() {
        let r = Recorder::disabled();
        r.flight("x", "y", "z");
        assert!(r.inner.is_none());
        r.set_flight_autodump("/nonexistent/flight.jsonl");
        assert_eq!(r.flight_autodump("crash"), None);
    }

    #[test]
    fn concurrent_events_do_not_lose_samples() {
        let r = Recorder::new();
        let q = r.span(SpanKind::Query, "q", 0.0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        r.counter_add("llm.calls", 1);
                        r.event(Event::LlmCall {
                            model: "sim-4o".into(),
                            input_tokens: 1,
                            output_tokens: 1,
                            cost_usd: 0.001,
                            latency_s: 0.5,
                            faulted: false,
                        });
                    }
                });
            }
        });
        q.finish(1.0);
        let t = r.trace();
        assert_eq!(t.counters["llm.calls"], 400);
        assert_eq!(t.spans[0].calls, 400);
        assert_eq!(t.spans[0].events.len(), 400);
    }
}
