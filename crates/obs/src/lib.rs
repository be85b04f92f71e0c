//! `aida-obs`: the unified tracing & metrics layer.
//!
//! The paper argues an AI-analytics runtime must attribute cost, latency,
//! and quality to individual operators so the optimizer and the
//! ContextManager can act on them. This crate is that attribution
//! substrate: a dependency-free, thread-safe [`Recorder`] holding
//!
//! * a hierarchical **span tree** (query → agentic op → agent step →
//!   program tool call → physical operator) in virtual time,
//! * typed **events** (LLM call, fault retry, context-reuse hit/miss,
//!   SQL statement, rewrite applied) attached to the innermost span,
//! * monotonic **counters** and fixed-bucket **histograms**
//!   (calls-per-model, tokens-per-call, operator selectivity).
//!
//! Two renderers sit on top of a [`report::Trace`] snapshot:
//! [`Trace::explain_analyze`](report::Trace::explain_analyze) (a
//! human-readable `EXPLAIN ANALYZE` tree with per-span rows, calls, $,
//! virtual seconds, and % of the query total) and
//! [`Trace::to_jsonl`](report::Trace::to_jsonl) (a byte-deterministic
//! JSONL export written by the bench binaries under `results/traces/`).
//!
//! Everything is keyed to the simulated clock — no wall-clock value ever
//! enters a trace — so two runs at the same seed export identical bytes.
//!
//! On top of the whole-run trace sits the **runtime health layer**:
//! [`timeseries`] (a deterministic sliding-window store answering
//! windowed p50/p95/p99, queue depth, hit-rate, and burn-rate queries),
//! [`slo`] (per-tenant targets with multi-window burn-rate alerting),
//! and [`flight`] (a bounded ring of recent typed events dumped for
//! forensics when a crash seam fires, a recovery path runs, or an SLO
//! alert trips). Metric names live in one place — [`registry`] — and
//! lint rule O1 keeps them there.

pub mod event;
pub mod flight;
pub mod json;
pub mod metric;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use event::Event;
pub use flight::{FlightRecord, FlightRing};
pub use json::Json;
pub use metric::{Gauge, Histogram, Summary};
pub use recorder::{Recorder, SpanHandle};
pub use report::{SpanTotals, Trace};
pub use slo::{BurnRate, SloKind, SloPolicy, SloTarget, SloVerdict};
pub use span::{clip, SpanData, SpanKind};
pub use timeseries::{SeriesStore, SlidingWindow, WindowSnapshot};
