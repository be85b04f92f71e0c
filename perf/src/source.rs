//! A `RequestSource` wrapper that watches the service from outside.
//!
//! Only the benchmark's own files may change, so the serving layer is
//! measured at the one seam it already exposes: every `RequestSource`
//! call is timestamped on its way in and out. The time inside the calls
//! is the front door's (`serve.source_busy_share`); the gap from the
//! previous call's return to a query's `on_completion` is that query's
//! dispatch + execute + settle time (`host_ms_*`).

use crate::spans::SpanLog;
use crate::trial::{Segment, Segmenter};
use aida_serve::{Completion, QueryRequest, RequestSource, ServiceReport, Shed, TenantId};
use std::collections::BTreeMap;

/// What one completed query looked like from outside.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySample {
    /// Host milliseconds the engine spent on it.
    pub host_ms: f64,
    /// Virtual-clock latency (the paper's time column).
    pub virt_s: f64,
    /// Billed simulated dollars.
    pub usd: f64,
    /// Answered, and correctly where the workload can check.
    pub ok: bool,
}

pub struct TimedSource<'a> {
    inner: &'a mut dyn RequestSource,
    log: &'a mut SpanLog,
    /// When the most recent callback returned.
    last_return_ns: u64,
    /// Host time spent inside the wrapped source.
    busy_ns: u64,
    /// Requests handed to the service.
    popped: u64,
    samples: Vec<QuerySample>,
    segmenter: Segmenter,
    /// Pop instants of in-flight requests, for the `request` lifetime
    /// spans (traced runs only).
    popped_at: BTreeMap<u64, u64>,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner` and starts the timed region's clock; a segment
    /// closes after every `segment_queries` completions.
    pub fn new(
        inner: &'a mut dyn RequestSource,
        log: &'a mut SpanLog,
        segment_queries: usize,
    ) -> TimedSource<'a> {
        let now = log.now_ns();
        TimedSource {
            inner,
            log,
            last_return_ns: now,
            busy_ns: 0,
            popped: 0,
            samples: Vec::new(),
            segmenter: Segmenter::start(segment_queries),
            popped_at: BTreeMap::new(),
        }
    }

    /// Stops the clock once `serve` has returned and hands back what
    /// was measured: `(segments, samples, requests popped, busy ns)`.
    pub fn finish_timing(self) -> (Vec<Segment>, Vec<QuerySample>, u64, u64) {
        (
            self.segmenter.finish(),
            self.samples,
            self.popped,
            self.busy_ns,
        )
    }

    /// Runs one wrapped call, charging its host time to the source.
    fn timed<R>(
        &mut self,
        name: &'static str,
        seq: Option<u64>,
        call: impl FnOnce(&mut dyn RequestSource) -> R,
    ) -> R {
        let start = self.log.now_ns();
        let out = call(self.inner);
        let end = self.log.now_ns();
        self.busy_ns += end - start;
        self.last_return_ns = end;
        self.log.record(name, start, end, seq, false);
        out
    }

    fn close_request(&mut self, seq: u64) {
        if let Some(popped) = self.popped_at.remove(&seq) {
            let end = self.last_return_ns;
            self.log.record("request", popped, end, Some(seq), true);
        }
    }
}

impl RequestSource for TimedSource<'_> {
    fn next_arrival(&mut self) -> Option<f64> {
        self.timed("source.next_arrival", None, |s| s.next_arrival())
    }

    fn pop(&mut self, horizon_s: f64) -> Option<QueryRequest> {
        let start = self.log.now_ns();
        let request = self.timed("source.pop", None, |s| s.pop(horizon_s));
        if let Some(r) = &request {
            self.popped += 1;
            if self.log.is_enabled() {
                self.popped_at.insert(r.seq, start);
            }
        }
        request
    }

    fn on_admitted(&mut self, seq: u64, tenant: &TenantId, at_s: f64) {
        self.timed("source.on_admitted", Some(seq), |s| {
            s.on_admitted(seq, tenant, at_s)
        });
    }

    fn on_shed(&mut self, shed: &Shed) {
        self.timed("source.on_shed", Some(shed.seq), |s| s.on_shed(shed));
        self.close_request(shed.seq);
    }

    fn on_completion(&mut self, completion: &Completion) {
        let ran_from = self.last_return_ns;
        let ran_to = self.log.now_ns();
        self.log
            .record("query.run", ran_from, ran_to, Some(completion.seq), false);
        self.samples.push(QuerySample {
            host_ms: (ran_to - ran_from) as f64 / 1e6,
            virt_s: completion.latency_s(),
            usd: completion.cost_usd,
            ok: completion.answered,
        });
        self.timed("source.on_completion", Some(completion.seq), |s| {
            s.on_completion(completion)
        });
        self.close_request(completion.seq);
        if self.segmenter.query_done() {
            // The reference just ran: harness time, not the next query's.
            self.last_return_ns = self.log.now_ns();
        }
    }

    fn finish(&mut self, report: &mut ServiceReport) {
        self.timed("source.finish", None, |s| s.finish(report));
    }
}
