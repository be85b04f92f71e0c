//! Monotonic counters, fixed-bucket histograms, timestamped gauges, and
//! exact percentile summaries.

use crate::json::Json;

/// A fixed-bound cumulative histogram (Prometheus-style, but `counts[i]`
/// is the number of samples in `(bounds[i-1], bounds[i]]`, with a final
/// overflow bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bucket bounds, ascending. `counts.len() == bounds.len() + 1`.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts; last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
}

impl Histogram {
    /// Creates an empty histogram with the given ascending bounds.
    pub fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Serializes as a JSON object (without its registry name).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("bounds", self.bounds.clone())
            .field(
                "counts",
                Json::Arr(self.counts.iter().map(|c| Json::Num(*c as f64)).collect()),
            )
            .field("count", self.count)
            .field("sum", self.sum)
    }
}

/// A gauge: a value sampled over virtual time. Unlike a counter it can go
/// down (queue depth, in-flight queries); every `set` keeps the sample so
/// renderers can report the trajectory, not just the final value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    /// `(virtual_time_s, value)` samples in recording order.
    pub samples: Vec<(f64, f64)>,
}

impl Gauge {
    /// Creates an empty gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Records the gauge's value at a virtual instant.
    pub fn set(&mut self, time_s: f64, value: f64) {
        self.samples.push((time_s, value));
    }

    /// The most recent value (0 when never set).
    pub fn last(&self) -> f64 {
        self.samples.last().map(|(_, v)| *v).unwrap_or(0.0)
    }

    /// The largest value ever recorded (0 when never set).
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }

    /// Serializes as a JSON object (without its registry name).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field(
                "samples",
                Json::Arr(
                    self.samples
                        .iter()
                        .map(|(t, v)| Json::Arr(vec![Json::Num(*t), Json::Num(*v)]))
                        .collect(),
                ),
            )
            .field("last", self.last())
            .field("max", self.max())
    }
}

/// An exact percentile summary: stores every sample and answers quantile
/// queries by nearest-rank on the sorted set. Simulation scale keeps the
/// sample counts small, so exactness beats sketching here — two runs at
/// the same seed summarize to identical bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The nearest-rank `q`-quantile (`q` in `[0, 1]`; 0 when empty).
    fn quantile(&self, q: f64) -> f64 {
        nearest_rank(self.samples.clone(), q)
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Serializes as a JSON object with the canonical percentiles.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("count", self.count() as u64)
            .field("mean", self.mean())
            .field("p50", self.p50())
            .field("p95", self.p95())
            .field("p99", self.p99())
    }
}

/// The nearest-rank `q`-quantile of `samples` (`q` in `[0, 1]`; 0 when
/// empty): the sample at rank `ceil(q * n)`, counting from 1.
pub(crate) fn nearest_rank(mut samples: Vec<f64>, q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
    samples[rank.min(samples.len()) - 1]
}

/// Default bucket bounds for a histogram name. Centralized so every
/// recorder produces identically-shaped histograms for the same metric.
pub fn default_bounds(name: &str) -> &'static [f64] {
    match name {
        crate::registry::LLM_TOKENS_PER_CALL => &[
            64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0,
        ],
        crate::registry::OPERATOR_SELECTIVITY => &[0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0],
        _ => &[0.1, 1.0, 10.0, 100.0, 1000.0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_upper_inclusive_with_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(1.0);
        h.record(5.0);
        h.record(50.0);
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 56.5).abs() < 1e-12);
        assert!((h.mean() - 14.125).abs() < 1e-12);
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new(&[1.0]);
        h.record(2.0);
        assert_eq!(
            h.to_json().render(),
            r#"{"bounds":[1],"counts":[0,1],"count":1,"sum":2}"#
        );
    }

    #[test]
    fn gauge_tracks_last_and_max() {
        let mut g = Gauge::new();
        assert_eq!(g.last(), 0.0);
        assert_eq!(g.max(), 0.0);
        g.set(0.0, 3.0);
        g.set(1.0, 7.0);
        g.set(2.0, 2.0);
        assert_eq!(g.last(), 2.0);
        assert_eq!(g.max(), 7.0);
        assert_eq!(g.samples.len(), 3);
        assert_eq!(
            g.to_json().render(),
            r#"{"samples":[[0,3],[1,7],[2,2]],"last":2,"max":7}"#
        );
    }

    #[test]
    fn summary_quantiles_are_nearest_rank() {
        let mut s = Summary::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p95(), 95.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(
            s.to_json().render(),
            r#"{"count":0,"mean":0,"p50":0,"p95":0,"p99":0}"#
        );
    }

    #[test]
    fn single_sample_summary() {
        let mut s = Summary::new();
        s.record(4.2);
        assert_eq!(s.p50(), 4.2);
        assert_eq!(s.p99(), 4.2);
    }
}
