//! Deterministic sliding-window time-series store.
//!
//! Whole-run counters and histograms answer "what happened over the
//! run"; the ROADMAP scaling items (latency-targeted autoscaling,
//! shard-aware placement) need "what is happening *now*". This module
//! provides that: a fixed-slot ring of windowed sample buckets keyed off
//! the virtual clock, answering count / mean / quantile queries over any
//! trailing window up to the ring's span.
//!
//! Determinism: slot assignment is pure arithmetic on virtual seconds,
//! samples are kept in insertion order inside each slot, and queries
//! gather slots in ascending slot-index order — so the same seed yields
//! byte-identical snapshots, exactly like the rest of `aida-obs`.

use std::collections::BTreeMap;

use crate::json::Json;

/// One ring slot: the slot index it currently holds samples for, plus
/// the raw samples recorded during that slot's interval.
#[derive(Debug, Clone, Default, PartialEq)]
struct Slot {
    /// Absolute slot index (`floor(t / slot_s)`) these samples belong to.
    idx: u64,
    /// True once any sample landed here for `idx` (distinguishes a live
    /// slot 0 from a never-touched slot).
    live: bool,
    samples: Vec<f64>,
}

/// A fixed-slot sliding window over one metric series.
///
/// The ring spans `slots * slot_s` virtual seconds; recording into a
/// slot whose stored index is stale resets it first, so old samples
/// roll off exactly at slot granularity — never dropped early, never
/// double-counted after expiry.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    slot_s: f64,
    ring: Vec<Slot>,
}

impl SlidingWindow {
    /// Creates a window of `slots` slots, each `slot_s` virtual seconds
    /// wide. Both must be positive.
    pub fn new(slot_s: f64, slots: usize) -> SlidingWindow {
        assert!(slot_s > 0.0, "slot width must be positive");
        assert!(slots > 0, "slot count must be positive");
        SlidingWindow {
            slot_s,
            ring: vec![Slot::default(); slots],
        }
    }

    /// Slot width in virtual seconds.
    pub fn slot_s(&self) -> f64 {
        self.slot_s
    }

    /// Number of ring slots.
    pub fn slots(&self) -> usize {
        self.ring.len()
    }

    /// Total virtual seconds the ring can span.
    pub fn span_s(&self) -> f64 {
        self.slot_s * self.ring.len() as f64
    }

    /// Absolute slot index for a virtual instant.
    fn slot_index(&self, time_s: f64) -> u64 {
        (time_s.max(0.0) / self.slot_s) as u64
    }

    /// Records `value` at virtual instant `now_s`.
    pub fn record(&mut self, now_s: f64, value: f64) {
        let idx = self.slot_index(now_s);
        let pos = (idx % self.ring.len() as u64) as usize;
        let slot = &mut self.ring[pos];
        if !slot.live || slot.idx != idx {
            slot.idx = idx;
            slot.live = true;
            slot.samples.clear();
        }
        slot.samples.push(value);
    }

    /// Gathers the samples of every slot inside the trailing window of
    /// `window_s` seconds ending at `now_s`, ascending by slot index
    /// (insertion order within a slot). `window_s` is clamped to the
    /// ring span; a window covers whole slots, so it includes the
    /// current (partial) slot plus the `k - 1` before it, where
    /// `k = ceil(window_s / slot_s)`.
    pub fn samples_in(&self, now_s: f64, window_s: f64) -> Vec<f64> {
        let k = self.window_slots(window_s);
        let now_idx = self.slot_index(now_s);
        let first_idx = now_idx.saturating_sub(k as u64 - 1);
        let mut picked: Vec<&Slot> = self
            .ring
            .iter()
            .filter(|s| s.live && s.idx >= first_idx && s.idx <= now_idx)
            .collect();
        picked.sort_by_key(|s| s.idx);
        picked
            .iter()
            .flat_map(|s| s.samples.iter().copied())
            .collect()
    }

    /// Number of whole slots a `window_s` query covers (≥ 1, ≤ ring len).
    fn window_slots(&self, window_s: f64) -> usize {
        ((window_s / self.slot_s).ceil() as usize).clamp(1, self.ring.len())
    }

    /// Sample count inside the trailing window.
    pub fn count_in(&self, now_s: f64, window_s: f64) -> u64 {
        let k = self.window_slots(window_s);
        let now_idx = self.slot_index(now_s);
        let first_idx = now_idx.saturating_sub(k as u64 - 1);
        self.ring
            .iter()
            .filter(|s| s.live && s.idx >= first_idx && s.idx <= now_idx)
            .map(|s| s.samples.len() as u64)
            .sum()
    }

    /// Sum of samples inside the trailing window (ascending slot order,
    /// folded from +0.0, so it is order-stable run to run).
    fn sum_in(&self, now_s: f64, window_s: f64) -> f64 {
        self.samples_in(now_s, window_s)
            .iter()
            .fold(0.0, |acc, v| acc + v)
    }

    /// Mean of samples inside the trailing window (0 when empty).
    pub fn mean_in(&self, now_s: f64, window_s: f64) -> f64 {
        let n = self.count_in(now_s, window_s);
        if n == 0 {
            0.0
        } else {
            self.sum_in(now_s, window_s) / n as f64
        }
    }

    /// Nearest-rank quantile over the trailing window (0 when empty), by
    /// the same function as [`crate::Summary`]'s percentiles.
    pub fn quantile_in(&self, now_s: f64, window_s: f64, q: f64) -> f64 {
        crate::metric::nearest_rank(self.samples_in(now_s, window_s), q)
    }

    /// Fraction of windowed samples strictly above `threshold` (0 when
    /// the window is empty). The SLO burn-rate math builds on this.
    pub fn fraction_over(&self, now_s: f64, window_s: f64, threshold: f64) -> f64 {
        let samples = self.samples_in(now_s, window_s);
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().filter(|v| **v > threshold).count() as f64 / samples.len() as f64
    }

    /// Snapshot of the trailing window's canonical statistics.
    pub fn snapshot(&self, now_s: f64, window_s: f64) -> WindowSnapshot {
        WindowSnapshot {
            window_s: window_s.min(self.span_s()),
            count: self.count_in(now_s, window_s),
            mean: self.mean_in(now_s, window_s),
            p50: self.quantile_in(now_s, window_s, 0.50),
            p95: self.quantile_in(now_s, window_s, 0.95),
            p99: self.quantile_in(now_s, window_s, 0.99),
        }
    }
}

/// Canonical statistics of one trailing window, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Effective window span in virtual seconds.
    pub window_s: f64,
    /// Samples inside the window.
    pub count: u64,
    /// Mean (0 when empty).
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl WindowSnapshot {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("window_s", self.window_s)
            .field("count", self.count)
            .field("mean", self.mean)
            .field("p50", self.p50)
            .field("p95", self.p95)
            .field("p99", self.p99)
    }
}

/// A keyed collection of [`SlidingWindow`]s sharing one slot geometry.
/// Keys are registry names, optionally suffixed per tenant via
/// [`crate::registry::tenant_series`]. BTreeMap keeps iteration (and
/// therefore every export) deterministic.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    slot_s: f64,
    slots: usize,
    series: BTreeMap<String, SlidingWindow>,
}

impl SeriesStore {
    /// Creates a store whose windows all use `slots` slots of `slot_s`
    /// virtual seconds.
    pub fn new(slot_s: f64, slots: usize) -> SeriesStore {
        assert!(slot_s > 0.0, "slot width must be positive");
        assert!(slots > 0, "slot count must be positive");
        SeriesStore {
            slot_s,
            slots,
            series: BTreeMap::new(),
        }
    }

    /// Slot width in virtual seconds.
    pub fn slot_s(&self) -> f64 {
        self.slot_s
    }

    /// Ring length shared by every series.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Records `value` into `series` at `now_s`, creating the series on
    /// first use.
    pub fn record(&mut self, series: &str, now_s: f64, value: f64) {
        let (slot_s, slots) = (self.slot_s, self.slots);
        self.series
            .entry(series.to_string())
            .or_insert_with(|| SlidingWindow::new(slot_s, slots))
            .record(now_s, value);
    }

    /// The series for `name`, if any sample was ever recorded.
    pub fn series(&self, name: &str) -> Option<&SlidingWindow> {
        self.series.get(name)
    }

    /// Series names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_roll_off_at_slot_granularity() {
        // 3 slots of 10s: span 30s.
        let mut w = SlidingWindow::new(10.0, 3);
        w.record(5.0, 1.0); // slot 0
        w.record(15.0, 2.0); // slot 1
        w.record(25.0, 3.0); // slot 2
        assert_eq!(w.count_in(25.0, 30.0), 3);
        // Recording in slot 3 overwrites ring position 0 (slot 0).
        w.record(35.0, 4.0);
        assert_eq!(w.count_in(35.0, 30.0), 3);
        let s = w.samples_in(35.0, 30.0);
        assert_eq!(s, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn window_narrower_than_ring() {
        let mut w = SlidingWindow::new(10.0, 6);
        for i in 0..6 {
            w.record(i as f64 * 10.0, i as f64);
        }
        // 20s window at t=55 → slots 4 and 5.
        assert_eq!(w.samples_in(55.0, 20.0), vec![4.0, 5.0]);
        assert_eq!(w.count_in(55.0, 20.0), 2);
        // Window clamps to ring span.
        assert_eq!(w.count_in(55.0, 1e9), 6);
    }

    #[test]
    fn quantiles_match_summary_semantics() {
        let mut w = SlidingWindow::new(1.0, 200);
        for v in 1..=100 {
            w.record(v as f64, v as f64);
        }
        assert_eq!(w.quantile_in(100.0, 200.0, 0.50), 50.0);
        assert_eq!(w.quantile_in(100.0, 200.0, 0.95), 95.0);
        assert_eq!(w.quantile_in(100.0, 200.0, 0.99), 99.0);
        assert!((w.mean_in(100.0, 200.0) - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_zero() {
        let w = SlidingWindow::new(10.0, 3);
        assert_eq!(w.count_in(100.0, 30.0), 0);
        assert_eq!(w.quantile_in(100.0, 30.0, 0.99), 0.0);
        assert_eq!(w.mean_in(100.0, 30.0), 0.0);
    }

    #[test]
    fn stale_slot_not_counted_without_overwrite() {
        let mut w = SlidingWindow::new(10.0, 3);
        w.record(5.0, 1.0); // slot 0
                            // At t=95 (slot 9), slot 0's samples are far outside the window
                            // even though nothing overwrote ring position 0.
        assert_eq!(w.count_in(95.0, 30.0), 0);
    }

    #[test]
    fn fraction_over_counts_strict_exceedances() {
        let mut w = SlidingWindow::new(10.0, 4);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.record(0.0, v);
        }
        assert!((w.fraction_over(0.0, 40.0, 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(w.fraction_over(0.0, 40.0, 10.0), 0.0);
    }

    #[test]
    fn store_is_sorted_and_deterministic() {
        let mut s = SeriesStore::new(10.0, 3);
        s.record("b.series", 0.0, 1.0);
        s.record("a.series", 0.0, 2.0);
        let names: Vec<&str> = s.names().collect();
        assert_eq!(names, vec!["a.series", "b.series"]);
        assert_eq!(s.series["a.series"].snapshot(0.0, 30.0).count, 1);
    }

    #[test]
    fn snapshot_json_shape() {
        let mut w = SlidingWindow::new(10.0, 3);
        w.record(0.0, 2.0);
        assert_eq!(
            w.snapshot(0.0, 30.0).to_json().render(),
            r#"{"window_s":30,"count":1,"mean":2,"p50":2,"p95":2,"p99":2}"#
        );
    }
}
