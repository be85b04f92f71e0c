//! Virtual time.
//!
//! Experiments report simulated wall-clock seconds, not host time. The
//! clock is advanced explicitly by execution engines: a sequential agent
//! loop advances by each call's full latency, while the batched semantic
//! operator executor advances by the critical path of a parallel batch
//! (`total_latency / parallelism`, rounded up per wave).

use parking_lot::Mutex;
use std::sync::Arc;

/// A shared, monotonically-advancing virtual clock (seconds).
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_s: Arc<Mutex<f64>>,
}

impl SimClock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time in seconds.
    pub fn now(&self) -> f64 {
        *self.now_s.lock()
    }

    /// Advances the clock by `seconds` (negative advances are ignored).
    pub fn advance(&self, seconds: f64) {
        if seconds > 0.0 && seconds.is_finite() {
            *self.now_s.lock() += seconds;
        }
    }

    /// Advances by `seconds` `n` times over, one addition at a time under
    /// one lock: the same bits as `n` calls of [`SimClock::advance`]
    /// (floating-point sums are not associative, so one `n * seconds`
    /// advance would not be).
    pub fn advance_each(&self, seconds: f64, n: usize) {
        if seconds > 0.0 && seconds.is_finite() {
            let mut now = self.now_s.lock();
            for _ in 0..n {
                *now += seconds;
            }
        }
    }

    /// Advances by the elapsed virtual time of `n_calls` parallel calls of
    /// `total_latency_s` aggregate latency across `parallelism` workers:
    /// the critical path is `ceil(n/p)` waves of average call latency.
    pub fn advance_parallel(&self, total_latency_s: f64, n_calls: usize, parallelism: usize) {
        if n_calls == 0 {
            return;
        }
        let p = parallelism.max(1);
        let avg = total_latency_s / n_calls as f64;
        let waves = n_calls.div_ceil(p);
        self.advance(avg * waves as f64);
    }
}

/// A slot assigned by a [`Timeline`]: which worker ran the job and when,
/// in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledSlot {
    /// Index of the worker that served the job.
    pub worker: usize,
    /// Virtual start instant (seconds).
    pub start_s: f64,
    /// Virtual completion instant (seconds).
    pub end_s: f64,
}

/// Virtual-clock concurrency semantics for overlapping queries.
///
/// The shared [`SimClock`] is advanced serially by whichever execution is
/// holding the runtime, so it cannot express *overlap*: two queries served
/// by two workers should occupy the same virtual interval, not
/// concatenated ones. A `Timeline` models an `N`-worker pool as a
/// deterministic discrete-event simulation: jobs are submitted in a fixed
/// order with a ready instant and a measured duration, each is placed on
/// the earliest-free worker (lowest index breaking ties), and the slot
/// records the overlapped virtual start/end. Service latency, makespan,
/// and queue-wait all fall out of the slots — byte-identically across
/// runs, no matter how host threads interleave.
/// Autoscaling note: the pool has a fixed *capacity* (`workers()`) but
/// only the first `active()` workers accept new placements. Deactivating
/// a worker never cancels committed slots — its `free_at` survives, so a
/// later reactivation resumes from wherever its last job ended.
#[derive(Debug, Clone)]
pub struct Timeline {
    free_at: Vec<f64>,
    active: usize,
}

impl Timeline {
    /// Creates a timeline over `workers` parallel workers (at least 1),
    /// all active.
    pub fn new(workers: usize) -> Self {
        let n = workers.max(1);
        Timeline {
            free_at: vec![0.0; n],
            active: n,
        }
    }

    /// Pool capacity: total workers, active or not.
    pub fn workers(&self) -> usize {
        self.free_at.len()
    }

    /// Workers currently accepting placements (indices `0..active`).
    pub fn active(&self) -> usize {
        self.active
    }

    /// Resizes the active prefix of the pool, clamped to
    /// `1..=workers()`; returns the applied size. Placement only ever
    /// targets indices below the active count, so shrinking strands no
    /// committed work — a deactivated worker simply stops taking jobs.
    pub fn set_active(&mut self, n: usize) -> usize {
        self.active = n.clamp(1, self.free_at.len());
        self.active
    }

    /// The earliest virtual instant at which any *active* worker is free.
    pub fn next_free(&self) -> f64 {
        self.free_at[..self.active]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Places a job that becomes ready at `ready_s` and runs for
    /// `duration_s` onto the earliest-free worker; ties go to the lowest
    /// worker index so placement is deterministic. The choice of worker
    /// does not depend on `duration_s`, so a caller may run the job
    /// first and schedule it once its duration is known.
    pub fn schedule(&mut self, ready_s: f64, duration_s: f64) -> ScheduledSlot {
        let mut worker = 0;
        for i in 1..self.active {
            if self.free_at[i] < self.free_at[worker] {
                worker = i;
            }
        }
        let start_s = ready_s.max(self.free_at[worker]);
        let end_s = start_s + duration_s.max(0.0);
        self.free_at[worker] = end_s;
        ScheduledSlot {
            worker,
            start_s,
            end_s,
        }
    }

    /// The virtual instant the last worker finishes (0 when idle).
    pub fn makespan(&self) -> f64 {
        self.free_at.iter().copied().fold(0.0, f64::max)
    }
}

/// A wall-clock stopwatch for *measuring the harness itself* (e.g. the
/// recorder-overhead check in `serve_soak`). This is the only place in
/// the workspace allowed to touch host time (lint rule D1): wall-clock
/// readings must never feed a trace, a report, or any simulated result —
/// only meta-measurements that compare two executions of the harness.
#[derive(Debug)]
pub struct WallStopwatch {
    start: std::time::Instant,
}

impl Default for WallStopwatch {
    fn default() -> Self {
        Self::start()
    }
}

impl WallStopwatch {
    /// Starts timing now, in host time.
    pub fn start() -> Self {
        WallStopwatch {
            start: std::time::Instant::now(),
        }
    }

    /// Host seconds elapsed since `start`.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let clock = SimClock::new();
        clock.advance(1.5);
        clock.advance(0.5);
        assert!((clock.now() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_advances_ignored() {
        let clock = SimClock::new();
        clock.advance(-5.0);
        clock.advance(f64::NAN);
        assert_eq!(clock.now(), 0.0);
    }

    #[test]
    fn advance_each_is_one_advance_at_a_time() {
        let (each, one_by_one) = (SimClock::new(), SimClock::new());
        for clock in [&each, &one_by_one] {
            clock.advance(0.1);
        }
        each.advance_each(0.005, 52);
        for _ in 0..52 {
            one_by_one.advance(0.005);
        }
        assert_eq!(each.now().to_bits(), one_by_one.now().to_bits());
        // One product would round differently: the sum must be stepped.
        assert_ne!((0.1 + 0.005 * 52.0f64).to_bits(), each.now().to_bits());
        each.advance_each(-1.0, 3);
        assert_eq!(each.now().to_bits(), one_by_one.now().to_bits());
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        b.advance(3.0);
        assert_eq!(a.now(), 3.0);
    }

    #[test]
    fn parallel_advance_uses_waves() {
        let clock = SimClock::new();
        // 10 calls of 1s each over 4 workers: 3 waves of 1s.
        clock.advance_parallel(10.0, 10, 4);
        assert!((clock.now() - 3.0).abs() < 1e-9);
        // Zero calls: no movement.
        clock.advance_parallel(10.0, 0, 4);
        assert!((clock.now() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_equals_parallelism_one() {
        let clock = SimClock::new();
        clock.advance_parallel(7.0, 7, 1);
        assert!((clock.now() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_overlaps_jobs_across_workers() {
        let mut tl = Timeline::new(2);
        // Three 10s jobs all ready at t=0: two overlap, the third waits.
        let a = tl.schedule(0.0, 10.0);
        let b = tl.schedule(0.0, 10.0);
        let c = tl.schedule(0.0, 10.0);
        assert_eq!((a.worker, a.start_s, a.end_s), (0, 0.0, 10.0));
        assert_eq!((b.worker, b.start_s, b.end_s), (1, 0.0, 10.0));
        assert_eq!((c.worker, c.start_s, c.end_s), (0, 10.0, 20.0));
        assert_eq!(tl.makespan(), 20.0);
        assert_eq!(tl.next_free(), 10.0);
    }

    #[test]
    fn timeline_respects_ready_instants() {
        let mut tl = Timeline::new(1);
        let a = tl.schedule(5.0, 2.0);
        assert_eq!((a.start_s, a.end_s), (5.0, 7.0));
        // A job ready earlier than the worker frees still waits.
        let b = tl.schedule(6.0, 1.0);
        assert_eq!((b.start_s, b.end_s), (7.0, 8.0));
        // A gap: the worker idles until the job is ready.
        let c = tl.schedule(20.0, 1.0);
        assert_eq!((c.start_s, c.end_s), (20.0, 21.0));
    }

    #[test]
    fn timeline_ties_pick_lowest_worker() {
        let mut tl = Timeline::new(3);
        assert_eq!(tl.schedule(0.0, 0.0).worker, 0);
        // All still free at t=0 (zero-length job): lowest index again.
        assert_eq!(tl.schedule(0.0, 1.0).worker, 0);
        assert_eq!(tl.schedule(0.0, 1.0).worker, 1);
        assert_eq!(tl.schedule(0.0, 1.0).worker, 2);
        // Negative durations are clamped to zero-length slots.
        let s = tl.schedule(0.0, -4.0);
        assert_eq!(s.start_s, s.end_s);
    }

    #[test]
    fn timeline_active_prefix_bounds_placement() {
        let mut tl = Timeline::new(4);
        assert_eq!(tl.active(), 4);
        assert_eq!(tl.set_active(2), 2);
        // Two 10s jobs saturate the active pair; the third queues on
        // worker 0 even though workers 2/3 idle deactivated.
        let a = tl.schedule(0.0, 10.0);
        let b = tl.schedule(0.0, 10.0);
        let c = tl.schedule(0.0, 10.0);
        assert_eq!((a.worker, b.worker, c.worker), (0, 1, 0));
        assert_eq!(c.start_s, 10.0);
        assert_eq!(tl.next_free(), 10.0);
        // Reactivating exposes the idle workers again.
        tl.set_active(4);
        assert_eq!(tl.next_free(), 0.0);
        assert_eq!(tl.schedule(12.0, 1.0).worker, 2);
    }

    #[test]
    fn timeline_set_active_clamps() {
        let mut tl = Timeline::new(3);
        assert_eq!(tl.set_active(0), 1);
        assert_eq!(tl.set_active(9), 3);
        assert_eq!(tl.workers(), 3);
    }

    #[test]
    fn timeline_deactivation_preserves_committed_work() {
        let mut tl = Timeline::new(2);
        tl.schedule(0.0, 4.0); // worker 0 busy to t=4
        tl.schedule(0.0, 9.0); // worker 1 busy to t=9
        tl.set_active(1);
        assert_eq!(tl.makespan(), 9.0); // worker 1's slot survives
        tl.set_active(2);
        // Worker 1 resumes from its last end, not from zero.
        let s = tl.schedule(4.0, 10.0);
        assert_eq!((s.worker, s.start_s), (0, 4.0));
        let s = tl.schedule(4.0, 1.0);
        assert_eq!((s.worker, s.start_s), (1, 9.0));
    }

    #[test]
    fn timeline_zero_workers_is_one_worker() {
        let mut tl = Timeline::new(0);
        assert_eq!(tl.workers(), 1);
        let a = tl.schedule(0.0, 3.0);
        let b = tl.schedule(0.0, 3.0);
        assert_eq!(a.end_s, b.start_s);
    }

    #[test]
    fn wall_stopwatch_is_monotone() {
        let sw = WallStopwatch::start();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0 && b >= a);
    }
}
