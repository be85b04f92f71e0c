//! # autoscale — latency-targeted control of the virtual worker pool
//!
//! The Timeline makes pool size a runtime parameter; this module closes
//! the loop on it. The controller reads the same signals an SRE would
//! page on — the windowed p99 of completed-query latency
//! (`obs::timeseries`) and the multi-window SLO burn rate
//! (`obs::slo` semantics: fast **and** slow windows both over
//! threshold) — and resizes the active worker prefix between a min and
//! max bound.
//!
//! Stability comes from three standard guards:
//!
//! * a **hysteresis band** around the target: scale up above
//!   `target * 1.25`, down only below `target * 0.75`, so a p99
//!   hovering at the target never oscillates the pool;
//! * a **cooldown** between moves, so one burst produces one decision,
//!   not a staircase of them;
//! * **asymmetric steps**: up by half the current pool (fast escape
//!   from a burn), down by one (gentle reclaim — misjudging down is
//!   cheap to reverse, misjudging up burns SLO).
//!
//! The controller is pure arithmetic over deterministic window
//! snapshots at virtual instants, so a fixed seed replays the exact
//! same scale decisions byte-for-byte.

use aida_obs::json::Json;
use aida_obs::slo::{latency_burn, SloPolicy};
use aida_obs::timeseries::SlidingWindow;

/// Half-width of the no-action band as a fraction of the target.
const HYSTERESIS: f64 = 0.25;

/// Controller tuning. Construct with [`AutoscaleConfig::new`] and
/// adjust with the builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Smallest active pool the controller will hold.
    pub min_workers: usize,
    /// Largest active pool (also the thread-pool capacity the service
    /// provisions).
    pub max_workers: usize,
    /// The p99 latency the pool should hold, virtual seconds.
    pub target_p99_s: f64,
    /// Seconds between controller evaluations.
    pub evaluate_every_s: f64,
    /// Minimum seconds between two scale moves.
    pub cooldown_s: f64,
    /// Trailing window the p99 is measured over.
    pub window_s: f64,
    /// Burn-rate windows + threshold (shared with SLO evaluation).
    pub policy: SloPolicy,
}

impl AutoscaleConfig {
    /// A controller holding p99 ≤ `target_p99_s` with pool bounds
    /// `min..=max`.
    pub fn new(min_workers: usize, max_workers: usize, target_p99_s: f64) -> AutoscaleConfig {
        let min = min_workers.max(1);
        AutoscaleConfig {
            min_workers: min,
            max_workers: max_workers.max(min),
            target_p99_s,
            evaluate_every_s: 30.0,
            cooldown_s: 60.0,
            window_s: 240.0,
            policy: SloPolicy::default(),
        }
    }

    /// Sets the evaluation cadence.
    pub fn evaluate_every(mut self, seconds: f64) -> AutoscaleConfig {
        self.evaluate_every_s = seconds.max(1e-9);
        self
    }

    /// Sets the between-moves cooldown.
    pub fn cooldown(mut self, seconds: f64) -> AutoscaleConfig {
        self.cooldown_s = seconds.max(0.0);
        self
    }

    /// Sets the p99 measurement window.
    pub fn window(mut self, seconds: f64) -> AutoscaleConfig {
        self.window_s = seconds.max(1e-9);
        self
    }

    /// Sets the burn-rate policy.
    pub fn policy(mut self, policy: SloPolicy) -> AutoscaleConfig {
        self.policy = policy;
        self
    }
}

/// One committed resize, with the signals that justified it. Emitted
/// as a typed obs event and a `{"type":"scale"}` trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// Virtual instant of the move.
    pub at_s: f64,
    /// Active workers before.
    pub from: usize,
    /// Active workers after.
    pub to: usize,
    /// Windowed p99 at decision time.
    pub p99_s: f64,
    /// Fast-window latency burn rate at decision time.
    pub fast_burn: f64,
    /// Slow-window latency burn rate at decision time.
    pub slow_burn: f64,
    /// Admission-queue depth at decision time.
    pub queue_depth: usize,
}

impl ScaleEvent {
    /// `"up"` or `"down"`.
    pub fn direction(&self) -> &'static str {
        if self.to > self.from {
            "up"
        } else {
            "down"
        }
    }

    /// Serializes as a JSON object (trace lines).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("type", "scale")
            .field("at_s", self.at_s)
            .field("direction", self.direction())
            .field("from", self.from as u64)
            .field("to", self.to as u64)
            .field("p99_s", self.p99_s)
            .field("fast_burn", self.fast_burn)
            .field("slow_burn", self.slow_burn)
            .field("queue_depth", self.queue_depth as u64)
    }
}

/// The controller state machine. Feed it the live latency window at
/// dispatch instants; it answers with at most one [`ScaleEvent`] per
/// evaluation tick.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    workers: usize,
    next_eval_s: f64,
    last_move_s: f64,
}

impl Autoscaler {
    /// Starts the controller at `initial` active workers (clamped to
    /// the configured bounds).
    pub fn new(cfg: AutoscaleConfig, initial: usize) -> Autoscaler {
        let workers = initial.clamp(cfg.min_workers, cfg.max_workers);
        Autoscaler {
            cfg,
            workers,
            next_eval_s: 0.0,
            last_move_s: f64::NEG_INFINITY,
        }
    }

    /// The controller's current pool-size decision.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configuration.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// Evaluates the control signals at `now_s`. Returns a move if the
    /// cadence has elapsed, the cooldown permits, and the signals are
    /// outside the hysteresis band; `None` otherwise. Missed ticks
    /// (idle periods longer than the cadence) collapse into one
    /// evaluation — the controller never replays a backlog of stale
    /// decisions.
    pub fn observe(
        &mut self,
        now_s: f64,
        latency: &SlidingWindow,
        queue_depth: usize,
    ) -> Option<ScaleEvent> {
        if now_s < self.next_eval_s {
            return None;
        }
        self.next_eval_s = now_s + self.cfg.evaluate_every_s;

        // No completions in the window means no signal, not "p99 = 0":
        // deciding on an empty window would shrink an idle pool right
        // before the next burst. Hold instead.
        if latency.count_in(now_s, self.cfg.window_s) == 0 {
            return None;
        }

        let p99_s = latency.quantile_in(now_s, self.cfg.window_s, 0.99);
        let burn = |window_s: f64| latency_burn(latency, now_s, window_s, self.cfg.target_p99_s);
        let fast_burn = burn(self.cfg.policy.fast_window_s);
        let slow_burn = burn(self.cfg.policy.slow_window_s);

        if now_s - self.last_move_s < self.cfg.cooldown_s {
            return None;
        }

        let burning = fast_burn > self.cfg.policy.burn_threshold
            && slow_burn > self.cfg.policy.burn_threshold;
        let above = p99_s > self.cfg.target_p99_s * (1.0 + HYSTERESIS);
        let below = p99_s < self.cfg.target_p99_s * (1.0 - HYSTERESIS);

        let to = if burning || above {
            // Escape fast: grow by half the pool (rounded up).
            (self.workers + self.workers.div_ceil(2)).min(self.cfg.max_workers)
        } else if below && fast_burn == 0.0 && queue_depth <= self.workers {
            // Reclaim gently, and only when nothing is queued beyond
            // what the pool absorbs in one wave.
            self.workers.saturating_sub(1).max(self.cfg.min_workers)
        } else {
            self.workers
        };

        if to == self.workers {
            return None;
        }
        let event = ScaleEvent {
            at_s: now_s,
            from: self.workers,
            to,
            p99_s,
            fast_burn,
            slow_burn,
            queue_depth,
        };
        self.workers = to;
        self.last_move_s = now_s;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AutoscaleConfig {
        AutoscaleConfig::new(1, 8, 10.0)
            .evaluate_every(10.0)
            .cooldown(20.0)
            .window(300.0)
            .policy(SloPolicy {
                fast_window_s: 60.0,
                slow_window_s: 300.0,
                burn_threshold: 1.0,
            })
    }

    fn window() -> SlidingWindow {
        SlidingWindow::new(10.0, 60)
    }

    #[test]
    fn breach_scales_up_and_clear_scales_down() {
        let mut scaler = Autoscaler::new(config(), 2);
        let mut w = window();
        // Sustained breach: every query at 3x the target.
        for i in 0..60 {
            w.record(i as f64 * 5.0, 30.0);
        }
        let up = scaler.observe(300.0, &w, 9).expect("should scale up");
        assert_eq!(up.direction(), "up");
        assert_eq!((up.from, up.to), (2, 3));
        assert!(up.fast_burn > 1.0 && up.slow_burn > 1.0);

        // Burn clears: fresh fast samples all comfortably under target.
        for i in 0..120 {
            w.record(700.0 + i as f64 * 2.5, 2.0);
        }
        let down = scaler.observe(1000.0, &w, 0).expect("should scale down");
        assert_eq!(down.direction(), "down");
        assert_eq!((down.from, down.to), (3, 2));
    }

    #[test]
    fn hysteresis_band_holds_steady() {
        let mut scaler = Autoscaler::new(config(), 4);
        let mut w = window();
        // p99 right at the target: inside the band, no move ever.
        for i in 0..200 {
            w.record(i as f64 * 3.0, 10.0);
        }
        for tick in 0..20 {
            assert_eq!(scaler.observe(tick as f64 * 50.0, &w, 2), None);
        }
        assert_eq!(scaler.workers(), 4);
    }

    #[test]
    fn cooldown_spaces_moves() {
        let mut scaler = Autoscaler::new(config(), 2);
        let mut w = window();
        for i in 0..200 {
            w.record(i as f64 * 2.0, 50.0);
        }
        assert!(scaler.observe(100.0, &w, 10).is_some());
        // Next cadence tick lands inside the cooldown: suppressed.
        assert_eq!(scaler.observe(110.0, &w, 10), None);
        // After the cooldown the still-burning signal moves again.
        assert!(scaler.observe(125.0, &w, 10).is_some());
        assert_eq!(scaler.workers(), 5, "2 -> 3 -> 5 (half-pool steps)");
    }

    #[test]
    fn bounds_clamp_both_directions() {
        let mut scaler = Autoscaler::new(config(), 8);
        let mut w = window();
        for i in 0..200 {
            w.record(i as f64 * 2.0, 50.0);
        }
        // Already at max: a breach produces no event.
        assert_eq!(scaler.observe(100.0, &w, 10), None);

        let mut scaler = Autoscaler::new(config(), 1);
        let mut w = window();
        for i in 0..200 {
            w.record(i as f64 * 2.0, 0.5);
        }
        // Already at min: a quiet pool produces no event.
        assert_eq!(scaler.observe(100.0, &w, 0), None);
    }

    #[test]
    fn queue_pressure_blocks_scale_down() {
        let mut scaler = Autoscaler::new(config(), 4);
        let mut w = window();
        for i in 0..200 {
            w.record(i as f64 * 2.0, 1.0);
        }
        // Latency looks idyllic but the queue is deeper than the pool:
        // shrinking now would manufacture a breach.
        assert_eq!(scaler.observe(100.0, &w, 12), None);
        assert!(scaler.observe(200.0, &w, 0).is_some());
    }

    #[test]
    fn empty_window_never_moves() {
        let mut scaler = Autoscaler::new(config(), 3);
        let w = window();
        for tick in 0..10 {
            assert_eq!(scaler.observe(tick as f64 * 100.0, &w, 0), None);
        }
    }

    #[test]
    fn scale_event_json_shape() {
        let event = ScaleEvent {
            at_s: 120.0,
            from: 2,
            to: 3,
            p99_s: 42.5,
            fast_burn: 3.0,
            slow_burn: 1.5,
            queue_depth: 7,
        };
        let line = event.to_json().render();
        assert!(line.starts_with(r#"{"type":"scale","at_s":120"#));
        assert!(line.contains(r#""direction":"up""#));
        assert!(line.contains(r#""queue_depth":7"#));
    }
}
