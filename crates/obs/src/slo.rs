//! Per-tenant SLO targets and multi-window burn-rate evaluation.
//!
//! A tenant declares targets — a p99 latency bound and/or a $/query
//! ceiling — and the service evaluates them against the windowed health
//! series (`obs::timeseries`) the way an SRE would: compare the error
//! budget actually burned over a *fast* and a *slow* trailing window,
//! and alert only when **both** exceed the threshold. The fast window
//! makes alerts responsive; the slow window keeps a brief spike from
//! paging anyone.
//!
//! Burn-rate semantics:
//!
//! * **Latency**: the target "p99 ≤ T" grants a 1% error budget (1% of
//!   queries may exceed T). Burn rate = observed fraction over T ÷ 1%,
//!   so burn 1.0 = exactly on budget, burn 3.0 = breaching three times
//!   as fast as the budget allows.
//! * **Cost**: burn rate = windowed mean $/query ÷ the declared
//!   ceiling; burn 1.0 = spending exactly at the ceiling.
//!
//! Everything is pure arithmetic on deterministic window snapshots, so
//! verdicts are byte-stable run to run.

use crate::json::Json;
use crate::timeseries::SlidingWindow;

/// Error budget implied by a p99 target: 1% of requests may exceed it.
const P99_BUDGET: f64 = 0.01;

/// Declared service-level objectives for one tenant. `None` fields are
/// simply not evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloTarget {
    /// 99% of queries must complete within this many virtual seconds.
    pub p99_latency_s: Option<f64>,
    /// Mean dollars per completed query must stay at or below this.
    pub usd_per_query: Option<f64>,
}

impl SloTarget {
    /// A target with no objectives (never alerts).
    pub fn none() -> SloTarget {
        SloTarget::default()
    }

    /// Sets the p99 latency bound in virtual seconds.
    pub fn p99_latency(mut self, seconds: f64) -> SloTarget {
        self.p99_latency_s = Some(seconds);
        self
    }

    /// Sets the $/query ceiling.
    pub fn usd_per_query(mut self, dollars: f64) -> SloTarget {
        self.usd_per_query = Some(dollars);
        self
    }
}

/// Evaluation windows and alert threshold shared by every tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Fast (responsive) trailing window, virtual seconds.
    pub fast_window_s: f64,
    /// Slow (spike-suppressing) trailing window, virtual seconds.
    pub slow_window_s: f64,
    /// Alert when both windows burn faster than this (1.0 = on budget).
    pub burn_threshold: f64,
}

impl Default for SloPolicy {
    fn default() -> SloPolicy {
        SloPolicy {
            fast_window_s: 60.0,
            slow_window_s: 300.0,
            burn_threshold: 1.0,
        }
    }
}

/// Which objective a burn-rate pair belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// The p99 latency objective.
    Latency,
    /// The $/query objective.
    Cost,
}

impl SloKind {
    /// Stable lowercase identifier used in reports and JSONL.
    pub fn name(&self) -> &'static str {
        match self {
            SloKind::Latency => "latency",
            SloKind::Cost => "cost",
        }
    }
}

/// Burn rates of one objective over both evaluation windows.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRate {
    /// Objective this burn pair evaluates.
    pub kind: SloKind,
    /// Burn over the fast window.
    pub fast: f64,
    /// Burn over the slow window.
    pub slow: f64,
    /// True when both windows exceed the policy threshold.
    pub alerting: bool,
}

impl BurnRate {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("kind", self.kind.name())
            .field("fast_burn", self.fast)
            .field("slow_burn", self.slow)
            .field("alerting", self.alerting)
    }
}

/// One tenant's SLO evaluation: burn rates per declared objective and
/// the overall verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Tenant id the verdict applies to.
    pub tenant: String,
    /// Burn rates, in [`SloKind`] declaration order (latency, cost).
    pub burns: Vec<BurnRate>,
    /// True when any objective is alerting.
    pub alerting: bool,
}

impl SloVerdict {
    /// `"ok"` or `"breach"`, for dashboards.
    pub fn verdict(&self) -> &'static str {
        if self.alerting {
            "breach"
        } else {
            "ok"
        }
    }

    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("tenant", self.tenant.as_str())
            .field("verdict", self.verdict())
            .field(
                "burns",
                Json::Arr(self.burns.iter().map(BurnRate::to_json).collect()),
            )
    }
}

/// Evaluates one tenant's declared objectives against its windowed
/// latency and cost series at virtual instant `now_s`.
///
/// An objective with an empty window does not alert — no traffic, no
/// burn. Returns a verdict even when no objective is declared (empty
/// `burns`, never alerting) so callers can render every tenant row.
pub fn evaluate(
    tenant: &str,
    target: &SloTarget,
    latency: Option<&SlidingWindow>,
    cost: Option<&SlidingWindow>,
    now_s: f64,
    policy: &SloPolicy,
) -> SloVerdict {
    let mut burns = Vec::new();
    if let Some(bound) = target.p99_latency_s {
        let burn = |window_s: f64| -> f64 {
            latency
                .map(|w| w.fraction_over(now_s, window_s, bound) / P99_BUDGET)
                .unwrap_or(0.0)
        };
        let fast = burn(policy.fast_window_s);
        let slow = burn(policy.slow_window_s);
        burns.push(BurnRate {
            kind: SloKind::Latency,
            fast,
            slow,
            alerting: fast > policy.burn_threshold && slow > policy.burn_threshold,
        });
    }
    if let Some(ceiling) = target.usd_per_query {
        let burn = |window_s: f64| -> f64 {
            cost.map(|w| {
                if w.count_in(now_s, window_s) == 0 {
                    0.0
                } else {
                    w.mean_in(now_s, window_s) / ceiling
                }
            })
            .unwrap_or(0.0)
        };
        let fast = burn(policy.fast_window_s);
        let slow = burn(policy.slow_window_s);
        burns.push(BurnRate {
            kind: SloKind::Cost,
            fast,
            slow,
            alerting: fast > policy.burn_threshold && slow > policy.burn_threshold,
        });
    }
    let alerting = burns.iter().any(|b| b.alerting);
    SloVerdict {
        tenant: tenant.to_string(),
        burns,
        alerting,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_with(values: &[(f64, f64)]) -> SlidingWindow {
        let mut w = SlidingWindow::new(10.0, 60);
        for (t, v) in values {
            w.record(*t, *v);
        }
        w
    }

    #[test]
    fn undeclared_target_never_alerts() {
        let v = evaluate(
            "t",
            &SloTarget::none(),
            None,
            None,
            100.0,
            &SloPolicy::default(),
        );
        assert!(v.burns.is_empty());
        assert!(!v.alerting);
        assert_eq!(v.verdict(), "ok");
    }

    #[test]
    fn latency_burn_is_violation_fraction_over_budget() {
        // 1 of 4 samples over the 2.0s bound → 25% violating → burn 25.
        let w = window_with(&[(0.0, 1.0), (1.0, 1.5), (2.0, 1.9), (3.0, 5.0)]);
        let target = SloTarget::none().p99_latency(2.0);
        let v = evaluate("t", &target, Some(&w), None, 3.0, &SloPolicy::default());
        assert_eq!(v.burns.len(), 1);
        assert!((v.burns[0].fast - 25.0).abs() < 1e-9);
        assert!(v.alerting, "both windows see the same samples here");
    }

    #[test]
    fn no_traffic_means_no_burn() {
        let w = SlidingWindow::new(10.0, 60);
        let target = SloTarget::none().p99_latency(2.0).usd_per_query(0.01);
        let v = evaluate(
            "t",
            &target,
            Some(&w),
            Some(&w),
            100.0,
            &SloPolicy::default(),
        );
        assert!(!v.alerting);
        assert_eq!(v.burns[0].fast, 0.0);
        assert_eq!(v.burns[1].fast, 0.0);
    }

    #[test]
    fn cost_burn_is_mean_over_ceiling() {
        let w = window_with(&[(0.0, 0.02), (1.0, 0.04)]);
        let target = SloTarget::none().usd_per_query(0.01);
        let v = evaluate("t", &target, None, Some(&w), 1.0, &SloPolicy::default());
        assert_eq!(v.burns[0].kind, SloKind::Cost);
        assert!((v.burns[0].fast - 3.0).abs() < 1e-9, "mean 0.03 / 0.01");
        assert!(v.alerting);
        assert_eq!(v.verdict(), "breach");
    }

    #[test]
    fn spike_outside_slow_window_does_not_alert() {
        // Burn high in the fast window only → no alert (needs both).
        let mut w = SlidingWindow::new(10.0, 60);
        // 99 good samples long ago (inside slow window, outside fast).
        for i in 0..99 {
            w.record(300.0 + i as f64 * 0.1, 1.0);
        }
        // One bad sample just now.
        w.record(590.0, 10.0);
        let target = SloTarget::none().p99_latency(2.0);
        let policy = SloPolicy {
            fast_window_s: 60.0,
            slow_window_s: 300.0,
            burn_threshold: 2.0,
        };
        let v = evaluate("t", &target, Some(&w), None, 590.0, &policy);
        let b = &v.burns[0];
        assert!(b.fast > policy.burn_threshold, "fast window is all-bad");
        assert!(b.slow <= policy.burn_threshold, "slow window dilutes it");
        assert!(!b.alerting);
    }

    #[test]
    fn verdict_json_shape() {
        let w = window_with(&[(0.0, 5.0)]);
        let target = SloTarget::none().p99_latency(2.0);
        let v = evaluate("acme", &target, Some(&w), None, 0.0, &SloPolicy::default());
        let line = v.to_json().render();
        assert!(line.starts_with(r#"{"tenant":"acme","verdict":"breach""#));
        assert!(line.contains(r#""kind":"latency""#));
    }
}
