//! The plan cost model.
//!
//! Given a candidate physical configuration (operator order + per-operator
//! models) and the sampled estimates, predict total dollars, virtual
//! seconds, and output quality. Cardinalities chain through filter
//! selectivities; quality is the product of per-operator qualities (an
//! error anywhere corrupts the output).

use crate::sampler::{quality_prior, SampleMatrix};
use aida_llm::ModelId;
use aida_semops::plan::{LogicalOp, LogicalPlan};

/// A predicted outcome for one candidate plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEstimate {
    /// Operator order (indices into the *original* logical plan).
    pub order: Vec<usize>,
    /// Model per operator (aligned with `order`).
    pub models: Vec<ModelId>,
    /// Predicted dollars.
    pub cost: f64,
    /// Predicted virtual seconds.
    pub time: f64,
    /// Predicted quality in `[0, 1]`.
    pub quality: f64,
}

impl PlanEstimate {
    /// True when `self` is at least as good as `other` on every axis and
    /// strictly better on one (Pareto dominance; lower cost/time, higher
    /// quality).
    pub fn dominates(&self, other: &PlanEstimate) -> bool {
        let no_worse = self.cost <= other.cost + 1e-12
            && self.time <= other.time + 1e-12
            && self.quality >= other.quality - 1e-12;
        let better = self.cost < other.cost - 1e-12
            || self.time < other.time - 1e-12
            || self.quality > other.quality + 1e-12;
        no_worse && better
    }
}

/// Static worst-case dollar bounds per execution tier, fed to the cost
/// model as priors alongside the sampled estimates.
///
/// The bounds come from `aida_script::bounds` — a sound abstract
/// interpretation of the compiled plan, so `usd_max(tier)` is a hard
/// ceiling on what the plan can spend with every billable call priced at
/// `tier`. The model uses them as caps: a sampled extrapolation that
/// overshoots the proven worst case is clamped down to it, because a
/// sound bound beats a noisy guess. Tiers with no finite bound simply
/// contribute no cap.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StaticPrior {
    usd_max: Vec<(ModelId, f64)>,
}

impl StaticPrior {
    /// An empty prior (no caps anywhere).
    pub fn new() -> StaticPrior {
        StaticPrior::default()
    }

    /// Records the static worst case at `tier`. Non-finite bounds (the
    /// analyzer degraded to `unbounded`) are ignored — they cap nothing.
    pub fn bound(mut self, tier: ModelId, usd_max: f64) -> StaticPrior {
        if usd_max.is_finite() {
            self.usd_max.retain(|(t, _)| *t != tier);
            self.usd_max.push((tier, usd_max));
        }
        self
    }

    /// The recorded worst case at `tier`, if finite.
    pub fn usd_max(&self, tier: ModelId) -> Option<f64> {
        self.usd_max
            .iter()
            .find(|(t, _)| *t == tier)
            .map(|(_, v)| *v)
    }

    /// The sound dollar cap for a candidate that runs its operators on
    /// `models`: the worst bound over the tiers the candidate actually
    /// uses. A mixed assignment spends no more than running everything
    /// at its most expensive used tier, so that tier's bound still
    /// holds. `None` when any used tier has no finite bound (then
    /// nothing sound can be said about the whole candidate).
    fn cap_for(&self, models: &[ModelId]) -> Option<f64> {
        if models.is_empty() {
            return None;
        }
        let mut cap: f64 = 0.0;
        for &model in models {
            cap = cap.max(self.usd_max(model)?);
        }
        Some(cap)
    }
}

/// [`estimate`] with a static-bound prior applied: the predicted dollars
/// are clamped to the prior's sound cap for the candidate's model
/// assignment (when one exists). Time and quality are untouched — the
/// static analysis bounds spend, not latency or accuracy.
#[allow(clippy::too_many_arguments)]
pub fn estimate_with_prior(
    plan: &LogicalPlan,
    order: &[usize],
    models: &[ModelId],
    matrix: &SampleMatrix,
    input_cardinality: usize,
    parallelism: usize,
    prior: &StaticPrior,
) -> PlanEstimate {
    let mut est = estimate(plan, order, models, matrix, input_cardinality, parallelism);
    if let Some(cap) = prior.cap_for(models) {
        est.cost = est.cost.min(cap);
    }
    est
}

/// Predicts cost/time/quality for a candidate (order, models) pair.
///
/// `order` is a permutation of `0..plan.len()` (non-semantic operators must
/// keep their relative positions for correctness; the enumerator guarantees
/// this). `parallelism` divides per-batch latency.
pub fn estimate(
    plan: &LogicalPlan,
    order: &[usize],
    models: &[ModelId],
    matrix: &SampleMatrix,
    input_cardinality: usize,
    parallelism: usize,
) -> PlanEstimate {
    let p = parallelism.max(1) as f64;
    let mut card = input_cardinality as f64;
    let mut cost = matrix.sampling_cost;
    let mut time = matrix.sampling_time;
    let mut quality = 1.0;

    for (&op_idx, &model) in order.iter().zip(models) {
        let op = &plan.ops()[op_idx];
        match op {
            LogicalOp::Scan { lake, .. } => {
                card = lake.len() as f64;
                time += 0.002 * card / p;
            }
            LogicalOp::SemFilter { .. } => {
                let (unit_cost, unit_time, q, sel) = op_params(matrix, op_idx, model);
                cost += card * unit_cost;
                time += waves(card, p) * unit_time;
                quality *= q;
                card *= sel;
            }
            LogicalOp::SemExtract { fields, .. } => {
                let (unit_cost, unit_time, q, _) = op_params(matrix, op_idx, model);
                let k = fields.len().max(1) as f64;
                cost += card * unit_cost * k;
                time += waves(card, p) * unit_time * k;
                quality *= q;
            }
            LogicalOp::SemMap { .. } => {
                let (unit_cost, unit_time, q, _) = op_params(matrix, op_idx, model);
                cost += card * unit_cost;
                time += waves(card, p) * unit_time;
                quality *= q;
            }
            LogicalOp::SemAgg { .. } => {
                let (unit_cost, unit_time, q, _) = op_params(matrix, op_idx, model);
                // One call over the combined input.
                cost += unit_cost * card.clamp(1.0, 50.0);
                time += unit_time;
                quality *= q;
                card = 1.0;
            }
            LogicalOp::SemTopK { k, .. } => {
                time += 0.003 * card / p;
                card = card.min(*k as f64);
            }
            LogicalOp::SemGroupBy { k, .. } => {
                // Embedding is cheap; one labelling call per cluster.
                let (unit_cost, unit_time, q, _) = op_params(matrix, op_idx, model);
                let clusters = (*k as f64).min(card).max(1.0);
                cost += clusters * unit_cost;
                time += 0.003 * card / p + waves(clusters, p) * unit_time;
                quality *= q;
            }
            LogicalOp::SemJoin { right, .. } => {
                let (unit_cost, unit_time, q, _) = op_params(matrix, op_idx, model);
                let right_card = right
                    .ops()
                    .iter()
                    .find_map(|o| match o {
                        LogicalOp::Scan { lake, .. } => Some(lake.len() as f64),
                        _ => None,
                    })
                    .unwrap_or(1.0);
                let pairs = card * right_card;
                cost += pairs * unit_cost;
                time += waves(pairs, p) * unit_time;
                quality *= q;
                card = pairs * 0.1; // default join selectivity
            }
            LogicalOp::Project { .. } => {}
            LogicalOp::Limit { n } => card = card.min(*n as f64),
            LogicalOp::Count => card = 1.0,
        }
    }

    PlanEstimate {
        order: order.to_vec(),
        models: models.to_vec(),
        cost,
        time,
        quality: quality.clamp(0.0, 1.0),
    }
}

fn waves(card: f64, parallelism: f64) -> f64 {
    (card / parallelism).ceil().max(0.0)
}

/// Per-(op, model) parameters: (cost/record, time/record, quality,
/// selectivity), falling back to priors when unsampled.
fn op_params(matrix: &SampleMatrix, op_idx: usize, model: ModelId) -> (f64, f64, f64, f64) {
    if let Some(op_est) = matrix.for_op(op_idx) {
        if let Some(m) = op_est.per_model.get(&model) {
            return (
                m.cost_per_record,
                m.time_per_record.max(1e-3),
                m.quality,
                op_est.selectivity,
            );
        }
        return (0.0, 1e-3, quality_prior(model), op_est.selectivity);
    }
    // Unsampled (no scan or sampling skipped): coarse token-based guess.
    let tokens = matrix.avg_record_tokens.max(50.0);
    let per_tok = match model {
        ModelId::Flagship => 2.5e-6,
        ModelId::Mini => 0.15e-6,
        ModelId::Nano => 0.05e-6,
    };
    (tokens * per_tok, 1.0, quality_prior(model), 0.5)
}

/// Filters a set of candidate estimates down to the Pareto frontier
/// (deterministic order preserved).
pub fn pareto_frontier(candidates: Vec<PlanEstimate>) -> Vec<PlanEstimate> {
    let mut frontier: Vec<PlanEstimate> = Vec::new();
    for cand in candidates {
        if frontier.iter().any(|f| f.dominates(&cand)) {
            continue;
        }
        frontier.retain(|f| !cand.dominates(f));
        frontier.push(cand);
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(cost: f64, time: f64, quality: f64) -> PlanEstimate {
        PlanEstimate {
            order: vec![],
            models: vec![],
            cost,
            time,
            quality,
        }
    }

    #[test]
    fn dominance_requires_strictly_better_somewhere() {
        let a = est(1.0, 10.0, 0.9);
        let b = est(2.0, 10.0, 0.9);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a));
    }

    #[test]
    fn pareto_frontier_drops_dominated() {
        let frontier = pareto_frontier(vec![
            est(1.0, 10.0, 0.9),
            est(2.0, 10.0, 0.9),  // dominated by first
            est(0.5, 20.0, 0.8),  // cheaper but slower/worse: kept
            est(1.0, 10.0, 0.95), // dominates first
        ]);
        assert_eq!(frontier.len(), 2);
        assert!(frontier.iter().any(|e| e.quality == 0.95));
        assert!(frontier.iter().any(|e| e.cost == 0.5));
    }

    #[test]
    fn pareto_is_deterministic() {
        let cands = vec![est(1.0, 1.0, 0.5), est(1.0, 1.0, 0.5)];
        // Identical candidates: neither dominates, both kept, order stable.
        let frontier = pareto_frontier(cands.clone());
        assert_eq!(frontier, cands);
    }

    #[test]
    fn static_prior_caps_at_the_worst_used_tier() {
        let prior = StaticPrior::new()
            .bound(ModelId::Flagship, 1.0)
            .bound(ModelId::Mini, 0.1);
        assert_eq!(prior.usd_max(ModelId::Flagship), Some(1.0));
        assert_eq!(prior.usd_max(ModelId::Nano), None);
        // A mixed assignment spends no more than all-Flagship.
        assert_eq!(
            prior.cap_for(&[ModelId::Mini, ModelId::Flagship]),
            Some(1.0)
        );
        assert_eq!(prior.cap_for(&[ModelId::Mini, ModelId::Mini]), Some(0.1));
        // A used tier with no bound: nothing sound to say.
        assert_eq!(prior.cap_for(&[ModelId::Mini, ModelId::Nano]), None);
        assert_eq!(StaticPrior::new().cap_for(&[ModelId::Flagship]), None);
        // Unbounded analyses contribute no cap.
        let unbounded = StaticPrior::new().bound(ModelId::Flagship, f64::INFINITY);
        assert_eq!(unbounded.usd_max(ModelId::Flagship), None);
    }

    #[test]
    fn estimate_with_prior_clamps_overshooting_cost() {
        use aida_data::{DataLake, Document};
        use aida_semops::Dataset;
        let lake = DataLake::from_docs(
            (0..50).map(|i| Document::new(format!("d{i}.txt"), format!("doc {i}"))),
        );
        let ds = Dataset::scan(&lake, "docs").sem_filter("is relevant");
        let plan = ds.plan();
        let order: Vec<usize> = (0..plan.len()).collect();
        let models = vec![ModelId::Flagship; plan.len()];
        let matrix = SampleMatrix::default();
        let plain = estimate(plan, &order, &models, &matrix, 50, 8);
        assert!(plain.cost > 0.0);
        let cap = plain.cost / 2.0;
        let prior = StaticPrior::new().bound(ModelId::Flagship, cap);
        let capped = estimate_with_prior(plan, &order, &models, &matrix, 50, 8, &prior);
        assert_eq!(capped.cost, cap, "sampled overshoot clamps to the bound");
        assert_eq!(capped.time, plain.time, "the bound says nothing about time");
        assert_eq!(capped.quality, plain.quality);
        // A generous bound leaves the sampled estimate alone.
        let loose = StaticPrior::new().bound(ModelId::Flagship, plain.cost * 2.0);
        let kept = estimate_with_prior(plan, &order, &models, &matrix, 50, 8, &loose);
        assert_eq!(kept.cost, plain.cost);
    }
}
