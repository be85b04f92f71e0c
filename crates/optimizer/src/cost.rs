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
    fn dominates(&self, other: &PlanEstimate) -> bool {
        let no_worse = self.cost <= other.cost + 1e-12
            && self.time <= other.time + 1e-12
            && self.quality >= other.quality - 1e-12;
        let better = self.cost < other.cost - 1e-12
            || self.time < other.time - 1e-12
            || self.quality > other.quality + 1e-12;
        no_worse && better
    }
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
}
