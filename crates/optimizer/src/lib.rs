//! `aida-optimizer`: a cost-based optimizer for semantic operator plans.
//!
//! Reproduces the Abacus optimization loop the paper's prototype relies on:
//!
//! 1. **Sampling** ([`sampler`]): a UCB1 bandit ([`bandit`]) spends a small
//!    real budget of LLM calls measuring how each (operator, model) pair
//!    behaves on this data — quality vs. the flagship reference, dollars
//!    and seconds per record, and filter selectivity.
//! 2. **Enumeration**: candidate plans vary per-operator model assignment
//!    and the order of adjacent semantic filters.
//! 3. **Costing** ([`cost`]): each candidate gets a predicted (cost, time,
//!    quality); dominated candidates are dropped (Pareto frontier).
//! 4. **Policy** ([`policy`]): `MaxQuality`/`MinCost`/`MinTime` picks the
//!    final physical plan.
//!
//! ```no_run
//! use aida_optimizer::{Optimizer, OptimizerConfig, Policy};
//! use aida_semops::{Dataset, ExecEnv, Executor};
//! use aida_llm::SimLlm;
//! # let lake = aida_data::DataLake::new();
//!
//! let env = ExecEnv::new(SimLlm::new(42));
//! let ds = Dataset::scan(&lake, "emails")
//!     .sem_filter("mentions a business transaction")
//!     .sem_filter("contains firsthand discussion");
//! let optimizer = Optimizer::new(&env, OptimizerConfig::default());
//! let optimized = optimizer.optimize(ds.plan(), &Policy::MaxQuality { cost_budget: None });
//! let report = Executor::new(&env).execute(&optimized.physical);
//! ```

pub mod bandit;
pub mod cost;
pub mod policy;
pub mod sampler;

pub use cost::{pareto_frontier, PlanEstimate, StaticPrior};
pub use policy::Policy;
pub use sampler::{SampleMatrix, Sampler, SamplerConfig};

use aida_llm::ModelId;
use aida_semops::plan::{LogicalOp, LogicalPlan};
use aida_semops::{ExecEnv, PhysicalPlan};

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Sampling-phase configuration.
    pub sampler: SamplerConfig,
    /// Parallelism bound into the chosen physical plan.
    pub parallelism: usize,
    /// Whether to enumerate reorderings of adjacent semantic filters.
    pub reorder_filters: bool,
    /// Skip the sampling phase entirely (priors only) — used by ablations.
    pub skip_sampling: bool,
    /// Static cost-bound priors from `aida_script::bounds`: sound
    /// worst-case dollar ceilings per tier that cap sampled cost
    /// extrapolations (see [`cost::StaticPrior`]).
    pub static_prior: StaticPrior,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            sampler: SamplerConfig::default(),
            parallelism: 8,
            reorder_filters: true,
            skip_sampling: false,
            static_prior: StaticPrior::new(),
        }
    }
}

/// The result of optimization.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The executable physical plan.
    pub physical: PhysicalPlan,
    /// The optimizer's prediction for it.
    pub estimate: PlanEstimate,
    /// The sampling matrix behind the decision.
    pub matrix: SampleMatrix,
    /// How many candidate plans were considered.
    pub candidates_considered: usize,
}

/// The cost-based optimizer.
pub struct Optimizer<'a> {
    env: &'a ExecEnv,
    config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer over an execution environment.
    pub fn new(env: &'a ExecEnv, config: OptimizerConfig) -> Self {
        Optimizer { env, config }
    }

    /// Optimizes a logical plan under a policy.
    pub fn optimize(&self, plan: &LogicalPlan, policy: &Policy) -> OptimizedPlan {
        let matrix = if self.config.skip_sampling {
            SampleMatrix::default()
        } else {
            Sampler::new(self.env, self.config.sampler.clone()).sample(plan)
        };

        let input_cardinality = plan
            .ops()
            .iter()
            .find_map(|op| match op {
                LogicalOp::Scan { lake, .. } => Some(lake.len()),
                _ => None,
            })
            .unwrap_or(0);

        let orders = if self.config.reorder_filters {
            candidate_orders(plan)
        } else {
            vec![(0..plan.len()).collect::<Vec<_>>()]
        };
        let assignments = model_assignments(plan);

        let mut candidates = Vec::new();
        for order in &orders {
            for models in &assignments {
                // Align the model list with the order: models are assigned
                // per original operator index.
                let ordered_models: Vec<ModelId> = order.iter().map(|&idx| models[idx]).collect();
                candidates.push(cost::estimate_with_prior(
                    plan,
                    order,
                    &ordered_models,
                    &matrix,
                    input_cardinality,
                    self.config.parallelism,
                    &self.config.static_prior,
                ));
            }
        }
        let considered = candidates.len();
        let frontier = pareto_frontier(candidates);
        let chosen = policy.choose(&frontier).cloned().unwrap_or_else(|| {
            cost::estimate_with_prior(
                plan,
                &(0..plan.len()).collect::<Vec<_>>(),
                &vec![ModelId::Flagship; plan.len()],
                &matrix,
                input_cardinality,
                self.config.parallelism,
                &self.config.static_prior,
            )
        });

        // Materialize the chosen (order, models) into a physical plan.
        let reordered = LogicalPlan::new(
            chosen
                .order
                .iter()
                .map(|&i| plan.ops()[i].clone())
                .collect(),
        );
        let physical =
            PhysicalPlan::with_models(&reordered, &chosen.models, self.config.parallelism);

        OptimizedPlan {
            physical,
            estimate: chosen,
            matrix,
            candidates_considered: considered,
        }
    }
}

/// Enumerates valid operator orders: the identity order plus permutations
/// of each maximal run of adjacent `SemFilter`s (filters commute; nothing
/// else is moved). Capped at 24 orders.
fn candidate_orders(plan: &LogicalPlan) -> Vec<Vec<usize>> {
    let n = plan.len();
    let identity: Vec<usize> = (0..n).collect();
    // Find maximal runs of consecutive SemFilters.
    let mut runs: Vec<(usize, usize)> = Vec::new(); // [start, end)
    let mut i = 0;
    while i < n {
        if matches!(plan.ops()[i], LogicalOp::SemFilter { .. }) {
            let start = i;
            while i < n && matches!(plan.ops()[i], LogicalOp::SemFilter { .. }) {
                i += 1;
            }
            if i - start >= 2 {
                runs.push((start, i));
            }
        } else {
            i += 1;
        }
    }
    if runs.is_empty() {
        return vec![identity];
    }
    let mut orders = vec![identity];
    for (start, end) in runs {
        let segment: Vec<usize> = (start..end).collect();
        let perms = permutations(&segment);
        let mut expanded = Vec::new();
        for order in &orders {
            for perm in &perms {
                let mut new_order = order.clone();
                for (offset, &idx) in perm.iter().enumerate() {
                    // Positions of the run within the order are stable
                    // (only filters inside the run are permuted).
                    let pos = order.iter().position(|&x| x == segment[offset]).unwrap();
                    new_order[pos] = idx;
                }
                expanded.push(new_order);
                if expanded.len() >= 24 {
                    break;
                }
            }
            if expanded.len() >= 24 {
                break;
            }
        }
        orders = expanded;
    }
    orders.dedup();
    orders
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// Enumerates per-operator model assignments: the cartesian product of
/// tiers over semantic operators (non-semantic operators pin to flagship;
/// the model is unused there). Falls back to uniform assignments when the
/// product explodes.
fn model_assignments(plan: &LogicalPlan) -> Vec<Vec<ModelId>> {
    let sem = plan.semantic_indices();
    if sem.len() > 5 {
        // 3^6+ candidates: just offer the three uniform assignments.
        return ModelId::ALL
            .iter()
            .map(|&m| {
                (0..plan.len())
                    .map(|i| {
                        if plan.ops()[i].is_semantic() {
                            m
                        } else {
                            ModelId::Flagship
                        }
                    })
                    .collect()
            })
            .collect();
    }
    let mut assignments: Vec<Vec<ModelId>> = vec![vec![ModelId::Flagship; plan.len()]];
    for &idx in &sem {
        let mut expanded = Vec::with_capacity(assignments.len() * ModelId::ALL.len());
        for assignment in &assignments {
            for &model in &ModelId::ALL {
                let mut next = assignment.clone();
                next[idx] = model;
                expanded.push(next);
            }
        }
        assignments = expanded;
    }
    assignments
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::{DataLake, Document};
    use aida_llm::SimLlm;
    use aida_semops::{Dataset, Executor};

    fn lake(n: usize) -> DataLake {
        DataLake::from_docs((0..n).map(|i| {
            let relevant = i % 5 == 0;
            let content = if relevant {
                format!("memo {i}: identity theft case statistics and yearly trends")
            } else {
                format!("memo {i}: cafeteria menu and parking assignments")
            };
            Document::new(format!("m{i}.txt"), content).with_label("difficulty", 0.1)
        }))
    }

    #[test]
    fn optimizer_produces_runnable_plan() {
        let env = ExecEnv::new(SimLlm::new(5));
        let ds = Dataset::scan(&lake(25), "memos").sem_filter("mentions identity theft");
        let optimizer = Optimizer::new(&env, OptimizerConfig::default());
        let optimized = optimizer.optimize(ds.plan(), &Policy::MaxQuality { cost_budget: None });
        assert!(optimized.candidates_considered >= 3);
        let report = Executor::new(&env).execute(&optimized.physical);
        assert_eq!(report.records.len(), 5);
    }

    #[test]
    fn min_cost_picks_cheaper_models_than_max_quality() {
        let run = |policy: Policy| {
            let env = ExecEnv::new(SimLlm::new(5));
            let ds = Dataset::scan(&lake(25), "memos").sem_filter("mentions identity theft");
            let optimizer = Optimizer::new(&env, OptimizerConfig::default());
            optimizer.optimize(ds.plan(), &policy).estimate
        };
        let cheap = run(Policy::MinCost { quality_floor: 0.0 });
        let best = run(Policy::MaxQuality { cost_budget: None });
        assert!(cheap.cost <= best.cost + 1e-12);
        assert!(best.quality >= cheap.quality - 1e-12);
    }

    #[test]
    fn filter_reordering_is_enumerated() {
        let env_lake = lake(10);
        let ds = Dataset::scan(&env_lake, "m")
            .sem_filter("first predicate about theft")
            .sem_filter("second predicate about statistics");
        let orders = candidate_orders(ds.plan());
        assert_eq!(orders.len(), 2);
        assert!(orders.contains(&vec![0, 1, 2]));
        assert!(orders.contains(&vec![0, 2, 1]));
    }

    #[test]
    fn non_adjacent_filters_are_not_reordered() {
        let env_lake = lake(10);
        let ds = Dataset::scan(&env_lake, "m")
            .sem_filter("first")
            .sem_map("summarize", "s", 30)
            .sem_filter("second");
        let orders = candidate_orders(ds.plan());
        assert_eq!(orders, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn model_assignment_count_is_exponential_in_sem_ops() {
        let env_lake = lake(4);
        let ds = Dataset::scan(&env_lake, "m")
            .sem_filter("a")
            .sem_filter("b");
        assert_eq!(model_assignments(ds.plan()).len(), 9);
        let ds6 = Dataset::scan(&env_lake, "m")
            .sem_filter("a")
            .sem_filter("b")
            .sem_filter("c")
            .sem_filter("d")
            .sem_filter("e")
            .sem_filter("f");
        assert_eq!(
            model_assignments(ds6.plan()).len(),
            3,
            "falls back to uniform"
        );
    }

    #[test]
    fn skip_sampling_avoids_llm_calls() {
        let env = ExecEnv::new(SimLlm::new(5));
        let ds = Dataset::scan(&lake(25), "memos").sem_filter("mentions identity theft");
        let config = OptimizerConfig {
            skip_sampling: true,
            ..OptimizerConfig::default()
        };
        let optimizer = Optimizer::new(&env, config);
        let before = env.llm.meter().snapshot();
        let _ = optimizer.optimize(ds.plan(), &Policy::MaxQuality { cost_budget: None });
        assert_eq!(env.llm.meter().snapshot().since(&before).total_calls(), 0);
    }

    #[test]
    fn selective_filter_first_is_preferred() {
        // Filter A keeps ~everything; filter B keeps ~nothing. The cost
        // model should prefer running B first so A processes fewer records.
        let env = ExecEnv::new(SimLlm::new(9));
        env.llm
            .oracle()
            .register(std::sync::Arc::new(aida_llm::oracle::FnRule::new(
                "broad",
                |instruction: &str, _subject: &aida_llm::oracle::Subject<'_>| {
                    instruction
                        .contains("written in english")
                        .then_some(aida_llm::oracle::OracleAnswer::Bool(true))
                },
            )));
        env.llm
            .oracle()
            .register(std::sync::Arc::new(aida_llm::oracle::FnRule::new(
                "selective",
                |instruction: &str, subject: &aida_llm::oracle::Subject<'_>| {
                    instruction.contains("identity theft").then_some(
                        aida_llm::oracle::OracleAnswer::Bool(
                            subject.text.contains("identity theft"),
                        ),
                    )
                },
            )));
        let big_lake = lake(60);
        let ds = Dataset::scan(&big_lake, "memos")
            .sem_filter("the memo is written in english")
            .sem_filter("mentions identity theft statistics");
        let optimizer = Optimizer::new(&env, OptimizerConfig::default());
        let optimized = optimizer.optimize(ds.plan(), &Policy::MinCost { quality_floor: 0.0 });
        // Order should put the selective (theft) filter before the broad one.
        let first_filter = optimized
            .physical
            .steps
            .iter()
            .find_map(|s| match &s.op {
                LogicalOp::SemFilter { instruction } => Some(instruction.clone()),
                _ => None,
            })
            .unwrap();
        assert!(
            first_filter.contains("theft"),
            "expected selective filter first, got {first_filter:?}"
        );
    }
}
