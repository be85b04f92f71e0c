//! Physical plans: logical plans with execution parameters bound.
//!
//! The only physical knob per semantic operator (following Abacus) is the
//! model tier; the plan-wide knob is the execution parallelism. The
//! optimizer enumerates assignments; [`PhysicalPlan::uniform`] binds every
//! operator to one model — an unoptimized execution (the paper's
//! CodeAgent+ tools) binds the flagship.

use crate::plan::{LogicalOp, LogicalPlan};
use aida_llm::ModelId;

/// One step of a physical plan.
#[derive(Debug, Clone)]
pub struct PhysicalStep {
    /// The logical operator.
    pub op: LogicalOp,
    /// Model bound to the operator (meaningful only for semantic ops).
    pub model: ModelId,
}

/// An executable physical plan.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Steps in pipeline order.
    pub steps: Vec<PhysicalStep>,
    /// Worker parallelism for batched LLM calls.
    pub parallelism: usize,
}

impl PhysicalPlan {
    /// Binds every operator to one model with the given parallelism.
    pub fn uniform(plan: &LogicalPlan, model: ModelId, parallelism: usize) -> PhysicalPlan {
        PhysicalPlan {
            steps: plan
                .ops()
                .iter()
                .map(|op| PhysicalStep {
                    op: op.clone(),
                    model,
                })
                .collect(),
            parallelism: parallelism.max(1),
        }
    }

    /// Binds per-operator models; `models` must match the plan length.
    pub fn with_models(plan: &LogicalPlan, models: &[ModelId], parallelism: usize) -> PhysicalPlan {
        assert_eq!(models.len(), plan.len(), "one model per operator");
        PhysicalPlan {
            steps: plan
                .ops()
                .iter()
                .zip(models)
                .map(|(op, model)| PhysicalStep {
                    op: op.clone(),
                    model: *model,
                })
                .collect(),
            parallelism: parallelism.max(1),
        }
    }

    /// Models in step order.
    pub fn models(&self) -> Vec<ModelId> {
        self.steps.iter().map(|s| s.model).collect()
    }

    /// Renders the plan for traces.
    pub fn render(&self) -> String {
        let mut out = format!("physical plan (parallelism={})\n", self.parallelism);
        for step in &self.steps {
            if step.op.is_semantic() {
                out.push_str(&format!("  {:?} @ {}\n", step.op, step.model));
            } else {
                out.push_str(&format!("  {:?}\n", step.op));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PhysicalPlan {
        /// The conventional unoptimized plan: flagship everywhere,
        /// modest parallelism.
        pub(crate) fn default_for(plan: &LogicalPlan) -> PhysicalPlan {
            PhysicalPlan::uniform(plan, ModelId::Flagship, 8)
        }
    }
    use crate::dataset::Dataset;
    use aida_data::{DataLake, Document};

    fn plan() -> LogicalPlan {
        let lake = DataLake::from_docs([Document::new("a.txt", "x")]);
        Dataset::scan(&lake, "t")
            .sem_filter("p")
            .limit(1)
            .plan()
            .clone()
    }

    #[test]
    fn uniform_binds_every_step() {
        let p = PhysicalPlan::uniform(&plan(), ModelId::Mini, 4);
        assert_eq!(p.steps.len(), 3);
        assert!(p.models().iter().all(|m| *m == ModelId::Mini));
        assert_eq!(p.parallelism, 4);
    }

    #[test]
    fn with_models_assigns_per_step() {
        let p = PhysicalPlan::with_models(
            &plan(),
            &[ModelId::Flagship, ModelId::Nano, ModelId::Flagship],
            2,
        );
        assert_eq!(p.steps[1].model, ModelId::Nano);
    }

    #[test]
    #[should_panic(expected = "one model per operator")]
    fn with_models_length_mismatch_panics() {
        let _ = PhysicalPlan::with_models(&plan(), &[ModelId::Nano], 2);
    }

    #[test]
    fn parallelism_is_at_least_one() {
        let p = PhysicalPlan::uniform(&plan(), ModelId::Mini, 0);
        assert_eq!(p.parallelism, 1);
    }

    #[test]
    fn render_mentions_models_for_semantic_ops() {
        let p = PhysicalPlan::default_for(&plan());
        let s = p.render();
        assert!(s.contains("sim-4o"));
        assert!(s.contains("Limit"));
    }
}
