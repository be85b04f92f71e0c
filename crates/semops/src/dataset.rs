//! The fluent `Dataset` builder.

use crate::plan::{LogicalOp, LogicalPlan};
use aida_data::{DataLake, Field};
use std::sync::Arc;

/// A lazy, immutable semantic-operator pipeline over a data lake.
///
/// Mirrors Palimpzest's `Dataset`: construction is free; nothing executes
/// until the plan is optimized and run.
///
/// ```
/// use aida_semops::Dataset;
/// use aida_data::{DataLake, Document, Field};
///
/// let lake = DataLake::from_docs([Document::new("a.eml", "body")]);
/// let ds = Dataset::scan(&lake, "emails")
///     .sem_filter("mentions the Raptor transaction")
///     .sem_extract("get the sender", vec![Field::new("sender")])
///     .limit(10);
/// assert_eq!(ds.plan().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    plan: LogicalPlan,
}

impl Dataset {
    /// Starts a pipeline by scanning a lake. Each document becomes a record
    /// with `filename` and `contents` fields.
    pub fn scan(lake: &DataLake, label: impl Into<String>) -> Dataset {
        Dataset {
            plan: LogicalPlan::new(vec![LogicalOp::Scan {
                lake: Arc::new(lake.clone()),
                label: label.into(),
            }]),
        }
    }

    /// The underlying logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Keep records satisfying a natural-language predicate.
    pub fn sem_filter(&self, instruction: impl Into<String>) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::SemFilter {
                instruction: instruction.into(),
            }),
        }
    }

    /// Extract typed fields per a natural-language instruction.
    pub fn sem_extract(&self, instruction: impl Into<String>, fields: Vec<Field>) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::SemExtract {
                instruction: instruction.into(),
                fields,
            }),
        }
    }

    /// Add one free-text output field (e.g. a summary), budgeted at
    /// `target_tokens` completion tokens.
    pub fn sem_map(
        &self,
        instruction: impl Into<String>,
        output: impl Into<String>,
        target_tokens: usize,
    ) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::SemMap {
                instruction: instruction.into(),
                output: output.into(),
                target_tokens,
            }),
        }
    }

    /// Reduce all records to a single answer record.
    pub fn sem_agg(&self, instruction: impl Into<String>) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::SemAgg {
                instruction: instruction.into(),
            }),
        }
    }

    /// Keep the `k` records most relevant to a query.
    pub fn sem_topk(&self, query: impl Into<String>, k: usize) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::SemTopK {
                query: query.into(),
                k,
            }),
        }
    }

    /// Cluster records into `k` semantic groups, labelling each with an
    /// LLM call; adds a `group` field to every record.
    pub fn sem_group_by(&self, instruction: impl Into<String>, k: usize) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::SemGroupBy {
                instruction: instruction.into(),
                k,
            }),
        }
    }

    /// Natural-language predicate join against another dataset.
    pub fn sem_join(&self, instruction: impl Into<String>, right: &Dataset) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::SemJoin {
                instruction: instruction.into(),
                right: right.plan.clone(),
            }),
        }
    }

    /// Classical projection.
    pub fn project(&self, columns: &[&str]) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::Project {
                columns: columns.iter().map(|c| c.to_string()).collect(),
            }),
        }
    }

    /// Classical limit.
    pub fn limit(&self, n: usize) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::Limit { n }),
        }
    }

    /// Count records into a single `count` record.
    pub fn count(&self) -> Dataset {
        Dataset {
            plan: self.plan.then(LogicalOp::Count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::Document;

    fn lake() -> DataLake {
        DataLake::from_docs([
            Document::new("a.txt", "alpha"),
            Document::new("b.txt", "beta"),
        ])
    }

    #[test]
    fn builder_chains_ops_in_order() {
        let ds = Dataset::scan(&lake(), "files")
            .sem_filter("about alpha")
            .sem_map("summarize", "summary", 50)
            .project(&["filename", "summary"])
            .limit(3);
        let names: Vec<&str> = ds.plan().ops().iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            vec!["scan", "sem_filter", "sem_map", "project", "limit"]
        );
    }

    #[test]
    fn builder_is_persistent() {
        let base = Dataset::scan(&lake(), "files");
        let a = base.sem_filter("a");
        let b = base.sem_filter("b");
        assert_eq!(base.plan().len(), 1);
        assert_eq!(a.plan().len(), 2);
        assert_eq!(b.plan().ops()[1].instruction(), Some("b"));
    }

    #[test]
    fn join_embeds_right_plan() {
        let left = Dataset::scan(&lake(), "l");
        let right = Dataset::scan(&lake(), "r").sem_filter("keep");
        let joined = left.sem_join("left matches right", &right);
        match &joined.plan().ops()[1] {
            LogicalOp::SemJoin { right, .. } => assert_eq!(right.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
