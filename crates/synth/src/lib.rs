//! `aida-synth`: seeded synthetic workload generators.
//!
//! The paper evaluates on two real datasets we cannot ship: the Kramabench
//! legal workload (132 FTC consumer-report files) and a 250-email subset of
//! the Enron corpus. This crate generates structurally-equivalent synthetic
//! workloads with known ground truth:
//!
//! * [`legal`] — 132 CSV/HTML/text files: one national ground-truth CSV
//!   with fraud/identity-theft/other report counts for 2001–2024, dozens of
//!   state-level distractors that share vocabulary and years, HTML report
//!   pages, and partial-year traps. The evaluation query asks for the
//!   2024/2001 identity-theft ratio.
//! * [`enron`] — 250 emails with hidden relevance labels for the paper's
//!   two predicates (mentions one of several business transactions;
//!   discusses it firsthand). Relevant emails split into keyword-explicit
//!   and oblique phrasings; distractors include forwarded news articles
//!   that mention the transactions secondhand — exactly the structure that
//!   makes regex agents high-precision/low-recall and per-email LLM
//!   filtering near-perfect.
//!
//! Each generator returns a [`Workload`]: the data lake, the natural
//! language query, machine-checkable ground truth, and an oracle
//! registration hook for the simulated LLM.

pub mod enron;
pub mod legal;
pub mod text;

use aida_data::DataLake;
use aida_llm::SimLlm;

/// Ground truth for one evaluation query.
#[derive(Debug, Clone, PartialEq)]
pub enum GroundTruth {
    /// The query's answer is a single number (e.g. the theft ratio).
    Number(f64),
    /// The query's answer is a set of document ids (e.g. relevant emails).
    DocSet(Vec<String>),
}

impl GroundTruth {
    /// Document-set accessor.
    pub fn as_doc_set(&self) -> Option<&[String]> {
        match self {
            GroundTruth::DocSet(ids) => Some(ids),
            GroundTruth::Number(_) => None,
        }
    }
}

/// A generated evaluation workload.
pub struct Workload {
    /// Short identifier (`legal-easy-3`, `enron-filter`).
    pub name: String,
    /// The data lake the systems query.
    pub lake: DataLake,
    /// The natural-language query posed to each system.
    pub query: String,
    /// A human-readable description of the lake (becomes the Context
    /// description).
    pub description: String,
    /// Machine-checkable ground truth.
    pub truth: GroundTruth,
}

impl Workload {
    /// Registers this workload's oracle rules with a simulated LLM so
    /// semantic operations over the lake resolve against ground truth.
    pub fn install_oracle(&self, llm: &SimLlm) {
        if self.name.starts_with("legal") {
            legal::register_oracle(llm);
        } else if self.name.starts_with("enron") {
            enron::register_oracle(llm);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_accessors() {
        let n = GroundTruth::Number(13.2);
        assert!(n.as_doc_set().is_none());
        let d = GroundTruth::DocSet(vec!["a".into()]);
        assert_eq!(d.as_doc_set().unwrap().len(), 1);
    }
}
