//! `aida-eval`: the evaluation harness for the paper's experiments.
//!
//! Defines the metrics (percent error, precision/recall/F1), the four
//! evaluated systems (handcrafted semantic-operator program, CodeAgent,
//! CodeAgent+, and the prototype's `compute` operator), the trial runner,
//! and the per-table/figure experiment drivers used by `aida-bench` and
//! `EXPERIMENTS.md`.
//!
//! Every experiment runs N independent trials (fresh runtime, fresh seed)
//! and reports averages — matching the paper's "ran each system three
//! times and report the average" protocol.

pub mod experiments;
pub mod metrics;
pub mod systems;

pub use experiments::{
    ablation_access, ablation_optimizer, ablation_reuse, ablation_rewrite, ablation_sampling,
    figure1, figure2, table1, table2, ExperimentReport, Row,
};
pub use metrics::{f1_score, percent_error, Prf};
pub use systems::{run_pz_compute, SystemAnswer, SystemRun};
