//! The paper's Table 2 task end-to-end: filter 250 Enron-style emails for
//! firsthand discussion of specific business transactions, comparing the
//! CodeAgent baselines against the prototype's `compute` operator.
//!
//! Run with: `cargo run --release --example enron_filter`

use aida::eval::f1_score;
use aida::eval::systems::{run_code_agent, run_pz_compute, SystemAnswer};
use aida::synth::enron;

fn score(answer: &SystemAnswer, truth: &[String]) -> String {
    match answer {
        SystemAnswer::Docs(docs) => {
            let prf = f1_score(docs, truth);
            format!(
                "{} returned | F1 {:.1}%  recall {:.1}%  precision {:.1}%",
                docs.len(),
                prf.f1 * 100.0,
                prf.recall * 100.0,
                prf.precision * 100.0
            )
        }
        other => format!("{other:?}"),
    }
}

fn main() {
    let seed = 1;
    let workload = enron::generate(seed);
    let truth = workload.truth.as_doc_set().unwrap().to_vec();
    println!("query: {}", workload.query);
    println!(
        "lake: {} emails; {} truly relevant\n",
        workload.lake.len(),
        truth.len()
    );

    let agent = run_code_agent(&workload, seed, false);
    println!("== CodeAgent (keyword shortcuts) ==");
    println!("{}", score(&agent.answer, &truth));
    println!("cost ${:.3}, {:.0} virtual s\n", agent.cost, agent.time);

    let plus = run_code_agent(&workload, seed, true);
    println!("== CodeAgent+ (unoptimized semantic-operator tools) ==");
    println!("{}", score(&plus.answer, &truth));
    println!("cost ${:.3}, {:.0} virtual s\n", plus.cost, plus.time);

    let (compute, _) = run_pz_compute(&workload, seed);
    println!("== Prototype compute operator (optimized programs) ==");
    println!("{}", score(&compute.answer, &truth));
    println!("cost ${:.3}, {:.0} virtual s\n", compute.cost, compute.time);
    println!(
        "savings vs CodeAgent+: {:.1}% cost, {:.1}% time",
        (1.0 - compute.cost / plus.cost) * 100.0,
        (1.0 - compute.time / plus.time) * 100.0
    );
}
