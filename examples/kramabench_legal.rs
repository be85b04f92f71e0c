//! The paper's Table 1 query end-to-end: the Kramabench `legal-easy-3`
//! identity-theft-ratio question over a 132-file Consumer Sentinel lake,
//! answered three ways — handcrafted semantic operators, an open Deep
//! Research CodeAgent, and the prototype's `compute` operator.
//!
//! Run with: `cargo run --release --example kramabench_legal`

use aida::eval::systems::{run_code_agent, run_pz_compute, run_semops_handcrafted, SystemAnswer};
use aida::synth::legal;

fn describe(answer: &SystemAnswer, truth: f64) -> String {
    match answer {
        SystemAnswer::Numbers(ratios) => {
            let errs: Vec<String> = ratios
                .iter()
                .map(|r| format!("{r:.3} (err {:.1}%)", ((r - truth) / truth).abs() * 100.0))
                .collect();
            errs.join(", ")
        }
        other => format!("{other:?}"),
    }
}

fn main() {
    let seed = 1;
    let workload = legal::generate(seed);
    let truth = legal::true_ratio();
    println!("query: {}", workload.query);
    println!(
        "lake: {} files; ground truth ratio = {truth:.4}\n",
        workload.lake.len()
    );

    let semops = run_semops_handcrafted(&workload, seed);
    println!("== Handcrafted semantic operators ==");
    println!("answer(s): {}", describe(&semops.answer, truth));
    println!("cost ${:.3}, {:.0} virtual s\n", semops.cost, semops.time);

    let agent = run_code_agent(&workload, seed, false);
    println!("== Open Deep Research CodeAgent ==");
    println!("answer(s): {}", describe(&agent.answer, truth));
    println!("cost ${:.3}, {:.0} virtual s\n", agent.cost, agent.time);

    let (compute, _) = run_pz_compute(&workload, seed);
    println!("== Prototype compute operator ==");
    println!("answer(s): {}", describe(&compute.answer, truth));
    println!("cost ${:.3}, {:.0} virtual s\n", compute.cost, compute.time);
    println!("compute execution detail:\n{}", compute.detail);
}
