//! Replay guarantees: identical seeds reproduce identical executions —
//! answers, dollars, virtual seconds — across the whole stack. This is the
//! property every experiment in EXPERIMENTS.md rests on.

use aida::core::Context;
use aida::prelude::*;
use aida::synth::{enron, legal};

fn run_compute(seed: u64) -> (Option<String>, f64, f64) {
    let rt = Runtime::builder().seed(seed).build();
    let workload = legal::generate(seed);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);
    let outcome = rt.query(&ctx).compute(&workload.query).run();
    (
        outcome.answer.map(|v| v.to_string()),
        outcome.cost,
        outcome.time,
    )
}

#[test]
fn compute_replays_bit_for_bit() {
    let a = run_compute(9);
    let b = run_compute(9);
    assert_eq!(a.0, b.0, "answers must replay");
    assert_eq!(a.1, b.1, "costs must replay");
    assert_eq!(a.2, b.2, "times must replay");
}

#[test]
fn different_seeds_differ_somewhere() {
    let a = run_compute(9);
    let b = run_compute(10);
    // Different lakes/noise: at least the spend differs.
    assert!(a.1 != b.1 || a.2 != b.2 || a.0 != b.0);
}

#[test]
fn workload_generation_replays() {
    let a = enron::generate(4);
    let b = enron::generate(4);
    assert_eq!(a.truth, b.truth);
    for (da, db) in a.lake.docs().iter().zip(b.lake.docs()) {
        assert_eq!(da.content, db.content);
        assert_eq!(da.labels(), db.labels());
    }
}

#[test]
fn table_experiments_replay() {
    let a = aida::eval::table1(&[7]);
    let b = aida::eval::table1(&[7]);
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.system, rb.system);
        for ((na, va), (nb, vb)) in ra.values.iter().zip(&rb.values) {
            assert_eq!(na, nb);
            assert_eq!(va, vb, "{}.{} must replay", ra.system, na);
        }
    }
}

#[test]
fn semops_parallelism_does_not_change_results() {
    use aida::llm::{ModelId, SimLlm};
    use aida::semops::{ExecEnv, Executor, PhysicalPlan};
    let workload = legal::generate(3);
    let run = |parallelism: usize| {
        let env = ExecEnv::new(SimLlm::new(3));
        workload.install_oracle(&env.llm);
        let ds =
            Dataset::scan(&workload.lake, "legal").sem_filter("mentions identity theft statistics");
        let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Mini, parallelism);
        Executor::new(&env)
            .execute(&plan)
            .records
            .iter()
            .map(|r| r.source().to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(16));
}
