//! Ablation A: ContextManager materialized-Context reuse.
fn main() {
    let seeds = aida_eval::experiments::TRIAL_SEEDS;
    aida_bench::emit(&aida_eval::ablation_reuse(&seeds), seeds[0]);
}
