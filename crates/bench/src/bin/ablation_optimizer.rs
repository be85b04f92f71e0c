//! Ablation B: cost-based model selection.
fn main() {
    let seeds = aida_eval::experiments::TRIAL_SEEDS;
    aida_bench::emit(&aida_eval::ablation_optimizer(&seeds), seeds[0]);
}
