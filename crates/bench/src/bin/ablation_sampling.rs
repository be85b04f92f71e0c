//! Ablation E: the optimizer's sampling budget.
fn main() {
    let seeds = aida_eval::experiments::TRIAL_SEEDS;
    aida_bench::emit(
        &aida_eval::ablation_sampling(&seeds, &[0, 12, 36, 72]),
        seeds[0],
    );
}
