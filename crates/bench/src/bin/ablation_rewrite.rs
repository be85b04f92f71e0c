//! Ablation D: split/merge logical rewrites.
fn main() {
    let seeds = aida_eval::experiments::TRIAL_SEEDS;
    aida_bench::emit(&aida_eval::ablation_rewrite(&seeds), seeds[0]);
}
