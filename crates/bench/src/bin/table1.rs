//! Regenerates Table 1: the Kramabench `legal-easy-3` comparison.
fn main() {
    let seeds = aida_eval::experiments::TRIAL_SEEDS;
    aida_bench::emit(&aida_eval::table1(&seeds), seeds[0]);
}
