//! Regenerates Table 2: the Enron email-filtering comparison.
fn main() {
    let seeds = aida_eval::experiments::TRIAL_SEEDS;
    aida_bench::emit(&aida_eval::table2(&seeds), seeds[0]);
}
