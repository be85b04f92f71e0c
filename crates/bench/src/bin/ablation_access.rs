//! Ablation C: full-scan vs. index-narrowed access by lake size.
fn main() {
    aida_bench::emit(&aida_eval::ablation_access(&[10, 50, 100, 200], 1), 1);
}
