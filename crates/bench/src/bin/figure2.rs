//! Regenerates Figure 2: the search -> compute pipeline over a Context.
fn main() {
    aida_bench::emit_figure("figure2", 1, &aida_eval::figure2(1));
}
