//! Regenerates Figure 1: qualitative traces of both example queries.
fn main() {
    aida_bench::emit_figure("figure1", 1, &aida_eval::figure1(1));
}
