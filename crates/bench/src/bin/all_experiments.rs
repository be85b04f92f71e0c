//! Runs every table, figure, and ablation, persisting all reports and
//! their span traces: the calls the single binaries make, in one process.
fn main() {
    let seeds = aida_eval::experiments::TRIAL_SEEDS;
    aida_bench::emit(&aida_eval::table1(&seeds), seeds[0]);
    aida_bench::emit(&aida_eval::table2(&seeds), seeds[0]);
    aida_bench::emit_figure("figure1", 1, &aida_eval::figure1(1));
    aida_bench::emit_figure("figure2", 1, &aida_eval::figure2(1));
    aida_bench::emit(&aida_eval::ablation_reuse(&seeds), seeds[0]);
    aida_bench::emit(&aida_eval::ablation_rewrite(&seeds), seeds[0]);
    aida_bench::emit(&aida_eval::ablation_optimizer(&seeds), seeds[0]);
    aida_bench::emit(
        &aida_eval::ablation_sampling(&seeds, &[0, 12, 36, 72]),
        seeds[0],
    );
    aida_bench::emit(&aida_eval::ablation_access(&[10, 50, 100, 200], 1), 1);
}
