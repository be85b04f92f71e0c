//! Microbenchmarks of the substrate crates.

use aida_data::csv;
use aida_index::{KeywordIndex, TopK, VectorIndex};
use aida_llm::{Embedder, SimLlm};
use aida_script::Interpreter;
use aida_sql::Catalog;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn csv_text(rows: usize) -> String {
    let mut out = String::from("year,category,reports,rank\n");
    for i in 0..rows {
        out.push_str(&format!(
            "{},category {},{},{}\n",
            2001 + i % 24,
            i % 20,
            i * 137,
            i % 50
        ));
    }
    out
}

fn bench_csv(c: &mut Criterion) {
    let text = csv_text(1_000);
    c.bench_function("csv/parse_1k_rows", |b| {
        b.iter(|| black_box(csv::parse_table(&text).unwrap()))
    });
}

fn bench_embedder(c: &mut Criterion) {
    let embedder = Embedder::default();
    let text = "identity theft reports rose sharply between 2001 and 2024 according to the \
                consumer sentinel network data book"
        .repeat(8);
    c.bench_function("embed/1kb_text", |b| {
        b.iter(|| black_box(embedder.embed(&text)))
    });
}

fn bench_topk(c: &mut Criterion) {
    c.bench_function("topk/push_10k_keep_10", |b| {
        b.iter(|| {
            let mut topk = TopK::new(10);
            for i in 0..10_000u32 {
                topk.push((i % 977) as f32, i);
            }
            black_box(topk.into_sorted_vec())
        })
    });
}

fn bench_keyword_index(c: &mut Criterion) {
    let mut index = KeywordIndex::new();
    for i in 0..500 {
        index.add(
            &format!("doc{i}"),
            &format!(
                "report {i} identity theft fraud statistics for year {}",
                2001 + i % 24
            ),
        );
    }
    c.bench_function("keyword/bm25_search_500_docs", |b| {
        b.iter(|| black_box(index.search("identity theft 2024", 10)))
    });
}

fn bench_vector_index(c: &mut Criterion) {
    let embedder = Embedder::default();
    let mut index = aida_index::FlatIndex::new();
    for i in 0..500 {
        index.add(
            &format!("d{i}"),
            embedder.embed(&format!("topic {} body {}", i % 37, i)),
        );
    }
    let query = embedder.embed("topic 5 statistics");
    c.bench_function("vector/flat_search_500", |b| {
        b.iter(|| black_box(index.search(&query, 10)))
    });
}

fn bench_script(c: &mut Criterion) {
    let src =
        "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nfib(15)";
    // Production runs compiled bytecode on the VM; the tree-walker
    // (`Interpreter::run`) is only the differential oracle.
    let compiled = aida_script::compile_source(src).unwrap();
    c.bench_function("script/fib_15", |b| {
        b.iter(|| black_box(Interpreter::new().run_compiled(&compiled).unwrap()))
    });
}

fn bench_sql(c: &mut Criterion) {
    let table = csv::parse_table(&csv_text(2_000)).unwrap();
    let mut catalog = Catalog::new();
    catalog.register("reports", table);
    let query = "SELECT category, SUM(reports) AS total FROM reports WHERE year >= 2010 \
                 GROUP BY category ORDER BY total DESC LIMIT 5";
    c.bench_function("sql/group_by_2k_rows", |b| {
        b.iter(|| black_box(aida_sql::execute(query, &catalog).unwrap()))
    });
}

fn bench_semops_filter(c: &mut Criterion) {
    use aida_llm::ModelId;
    use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};
    let workload = aida_synth::legal::generate(1);
    c.bench_function("semops/filter_132_files", |b| {
        b.iter(|| {
            let env = ExecEnv::new(SimLlm::new(1));
            workload.install_oracle(&env.llm);
            let ds = Dataset::scan(&workload.lake, "legal")
                .sem_filter("mentions identity theft statistics");
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Mini, 8);
            black_box(Executor::new(&env).execute(&plan))
        })
    });
}

criterion_group!(
    substrates,
    bench_csv,
    bench_embedder,
    bench_topk,
    bench_keyword_index,
    bench_vector_index,
    bench_script,
    bench_sql,
    bench_semops_filter
);
criterion_main!(substrates);
