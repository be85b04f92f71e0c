//! End-to-end integration tests spanning every crate: lake → Context →
//! agentic operators → optimized programs → materialized SQL.

use aida::core::Context;
use aida::prelude::*;
use aida::synth::{enron, legal};

/// The legal lake's national ground-truth file (the one document labelled
/// `gt_national`) and the identity-theft count on its last row, 2024's.
fn national_file(lake: &DataLake) -> (&str, i64) {
    let doc = lake
        .docs()
        .iter()
        .find(|d| d.label("gt_national").is_some())
        .expect("the legal lake has a national file");
    let last = doc.text().lines().last().unwrap().to_string();
    let thefts = last.split(',').nth(2).unwrap().parse().unwrap();
    (doc.name.as_str(), thefts)
}

#[test]
fn legal_ratio_pipeline_end_to_end() {
    let rt = Runtime::builder().seed(31).build();
    let workload = legal::generate(31);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);

    let outcome = rt.query(&ctx).compute(&workload.query).run();
    let ratio = outcome
        .answer
        .expect("compute answers the ratio query")
        .as_float()
        .expect("the answer is numeric");
    let truth = legal::true_ratio();
    assert!(
        ((ratio - truth) / truth).abs() < 0.05,
        "ratio {ratio} vs truth {truth}"
    );

    // The run spent simulated money and time.
    assert!(outcome.cost > 0.0 && outcome.cost < 5.0);
    assert!(outcome.time > 0.0);
    // Programs were synthesized and executed.
    let total_programs: usize = outcome.trace.iter().map(|t| t.programs.len()).sum();
    assert!(
        total_programs >= 2,
        "ratio compute runs one program per year"
    );
    // Findings were registered as SQL tables.
    assert!(!rt.table_names().is_empty());
}

#[test]
fn enron_filter_pipeline_end_to_end() {
    let rt = Runtime::builder().seed(2).build();
    let workload = enron::generate(2);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("enron", workload.lake.clone())
        .description(workload.description.clone())
        .build(&rt);

    let outcome = rt.query(&ctx).compute(&workload.query).run();
    let names: Vec<String> = outcome
        .answer
        .expect("filter compute answers")
        .as_list()
        .expect("answer is a list")
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    let truth = workload.truth.as_doc_set().unwrap();
    let prf = aida::eval::f1_score(&names, truth);
    assert!(prf.f1 > 0.85, "F1 {:.3}", prf.f1);

    // The materialized context is the matching subset.
    assert!(outcome.context.len() <= names.len() + 5);
    assert!(outcome.context.description.contains("FINDINGS"));
}

#[test]
fn search_enriches_and_narrows_before_compute() {
    let rt = Runtime::builder().seed(41).build();
    let workload = legal::generate(41);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);

    let outcome = rt
        .query(&ctx)
        .search("look for files with identity theft statistics")
        .compute("compute the number of identity theft reports in 2024")
        .run();
    assert_eq!(outcome.trace[0].op, "search");
    assert_eq!(outcome.trace[1].op, "compute");
    // The search narrowed the lake the compute ran over.
    assert!(outcome.context.len() < workload.lake.len());
    let answer = outcome.answer.expect("compute after search answers");
    assert_eq!(answer.as_int().unwrap(), national_file(&workload.lake).1);
}

#[test]
fn materialized_tables_are_sql_queryable() {
    let rt = Runtime::builder().seed(51).build();
    let workload = legal::generate(51);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);
    let _ = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2024")
        .run();
    let tables = rt.table_names();
    assert!(!tables.is_empty());
    let out = rt
        .sql(&format!(
            "SELECT source, value FROM {} WHERE value IS NOT NULL",
            tables[0]
        ))
        .expect("materialized table is queryable");
    assert!(!out.is_empty());
    // The national file's value is in there.
    let value = out.schema().index_of("value").unwrap();
    assert!(out
        .rows()
        .iter()
        .any(|row| row[value].as_int().ok() == Some(national_file(&workload.lake).1)));
}

#[test]
fn materialized_tables_join_across_queries() {
    // Two computes materialize two tables; SQL joins them on provenance —
    // the paper's "future queries can reuse structured tables" goal.
    let rt = Runtime::builder().seed(71).context_reuse(false).build();
    let workload = legal::generate(71);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);
    let first = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2001")
        .run();
    let second = rt
        .query(&ctx)
        .compute("find the number of identity theft reports in 2024")
        .run();
    assert!(first.answer.is_some() && second.answer.is_some());
    let tables = rt.table_names();
    assert!(
        tables.len() >= 2,
        "two computes materialize two tables: {tables:?}"
    );
    // Join the two materializations on source and compute the ratio in SQL.
    let out = rt
        .sql(&format!(
            "SELECT a.source, ROUND(b.value / a.value, 2) AS ratio \
             FROM {} a JOIN {} b ON a.source = b.source \
             WHERE a.value IS NOT NULL AND b.value IS NOT NULL",
            tables[0], tables[1]
        ))
        .expect("join over materialized tables");
    let truth = legal::true_ratio();
    let hit = out.rows().iter().any(|row| {
        row[1]
            .as_float()
            .map(|r| ((r - truth) / truth).abs() < 0.05)
            .unwrap_or(false)
    });
    assert!(
        hit,
        "joined ratio should match ground truth: {}",
        out.render()
    );
}

#[test]
fn usage_meter_reconciles_with_outcome_costs() {
    let rt = Runtime::builder().seed(61).build();
    let workload = legal::generate(61);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .build(&rt);
    assert_eq!(rt.cost(), 0.0);
    let outcome = rt.query(&ctx).compute(&workload.query).run();
    // Everything the pipeline spent is on the runtime's meter.
    assert!((rt.cost() - outcome.cost).abs() < 1e-9);
    assert!((rt.elapsed() - outcome.time).abs() < 1e-9);
}
