//! Scale smoke test: the full pipeline on a 432-file lake with a vector
//! index — proving the larger-lake path (vector search, optimizer over a
//! big scan) works end to end.

use aida::core::Context;
use aida::prelude::*;
use aida::synth::legal;

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
fn compute_on_a_432_file_lake_with_vector_index() {
    let rt = Runtime::builder().seed(81).build();
    let workload = legal::generate_scaled(81, 200);
    assert_eq!(workload.lake.len(), 432);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal-xl", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);

    // The vector index returns topically-relevant candidates among 432. (The
    // needle CSV embeds as mostly numbers, so prose report pages can
    // legitimately outrank it — exhaustive recall is the semantic
    // filter's job, not the index's.)
    let (national, thefts_2024) = national_file(&workload.lake);
    let hits = ctx.vector_search(&rt, "national identity theft reports by year", 8);
    assert_eq!(hits.len(), 8);
    assert!(
        hits.iter()
            .filter(|h| h.contains("annual_report")
                || h.contains("identity_theft")
                || *h == national)
            .count()
            >= 6,
        "most vector hits should be theft-related: {hits:?}"
    );

    let outcome = rt
        .query(&ctx)
        .search("look for national identity theft statistics")
        .compute("compute the number of identity theft reports in 2024")
        .run();
    let answer = outcome.answer.expect("compute answers at scale");
    assert_eq!(answer.as_int().unwrap(), thefts_2024);
    // Search narrowed the compute's input well below the full lake.
    assert!(
        outcome.context.len() < 100,
        "narrowed to {}",
        outcome.context.len()
    );
}
