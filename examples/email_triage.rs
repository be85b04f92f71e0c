//! Semantic group-by: triage an email corpus into topical buckets with one
//! labelling call per bucket, then count the buckets with SQL — the
//! "structure once, query cheaply" loop on a clustering task.
//!
//! Run with: `cargo run --release --example email_triage`

use aida::data::Table;
use aida::llm::ModelId;
use aida::prelude::*;
use aida::semops::{ExecEnv, Executor, PhysicalPlan};
use aida::synth::enron;

fn main() {
    let workload = enron::generate(7);
    let env = ExecEnv::new(aida::llm::SimLlm::new(7));
    workload.install_oracle(&env.llm);

    // Cluster the first 60 emails into 4 semantic buckets; each bucket is
    // labelled with a single LLM call (not one per email).
    let subset = DataLake::from_docs(
        workload
            .lake
            .docs()
            .iter()
            .take(60)
            .map(|d| d.as_ref().clone()),
    );
    let ds = Dataset::scan(&subset, "emails")
        .sem_group_by("the business topic the email is about", 4)
        .project(&["filename", "group"]);
    let report = Executor::new(&env).execute(&PhysicalPlan::uniform(ds.plan(), ModelId::Mini, 8));
    println!(
        "triaged {} emails into 4 buckets for ${:.4} ({} LLM calls)\n",
        report.records.len(),
        report.cost(),
        report.stats.total_calls()
    );

    // Bucket sizes via SQL over the materialized assignment table.
    let rt = Runtime::builder().build();
    rt.register_table("triage", Table::from_records(&report.records));
    let out = rt
        .sql(
            "SELECT \"group\" FROM triage LIMIT 0", // probe the quoted-ident gap
        )
        .err();
    if out.is_some() {
        // `group` is a keyword-ish name; alias it through a projection.
        let renamed: Vec<_> = report
            .records
            .iter()
            .map(|r| {
                aida::data::Record::new(r.source())
                    .with("filename", r.get_or_null("filename"))
                    .with("bucket", r.get_or_null("group"))
            })
            .collect();
        rt.register_table("triage", Table::from_records(&renamed));
    }
    let counts = rt
        .sql("SELECT bucket, COUNT(*) AS n FROM triage GROUP BY bucket ORDER BY n DESC")
        .expect("bucket counts");
    println!("bucket sizes:\n{}", counts.render());
}
