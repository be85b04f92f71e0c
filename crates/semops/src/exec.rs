//! The semantic-operator execution engine.
//!
//! Iterator semantics with batched parallelism: every operator consumes its
//! full input batch, fanning LLM calls across `parallelism` virtual
//! workers (run inline on the calling thread: [`parallel_map`]).
//! Wall time is accounted on the shared virtual clock as the batch's
//! critical path (`ceil(n / parallelism)` waves); each operator sums the
//! receipts of its LLM calls, and the plan's receipt is their sum.

use crate::physical::{PhysicalPlan, PhysicalStep};
use crate::plan::LogicalOp;
use crate::stats::{OperatorStats, PlanStats};
use aida_data::{Record, Value};
pub use aida_llm::oracle::subject_text;
use aida_llm::oracle::Subject;
use aida_llm::{Embedder, LlmTask, SimClock, SimLlm, TaskHead, UsageSnapshot};
use aida_obs::{Recorder, SpanKind};
use std::sync::Arc;

/// Shared execution environment.
#[derive(Debug, Clone)]
pub struct ExecEnv {
    /// The (simulated) LLM service; carries the oracle and the cache.
    pub llm: SimLlm,
    /// The virtual clock.
    pub clock: SimClock,
    /// Embedder for proxy-scored operators (top-k).
    pub embedder: Embedder,
    /// Trace recorder (disabled unless opted in via [`ExecEnv::with_recorder`]).
    pub recorder: Recorder,
}

/// Ceiling on per-plan *virtual* fan-out: plans request a level, the
/// executor caps it, and the virtual clock charges a batch as
/// `ceil(n / parallelism)` waves. The host runs every batch on one thread
/// ([`parallel_map`]), so no simulated second or dollar depends on the
/// machine.
const MAX_PARALLELISM: usize = 32;

/// How many input records a semantic aggregate renders into its prompt.
/// Inputs past the cap are dropped — counted in the
/// `agg.truncated_records` counter and surfaced as an execution warning,
/// never silently.
const DEFAULT_AGG_INPUT_CAP: usize = 200;

impl ExecEnv {
    /// Creates an environment around an LLM service (tracing disabled).
    pub fn new(llm: SimLlm) -> Self {
        ExecEnv {
            llm,
            clock: SimClock::new(),
            embedder: Embedder::default(),
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a trace recorder to the environment *and* its LLM, so
    /// physical-operator spans and per-call events land in one trace.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.llm = self.llm.with_recorder(recorder.clone());
        self.recorder = recorder;
        self
    }
}

/// The result of executing a physical plan.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Output records.
    pub records: Vec<Record>,
    /// Per-operator statistics.
    pub stats: PlanStats,
    /// Human-readable warnings raised during execution (e.g. a semantic
    /// aggregate truncating its input past the configured cap).
    pub warnings: Vec<String>,
    /// Everything the plan billed: the sum of its operators' receipts.
    pub receipt: UsageSnapshot,
}

impl ExecutionReport {
    /// Total dollars spent by the plan.
    pub fn cost(&self) -> f64 {
        self.stats.total_cost()
    }

    /// Total virtual seconds consumed by the plan.
    pub fn time(&self) -> f64 {
        self.stats.total_time()
    }
}

/// Executes physical plans against an environment.
pub struct Executor<'a> {
    env: &'a ExecEnv,
}

impl<'a> Executor<'a> {
    /// Creates an executor.
    pub fn new(env: &'a ExecEnv) -> Self {
        Executor { env }
    }

    /// Runs the plan to completion.
    pub fn execute(&self, plan: &PhysicalPlan) -> ExecutionReport {
        let mut records: Vec<Record> = Vec::new();
        let mut stats = PlanStats::default();
        let mut warnings: Vec<String> = Vec::new();
        let mut plan_receipt = UsageSnapshot::default();
        let parallelism = plan.parallelism.clamp(1, MAX_PARALLELISM);
        for step in &plan.steps {
            let rows_in = records.len();
            let mut receipt = UsageSnapshot::default();
            let t0 = self.env.clock.now();
            let span = self
                .env
                .recorder
                .span(SpanKind::PhysicalOp, step.op.name(), t0);
            if let Some(instruction) = step.op.instruction() {
                span.attr("instruction", aida_obs::clipped(instruction, 80));
            }
            if step.op.is_semantic() {
                span.attr("model", step.model.name());
            }
            records = self.run_step(step, records, parallelism, &mut warnings, &mut receipt);
            span.rows(rows_in, records.len());
            span.finish(self.env.clock.now());
            let op_stats = OperatorStats {
                op: step.op.name().to_string(),
                model: step.op.is_semantic().then(|| step.model.name().to_string()),
                rows_in,
                rows_out: records.len(),
                calls: receipt.total_calls() as usize,
                cost_usd: receipt.cost(self.env.llm.catalog()),
                time_s: self.env.clock.now() - t0,
            };
            if rows_in > 0 {
                self.env.recorder.histogram_record(
                    aida_obs::registry::OPERATOR_SELECTIVITY,
                    op_stats.selectivity(),
                );
            }
            stats.operators.push(op_stats);
            plan_receipt.add(&receipt);
        }
        ExecutionReport {
            records,
            stats,
            warnings,
            receipt: plan_receipt,
        }
    }

    fn run_step(
        &self,
        step: &PhysicalStep,
        records: Vec<Record>,
        parallelism: usize,
        warnings: &mut Vec<String>,
        receipt: &mut UsageSnapshot,
    ) -> Vec<Record> {
        match &step.op {
            LogicalOp::Scan { lake, .. } => {
                // Reading files is ~free next to LLM calls; charge a small
                // fixed I/O latency per wave.
                self.env.clock.advance_parallel(
                    0.002 * lake.len() as f64,
                    lake.len().max(1),
                    parallelism,
                );
                lake.docs().iter().map(Record::scanned).collect()
            }
            LogicalOp::SemFilter { instruction } => {
                let head = TaskHead::filter(instruction);
                let verdicts = self.parallel_llm(step, &head, &records, parallelism, receipt);
                records
                    .into_iter()
                    .zip(verdicts)
                    .filter(|(_, v)| v.truthy())
                    .map(|(r, _)| r)
                    .collect()
            }
            LogicalOp::SemExtract {
                instruction,
                fields,
            } => {
                let mut out = records;
                // One LLM pass per extracted field (documented API shape).
                for field in fields {
                    let head = TaskHead::extract(instruction, &field.name, &field.desc);
                    let values = self.parallel_llm(step, &head, &out, parallelism, receipt);
                    for (rec, value) in out.iter_mut().zip(values) {
                        rec.set(field.name.clone(), value);
                    }
                }
                out
            }
            LogicalOp::SemMap {
                instruction,
                output,
                target_tokens,
            } => {
                let head = TaskHead::map(instruction, *target_tokens);
                let values = self.parallel_llm(step, &head, &records, parallelism, receipt);
                let mut out = records;
                for (rec, value) in out.iter_mut().zip(values) {
                    rec.set(output.clone(), value);
                }
                out
            }
            LogicalOp::SemAgg { instruction } => {
                // Aggregate over (bounded) renders of every record;
                // dropping inputs past the cap is counted and warned
                // about, never silent.
                let cap = DEFAULT_AGG_INPUT_CAP;
                let truncated = records.len().saturating_sub(cap);
                if truncated > 0 {
                    let msg = format!(
                        "sem_agg truncated {truncated} of {} input records (cap {cap})",
                        records.len()
                    );
                    eprintln!("warning: {msg}");
                    if self.env.recorder.is_enabled() {
                        self.env.recorder.counter_add(
                            aida_obs::registry::AGG_TRUNCATED_RECORDS,
                            truncated as u64,
                        );
                    }
                    warnings.push(msg);
                }
                let mut combined = String::new();
                for rec in records.iter().take(cap) {
                    let render = rec.render();
                    let take = render.len().min(600);
                    combined.push_str(&render[..floor_char_boundary(&render, take)]);
                    combined.push('\n');
                }
                let subject = Subject::text_only("aggregate-input", &combined);
                let resp = self.env.llm.invoke(
                    step.model,
                    &LlmTask::Map {
                        instruction,
                        subject,
                        target_tokens: 120,
                    },
                );
                self.env.clock.advance(resp.latency_s);
                receipt.add(&resp.receipt);
                vec![Record::new("sem_agg").with("answer", resp.value)]
            }
            LogicalOp::SemTopK { query, k } => {
                let q = self.env.embedder.embed(query);
                let mut scored: Vec<(f32, Record)> = records
                    .into_iter()
                    .map(|rec| {
                        let text = subject_text(&rec);
                        let score = aida_llm::embed::cosine(&q, &self.env.embedder.embed(&text));
                        (score, rec)
                    })
                    .collect();
                scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
                scored.truncate(*k);
                // Proxy scoring is cheap but not free: small per-record time.
                let n = scored.len().max(1);
                self.env
                    .clock
                    .advance_parallel(0.003 * n as f64, n, parallelism);
                scored.into_iter().map(|(_, r)| r).collect()
            }
            LogicalOp::SemGroupBy { instruction, k } => {
                if records.is_empty() {
                    return records;
                }
                let k = (*k).clamp(1, records.len());
                // Embed every record and run a few Lloyd iterations.
                let vectors: Vec<Vec<f32>> = records
                    .iter()
                    .map(|rec| self.env.embedder.embed(&subject_text(rec)))
                    .collect();
                let assignments = kmeans_assign(&vectors, k);
                // One labelling call per cluster over a bounded sample of
                // its members.
                let mut labels: Vec<String> = Vec::with_capacity(k);
                let mut total_latency = 0.0;
                let prompt =
                    format!("name the common theme of these items, with respect to: {instruction}");
                let head = TaskHead::map(&prompt, 12);
                for cluster in 0..k {
                    let mut sample = String::new();
                    for (rec, &a) in records.iter().zip(&assignments) {
                        if a == cluster && sample.len() < 1_500 {
                            let text = subject_text(rec);
                            let take = text.len().min(300);
                            sample.push_str(&text[..floor_char_boundary(&text, take)]);
                            sample.push('\n');
                        }
                    }
                    if sample.is_empty() {
                        labels.push(format!("group {cluster}"));
                        continue;
                    }
                    let subject = Subject::text_only("groupby-cluster", &sample);
                    let resp = self.env.llm.invoke(
                        step.model,
                        &LlmTask::Prepared {
                            head: &head,
                            subject,
                        },
                    );
                    total_latency += resp.latency_s;
                    receipt.add(&resp.receipt);
                    labels.push(resp.text);
                }
                self.env
                    .clock
                    .advance_parallel(total_latency, k, parallelism);
                let mut out = records;
                for (rec, a) in out.iter_mut().zip(assignments) {
                    rec.set("group", labels[a].as_str());
                }
                out
            }
            LogicalOp::SemJoin { instruction, right } => {
                // Materialize the right side with the same model/parallelism.
                let right_plan = PhysicalPlan::uniform(right, step.model, parallelism);
                let right_report = self.execute(&right_plan);
                warnings.extend(right_report.warnings.iter().cloned());
                receipt.add(&right_report.receipt);
                let mut out = Vec::new();
                // Quadratic NL-predicate join.
                let mut pair_subjects: Vec<(usize, usize, String)> = Vec::new();
                for (i, l) in records.iter().enumerate() {
                    for (j, r) in right_report.records.iter().enumerate() {
                        pair_subjects.push((
                            i,
                            j,
                            format!("LEFT: {}\nRIGHT: {}", subject_text(l), subject_text(r)),
                        ));
                    }
                }
                let head = TaskHead::filter(instruction);
                let verdicts = self.coalesced_parallel(
                    pair_subjects.len(),
                    |i| pair_subjects[i].2.as_str(),
                    parallelism,
                    receipt,
                    |i| {
                        let subject = Subject::text_only("join-pair", &pair_subjects[i].2);
                        self.env.llm.invoke(
                            step.model,
                            &LlmTask::Prepared {
                                head: &head,
                                subject,
                            },
                        )
                    },
                );
                let total_latency: f64 = verdicts.iter().map(|r| r.latency_s).sum();
                self.env
                    .clock
                    .advance_parallel(total_latency, verdicts.len(), parallelism);
                for ((i, j, _), verdict) in pair_subjects.iter().zip(&verdicts) {
                    if verdict.value.truthy() {
                        let mut merged = records[*i].clone();
                        for (name, value) in right_report.records[*j].iter() {
                            merged.set(format!("right_{name}"), value.clone());
                        }
                        out.push(merged);
                    }
                }
                out
            }
            LogicalOp::Project { columns } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                records.iter().map(|r| r.project(&cols)).collect()
            }
            LogicalOp::Limit { n } => records.into_iter().take(*n).collect(),
            LogicalOp::Count => {
                vec![Record::new("count").with("count", Value::Int(records.len() as i64))]
            }
        }
    }

    /// Asks `head` about every record on the step's model across workers,
    /// advancing the clock by the batch critical path and adding the
    /// batch's receipt to `receipt`; returns per-record values in input
    /// order.
    fn parallel_llm(
        &self,
        step: &PhysicalStep,
        head: &TaskHead<'_>,
        records: &[Record],
        parallelism: usize,
        receipt: &mut UsageSnapshot,
    ) -> Vec<Value> {
        let subjects: Vec<Subject<'_>> = records
            .iter()
            .map(|rec| Subject::record(rec, rec.origin().map(Arc::as_ref)))
            .collect();
        let responses = self.coalesced_parallel(
            records.len(),
            |i| (records[i].source(), subjects[i].text_hash()),
            parallelism,
            receipt,
            |i| {
                let subject = subjects[i].clone();
                let task = LlmTask::Prepared { head, subject };
                self.env.llm.invoke(step.model, &task)
            },
        );
        let total_latency: f64 = responses.iter().map(|r| r.latency_s).sum();
        self.env
            .clock
            .advance_parallel(total_latency, responses.len(), parallelism);
        responses.into_iter().map(|r| r.value).collect()
    }

    /// Fans `call` over `0..n` with [`parallel_map`]. With the semantic
    /// cache enabled, duplicate calls inside one virtually-simultaneous
    /// batch are deduplicated *before* dispatch, by key, so which record
    /// computes and which is a coalesced duplicate is fixed by the batch's
    /// order and seeded replay stays byte-identical. The
    /// first occurrence of each key computes; duplicates share its
    /// response and are counted as `coalesced` hits. The batch's receipt
    /// (the computed calls' plus the duplicates' coalesced count, never a
    /// duplicate's copy of its representative's) is added to `receipt`.
    fn coalesced_parallel<K, KF, F>(
        &self,
        n: usize,
        key_of: KF,
        parallelism: usize,
        receipt: &mut UsageSnapshot,
        call: F,
    ) -> Vec<aida_llm::LlmResponse>
    where
        K: Eq + std::hash::Hash,
        KF: Fn(usize) -> K,
        F: Fn(usize) -> aida_llm::LlmResponse,
    {
        if self.env.llm.cache().is_none() {
            let indices: Vec<usize> = (0..n).collect();
            let responses = parallel_map(&indices, parallelism, |&i| call(i));
            for resp in &responses {
                receipt.add(&resp.receipt);
            }
            return responses;
        }
        let (rep, uniques) = dedup_indices((0..n).map(key_of));
        let unique_responses = parallel_map(&uniques, parallelism, |&i| call(i));
        let mut resp_of: Vec<Option<aida_llm::LlmResponse>> = vec![None; n];
        for (&i, resp) in uniques.iter().zip(unique_responses) {
            receipt.add(&resp.receipt);
            resp_of[i] = Some(resp);
        }
        let coalesced = (n - uniques.len()) as u64;
        if coalesced > 0 {
            receipt.add(&self.env.llm.coalesced(coalesced));
            if self.env.recorder.is_enabled() {
                self.env
                    .recorder
                    .counter_add(aida_obs::registry::CACHE_COALESCED, coalesced);
            }
        }
        rep.into_iter()
            .map(|r| resp_of[r].clone().expect("representative computed"))
            .collect()
    }
}

/// Maps each index to its first occurrence by key. Returns the
/// representative index per position and the list of unique (first
/// occurrence) indices in order.
fn dedup_indices<K: Eq + std::hash::Hash>(
    keys: impl Iterator<Item = K>,
) -> (Vec<usize>, Vec<usize>) {
    let mut first: std::collections::HashMap<K, usize> = std::collections::HashMap::new();
    let mut rep = Vec::new();
    let mut uniques = Vec::new();
    for (i, key) in keys.enumerate() {
        match first.entry(key) {
            std::collections::hash_map::Entry::Occupied(slot) => rep.push(*slot.get()),
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(i);
                rep.push(i);
                uniques.push(i);
            }
        }
    }
    (rep, uniques)
}

fn floor_char_boundary(s: &str, mut idx: usize) -> usize {
    idx = idx.min(s.len());
    while idx > 0 && !s.is_char_boundary(idx) {
        idx -= 1;
    }
    idx
}

/// Deterministic k-means assignment (Lloyd's algorithm, 6 iterations,
/// farthest-point initialization) used by the semantic group-by.
fn kmeans_assign(vectors: &[Vec<f32>], k: usize) -> Vec<usize> {
    // Farthest-point initialization (deterministic k-means++ flavour):
    // start from the first vector, then repeatedly add the point farthest
    // from its nearest chosen centroid.
    let mut centroids: Vec<Vec<f32>> = vec![vectors[0].clone()];
    while centroids.len() < k {
        let (mut best_i, mut best_d) = (0usize, -1.0f32);
        for (i, v) in vectors.iter().enumerate() {
            let nearest = centroids
                .iter()
                .map(|c| aida_llm::embed::l2_sq(v, c))
                .fold(f32::INFINITY, f32::min);
            if nearest > best_d {
                best_d = nearest;
                best_i = i;
            }
        }
        centroids.push(vectors[best_i].clone());
    }
    let mut assignments = vec![0usize; vectors.len()];
    for _ in 0..6 {
        for (i, v) in vectors.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = aida_llm::embed::l2_sq(v, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assignments[i] = best;
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&Vec<f32>> = vectors
                .iter()
                .zip(&assignments)
                .filter(|(_, &a)| a == c)
                .map(|(v, _)| v)
                .collect();
            if members.is_empty() {
                continue;
            }
            for (dim, slot) in centroid.iter_mut().enumerate() {
                *slot = members.iter().map(|m| m[dim]).sum::<f32>() / members.len() as f32;
            }
        }
    }
    assignments
}

/// Applies `f` to every item, in input order, on the calling thread.
/// The second argument, the plan's *virtual* fan-out, is not read: the
/// executor clamps it to [`MAX_PARALLELISM`] and charges the clock for
/// it, and host threads would buy no simulated second or dollar
/// (DESIGN.md, "Virtual workers vs host threads").
pub fn parallel_map<T, R, F>(items: &[T], _parallelism: usize, f: F) -> Vec<R>
where
    F: Fn(&T) -> R,
{
    items.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use aida_data::{DataLake, Document, Field};
    use aida_llm::oracle::{FnRule, OracleAnswer, OracleQuery};
    use aida_llm::ModelId;

    fn env() -> ExecEnv {
        ExecEnv::new(SimLlm::new(7))
    }

    fn theft_lake() -> DataLake {
        DataLake::from_docs([
            Document::new(
                "national.csv",
                "year,identity_theft_reports\n2001,86250\n2005,200000\n2024,1135291\n",
            )
            .with_label("difficulty", 0.0),
            Document::new("pipeline.txt", "natural gas pipeline maintenance schedule")
                .with_label("difficulty", 0.0),
            Document::new("trends.txt", "identity theft trends rose through 2024")
                .with_label("difficulty", 0.0),
        ])
    }

    #[test]
    fn recorder_spans_mirror_operator_stats() {
        let recorder = Recorder::new();
        let env = ExecEnv::new(SimLlm::new(7)).with_recorder(recorder.clone());
        let ds = Dataset::scan(&theft_lake(), "lake").sem_filter("mentions identity theft");
        let plan = PhysicalPlan::default_for(ds.plan());
        let report = Executor::new(&env).execute(&plan);
        let trace = recorder.trace();
        assert_eq!(trace.spans.len(), report.stats.operators.len());
        for (span, stats) in trace.spans.iter().zip(&report.stats.operators) {
            assert_eq!(span.name, stats.op);
            assert_eq!(span.rows_in, Some(stats.rows_in));
            assert_eq!(span.rows_out, Some(stats.rows_out));
            assert_eq!(span.calls as usize, stats.calls);
            assert!((span.cost_usd - stats.cost_usd).abs() < 1e-9);
            assert!((span.duration_s() - stats.time_s).abs() < 1e-9);
        }
        // The filter's model attribute and selectivity histogram landed.
        let filter = &trace.spans[1];
        assert!(filter
            .attrs
            .iter()
            .any(|(k, v)| k == "model" && !v.is_empty()));
        assert!(trace.histograms["operator.selectivity"].count >= 1);
    }

    #[test]
    fn scan_produces_filename_and_contents() {
        let env = env();
        let ds = Dataset::scan(&theft_lake(), "lake");
        let plan = PhysicalPlan::default_for(ds.plan());
        let report = Executor::new(&env).execute(&plan);
        assert_eq!(report.records.len(), 3);
        assert_eq!(
            report.records[0].get("filename"),
            Some(&Value::Str("national.csv".into()))
        );
        assert!(report.records[0].get("contents").is_some());
    }

    #[test]
    fn filter_keeps_matching_records_and_bills() {
        let env = env();
        let ds = Dataset::scan(&theft_lake(), "lake").sem_filter("mentions identity theft");
        let plan = PhysicalPlan::default_for(ds.plan());
        let report = Executor::new(&env).execute(&plan);
        let names: Vec<&str> = report.records.iter().map(|r| r.source()).collect();
        assert!(names.contains(&"national.csv"));
        assert!(names.contains(&"trends.txt"));
        assert!(!names.contains(&"pipeline.txt"));
        assert!(report.cost() > 0.0);
        assert!(report.time() > 0.0);
        // Filter stats: 3 in, 2 out, 3 calls.
        let filter = &report.stats.operators[1];
        assert_eq!(filter.rows_in, 3);
        assert_eq!(filter.rows_out, 2);
        assert_eq!(filter.calls, 3);
    }

    #[test]
    fn extract_reads_table_values() {
        let env = env();
        let ds = Dataset::scan(&theft_lake(), "lake")
            .sem_filter("mentions identity theft reports by year in a table")
            .sem_extract(
                "find the number of identity theft reports in 2024",
                vec![Field::described(
                    "thefts_2024",
                    "identity theft reports in 2024",
                )],
            );
        let plan = PhysicalPlan::default_for(ds.plan());
        let report = Executor::new(&env).execute(&plan);
        let national = report
            .records
            .iter()
            .find(|r| r.source() == "national.csv")
            .expect("national file survives filter");
        assert_eq!(national.get("thefts_2024"), Some(&Value::Int(1_135_291)));
    }

    #[test]
    fn map_adds_summary_field() {
        let env = env();
        let ds = Dataset::scan(&theft_lake(), "lake").sem_map("summarize", "summary", 20);
        let plan = PhysicalPlan::default_for(ds.plan());
        let report = Executor::new(&env).execute(&plan);
        for rec in &report.records {
            let summary = rec.get("summary").unwrap().as_str().unwrap();
            assert!(!summary.is_empty());
        }
    }

    #[test]
    fn agg_reduces_to_single_answer() {
        let env = env();
        let ds = Dataset::scan(&theft_lake(), "lake").sem_agg("how many files mention theft");
        let plan = PhysicalPlan::default_for(ds.plan());
        let report = Executor::new(&env).execute(&plan);
        assert_eq!(report.records.len(), 1);
        assert!(report.records[0].get("answer").is_some());
    }

    #[test]
    fn topk_keeps_most_relevant_without_llm_cost() {
        let env = env();
        let ds = Dataset::scan(&theft_lake(), "lake").sem_topk("identity theft statistics", 1);
        let plan = PhysicalPlan::default_for(ds.plan());
        let before = env.llm.usage();
        let report = Executor::new(&env).execute(&plan);
        assert_eq!(report.records.len(), 1);
        assert_ne!(report.records[0].source(), "pipeline.txt");
        let delta = env.llm.usage().delta_since(&before);
        assert_eq!(delta.total_calls(), 0, "top-k is proxy scored");
    }

    #[test]
    fn group_by_labels_semantic_clusters() {
        let env = env();
        let lake = DataLake::from_docs([
            Document::new(
                "t1.txt",
                "identity theft reports fraud statistics consumer sentinel",
            ),
            Document::new(
                "t2.txt",
                "identity theft reports fraud statistics yearly trends",
            ),
            Document::new(
                "g1.txt",
                "natural gas pipeline maintenance schedule compressor station",
            ),
            Document::new(
                "g2.txt",
                "natural gas pipeline maintenance schedule capacity notes",
            ),
        ]);
        let ds = Dataset::scan(&lake, "docs").sem_group_by("topic of the document", 2);
        let report = Executor::new(&env).execute(&PhysicalPlan::default_for(ds.plan()));
        assert_eq!(report.records.len(), 4);
        // Every record gets a group label; the theft docs share one and the
        // gas docs share the other.
        let group_of = |name: &str| {
            report
                .records
                .iter()
                .find(|r| r.source() == name)
                .and_then(|r| r.get("group"))
                .cloned()
                .unwrap()
        };
        assert_eq!(group_of("t1.txt"), group_of("t2.txt"));
        assert_eq!(group_of("g1.txt"), group_of("g2.txt"));
        assert_ne!(group_of("t1.txt"), group_of("g1.txt"));
        // One labelling call per cluster.
        let gb = report
            .stats
            .operators
            .iter()
            .find(|o| o.op == "sem_groupby")
            .unwrap();
        assert_eq!(gb.calls, 2);
    }

    #[test]
    fn group_by_handles_degenerate_inputs() {
        let env = env();
        let lake = DataLake::from_docs([Document::new("only.txt", "one document")]);
        let ds = Dataset::scan(&lake, "docs").sem_group_by("topic", 5);
        let report = Executor::new(&env).execute(&PhysicalPlan::default_for(ds.plan()));
        assert_eq!(report.records.len(), 1);
        assert!(report.records[0].get("group").is_some());
        // Empty input passes through untouched.
        let empty = DataLake::new();
        let ds = Dataset::scan(&empty, "docs").sem_group_by("topic", 3);
        let report = Executor::new(&env).execute(&PhysicalPlan::default_for(ds.plan()));
        assert!(report.records.is_empty());
    }

    #[test]
    fn join_merges_matching_pairs() {
        let env = env();
        let left_lake = DataLake::from_docs([
            Document::new("q1.txt", "identity theft question"),
            Document::new("q2.txt", "pipeline maintenance question"),
        ]);
        let left = Dataset::scan(&left_lake, "questions");
        let right = Dataset::scan(&theft_lake(), "docs");
        let ds = left.sem_join(
            "the left item and right item discuss identity theft topics",
            &right,
        );
        let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 4);
        let report = Executor::new(&env).execute(&plan);
        // Matching pairs carry fields from both sides.
        assert!(report
            .records
            .iter()
            .any(|r| r.get("right_filename").is_some()));
    }

    #[test]
    fn project_limit_count() {
        let env = env();
        let ds = Dataset::scan(&theft_lake(), "lake")
            .project(&["filename"])
            .limit(2)
            .count();
        let plan = PhysicalPlan::default_for(ds.plan());
        let report = Executor::new(&env).execute(&plan);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].get("count"), Some(&Value::Int(2)));
    }

    #[test]
    fn a_derived_record_reads_no_namesake_labels() {
        // A `count` record has no origin: a lake document that happens to
        // be named `count` must not lend it its labels.
        for name in ["count", "counted.txt"] {
            let env = env();
            env.llm.oracle().register(Arc::new(FnRule::new(
                "relevant",
                |_: &OracleQuery<'_>, subject: &Subject<'_>| {
                    Some(OracleAnswer::Bool(subject.label("relevant").is_some()))
                },
            )));
            let lake = DataLake::from_docs([
                Document::new(name, "a document")
                    .with_label("relevant", true)
                    .with_label("difficulty", 0.0),
                Document::new("m1.txt", "a memo").with_label("difficulty", 0.0),
            ]);
            let ds = Dataset::scan(&lake, "lake")
                .count()
                .sem_filter("is it relevant");
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 1);
            let report = Executor::new(&env).execute(&plan);
            assert!(report.records.is_empty(), "{name}: {:?}", report.records);
        }
    }

    #[test]
    fn parallelism_reduces_virtual_time_not_results() {
        let lake = theft_lake();
        let run = |parallelism: usize| {
            let env = ExecEnv::new(SimLlm::new(7));
            let ds = Dataset::scan(&lake, "lake").sem_filter("mentions identity theft");
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, parallelism);
            let report = Executor::new(&env).execute(&plan);
            (
                report
                    .records
                    .iter()
                    .map(|r| r.source().to_string())
                    .collect::<Vec<_>>(),
                report.time(),
            )
        };
        let (seq_records, seq_time) = run(1);
        let (par_records, par_time) = run(3);
        assert_eq!(
            seq_records, par_records,
            "parallelism must not change results"
        );
        assert!(
            par_time < seq_time,
            "parallel {par_time} vs sequential {seq_time}"
        );
    }

    #[test]
    fn cheaper_model_costs_less() {
        let lake = theft_lake();
        let cost_with = |model: ModelId| {
            let env = ExecEnv::new(SimLlm::new(7));
            let ds = Dataset::scan(&lake, "lake").sem_filter("mentions identity theft");
            let plan = PhysicalPlan::uniform(ds.plan(), model, 4);
            Executor::new(&env).execute(&plan).cost()
        };
        assert!(cost_with(ModelId::Nano) < cost_with(ModelId::Flagship));
    }

    mod properties {
        use super::*;
        use crate::dataset::Dataset;
        use proptest::prelude::*;

        fn lake_of(n: usize, relevant_every: usize) -> DataLake {
            DataLake::from_docs((0..n).map(|i| {
                let content = if relevant_every > 0 && i % relevant_every == 0 {
                    format!("memo {i}: identity theft statistics")
                } else {
                    format!("memo {i}: cafeteria menu")
                };
                Document::new(format!("m{i}.txt"), content).with_label("difficulty", 0.0)
            }))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            #[test]
            fn filter_output_is_subset_of_scan(n in 1usize..30, every in 1usize..5, seed in 0u64..50) {
                let lake = lake_of(n, every);
                let env = ExecEnv::new(SimLlm::new(seed));
                let ds = Dataset::scan(&lake, "memos").sem_filter("mentions identity theft");
                let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 4);
                let report = Executor::new(&env).execute(&plan);
                prop_assert!(report.records.len() <= n);
                // Every output record carries a document of the scanned
                // lake itself, not a copy or a namesake.
                for rec in &report.records {
                    let origin = rec.origin().expect("a filtered scan record has its origin");
                    prop_assert!(lake.docs().iter().any(|doc| Arc::ptr_eq(doc, origin)));
                }
                // Stats invariants: filters call once per input record.
                let filter = &report.stats.operators[1];
                prop_assert_eq!(filter.rows_in, n);
                prop_assert_eq!(filter.calls, n);
                prop_assert!(filter.rows_out <= filter.rows_in);
                prop_assert!(filter.cost_usd > 0.0);
            }

            #[test]
            fn limit_truncates_exactly(n in 1usize..30, k in 0usize..35) {
                let lake = lake_of(n, 1);
                let env = ExecEnv::new(SimLlm::new(1));
                let ds = Dataset::scan(&lake, "memos").limit(k);
                let report = Executor::new(&env)
                    .execute(&PhysicalPlan::default_for(ds.plan()));
                prop_assert_eq!(report.records.len(), k.min(n));
            }

            #[test]
            fn topk_never_exceeds_k(n in 1usize..25, k in 0usize..30) {
                let lake = lake_of(n, 2);
                let env = ExecEnv::new(SimLlm::new(1));
                let ds = Dataset::scan(&lake, "memos").sem_topk("identity theft", k);
                let report = Executor::new(&env)
                    .execute(&PhysicalPlan::default_for(ds.plan()));
                prop_assert_eq!(report.records.len(), k.min(n));
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 7, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<usize> = vec![];
        assert!(parallel_map(&empty, 4, |x| *x).is_empty());
    }

    #[test]
    fn ceiling_caps_plan_parallelism() {
        let lake = theft_lake();
        let run = |parallelism: usize| {
            let env = ExecEnv::new(SimLlm::new(7));
            let ds = Dataset::scan(&lake, "lake").sem_filter("mentions identity theft");
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, parallelism);
            let report = Executor::new(&env).execute(&plan);
            let names: Vec<String> = report
                .records
                .iter()
                .map(|r| r.source().to_string())
                .collect();
            (names, report.time())
        };
        let (narrow_records, narrow_time) = run(1);
        let (wide_records, wide_time) = run(64);
        assert_eq!(
            narrow_records, wide_records,
            "parallelism must not change results"
        );
        assert!(
            narrow_time > wide_time,
            "narrow {narrow_time} vs wide {wide_time}"
        );
        // Past the ceiling a wider request buys no more virtual time.
        assert_eq!(run(MAX_PARALLELISM).1, wide_time);
    }

    #[test]
    fn agg_truncation_is_counted_and_warned() {
        let recorder = Recorder::new();
        let env = ExecEnv::new(SimLlm::new(7)).with_recorder(recorder.clone());
        let memos = |n: usize| {
            DataLake::from_docs(
                (0..n).map(|i| Document::new(format!("d{i}.txt"), format!("memo {i} theft"))),
            )
        };
        let over = memos(DEFAULT_AGG_INPUT_CAP + 2);
        let ds = Dataset::scan(&over, "docs").sem_agg("how many mention theft");
        let report = Executor::new(&env).execute(&PhysicalPlan::default_for(ds.plan()));
        assert_eq!(report.warnings.len(), 1);
        assert!(
            report.warnings[0].contains("truncated 2 of 202"),
            "{}",
            report.warnings[0]
        );
        assert_eq!(recorder.trace().counters["agg.truncated_records"], 2);
        // Under the cap: no warning, no counter.
        let env = ExecEnv::new(SimLlm::new(7)).with_recorder(Recorder::new());
        let under = memos(6);
        let ds = Dataset::scan(&under, "docs").sem_agg("how many mention theft");
        let report = Executor::new(&env).execute(&PhysicalPlan::default_for(ds.plan()));
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn cache_dedups_duplicate_batch_records_deterministically() {
        use aida_llm::cache::SemanticCache;
        // Four copies of one document plus two distinct ones: with the
        // cache on, one batch bills only the unique calls and counts the
        // duplicates as coalesced — identically on every run.
        let lake = DataLake::from_docs([
            Document::new("a.txt", "identity theft memo"),
            Document::new("a2.txt", "identity theft memo"),
            Document::new("a3.txt", "identity theft memo"),
            Document::new("b.txt", "cafeteria menu"),
        ]);
        let run = || {
            let llm = SimLlm::new(7).with_cache(SemanticCache::with_capacity(0));
            let env = ExecEnv::new(llm);
            let ds = Dataset::scan(&lake, "docs").sem_filter("mentions identity theft");
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 4);
            let report = Executor::new(&env).execute(&plan);
            let stats = env.llm.cache().unwrap().stats();
            let names: Vec<String> = report
                .records
                .iter()
                .map(|r| r.source().to_string())
                .collect();
            (names, env.llm.usage().total_calls(), stats)
        };
        let (names, billed, stats) = run();
        // Distinct sources are distinct subjects (the subject name feeds
        // the noise channel), so all four still bill — but coalescing is
        // exercised through the join path below. Here: no duplicates by
        // key (source differs), so 4 misses.
        assert_eq!(billed, 4);
        assert_eq!(stats.misses, 4);
        assert_eq!(names.len(), 3, "{names:?}");
        assert_eq!(run(), run(), "replay is byte-identical");
        // A cache smaller than the batch evicts while the batch runs: what
        // stays resident, and in which recency order, must not depend on
        // the plan's fan-out.
        let snapshot = |parallelism: usize| {
            let llm = SimLlm::new(7).with_cache(SemanticCache::with_capacity(2));
            let env = ExecEnv::new(llm);
            let ds = Dataset::scan(&lake, "docs").sem_filter("mentions identity theft");
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, parallelism);
            Executor::new(&env).execute(&plan);
            let cache = env.llm.cache().unwrap();
            assert_eq!((cache.stats().misses, cache.len()), (4, 2));
            cache.encode_snapshot().0
        };
        assert_eq!(snapshot(8), snapshot(1));
    }

    #[test]
    fn join_dedups_identical_pairs_when_cached() {
        use aida_llm::cache::SemanticCache;
        // Two identical left records produce identical join-pair texts:
        // the cache-aware path bills each unique pair once.
        let left_lake = DataLake::from_docs([
            Document::new("q1.txt", "identity theft question"),
            Document::new("q2.txt", "identity theft question"),
        ]);
        let right_lake = DataLake::from_docs([Document::new("d.txt", "identity theft stats")]);
        let run = |cached: bool| {
            let mut llm = SimLlm::new(7);
            if cached {
                llm = llm.with_cache(SemanticCache::with_capacity(0));
            }
            let env = ExecEnv::new(llm);
            let left = Dataset::scan(&left_lake, "questions");
            let right = Dataset::scan(&right_lake, "docs");
            let ds = left.sem_join("both discuss identity theft", &right);
            let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 4);
            let report = Executor::new(&env).execute(&plan);
            let join_calls: u64 = env.llm.usage().total_calls();
            let coalesced = env.llm.cache().map(|c| c.stats().coalesced).unwrap_or(0);
            (report.records.len(), join_calls, coalesced)
        };
        let (rows_plain, calls_plain, _) = run(false);
        let (rows_cached, calls_cached, coalesced) = run(true);
        assert_eq!(rows_plain, rows_cached, "dedup must not change results");
        assert_eq!(coalesced, 1, "one duplicate pair coalesced");
        assert_eq!(calls_cached + 1, calls_plain, "one call saved");
    }
}
