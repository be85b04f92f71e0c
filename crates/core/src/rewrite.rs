//! Logical optimizations over agentic pipelines (§3 of the paper).
//!
//! * **Split** — an overloaded `compute` directive that needs several
//!   distinct pieces of information (e.g. a ratio between two years) is
//!   rewritten into scoped `search` operators followed by the original
//!   compute, DocETL-style.
//! * **Merge** — adjacent `search` operators whose instructions are
//!   near-duplicates (embedding similarity above a threshold) collapse
//!   into one.
//!
//! A third optimization — inserting a `search` in front of a *failing*
//! compute at runtime — lives in [`crate::ops::Query::run`] because it is
//! dynamic, not static.

use crate::ops::AgenticOp;
use crate::runtime::Runtime;
use aida_agents::policy::task_years;
use aida_llm::embed::cosine;
use aida_obs::{clip, Event};

/// Similarity above which two adjacent searches are considered duplicates.
const MERGE_THRESHOLD: f32 = 0.92;

/// Applies all static rewrites: judge-gated splitting, then merging.
pub fn optimize_pipeline(runtime: &Runtime, ops: Vec<AgenticOp>) -> Vec<AgenticOp> {
    let recorder = runtime.env().recorder.clone();
    let gated: Vec<AgenticOp> = ops
        .into_iter()
        .flat_map(|op| match &op {
            AgenticOp::Compute(instr) if judge_needs_split(runtime, instr) => {
                let instr = instr.clone();
                let out = split_computes(vec![op]);
                if out.len() > 1 && recorder.is_enabled() {
                    recorder.event(Event::Rewrite {
                        rule: "split_computes".into(),
                        detail: format!(
                            "{} scoped searches inserted before \"{}\"",
                            out.len() - 1,
                            clip(&instr, 80)
                        ),
                    });
                    recorder.counter_add(aida_obs::registry::REWRITES_SPLIT_COMPUTES, 1);
                }
                out
            }
            _ => vec![op],
        })
        .collect();
    merge_searches(runtime, gated)
}

/// Asks an LLM judge whether a compute directive is overloaded and should
/// be split into scoped operations (the paper's §3 DocETL-style logical
/// optimization, proposed as future work; implemented here with the
/// simulated judge). The judge call is billed like any other.
fn judge_needs_split(runtime: &Runtime, instruction: &str) -> bool {
    use aida_llm::LlmTask;
    let options = [
        "the directive asks for one piece of information and can run as-is".to_string(),
        "the directive needs several distinct pieces of information and should be split"
            .to_string(),
    ];
    // The structural ground truth the judge is graded against: multiple
    // distinct information needs (here: a ratio across two years).
    let years = task_years(instruction);
    let structurally_overloaded =
        instruction.to_ascii_lowercase().contains("ratio") && years.len() >= 2;
    let question = format!(
        "Does this analytics directive need to be decomposed before execution? \
         Directive: {instruction}"
    );
    let resp = runtime.env().llm.invoke(
        runtime.config().agent_model,
        &LlmTask::Choose {
            question: &question,
            options: &options,
            correct: Some(usize::from(structurally_overloaded)),
        },
    );
    runtime.env().clock.advance(resp.latency_s);
    resp.value
        .as_int()
        .map(|i| i == 1)
        .unwrap_or(structurally_overloaded)
}

/// Splits overloaded compute directives.
///
/// Current rule: a `compute` that mentions a ratio across two years — and
/// is not already preceded by a `search` — gets one scoped `search` per
/// year inserted in front of it.
fn split_computes(ops: Vec<AgenticOp>) -> Vec<AgenticOp> {
    let mut out: Vec<AgenticOp> = Vec::with_capacity(ops.len());
    for op in ops {
        match &op {
            AgenticOp::Compute(instr) => {
                let preceded_by_search = matches!(out.last(), Some(AgenticOp::Search(_)));
                let years = task_years(instr);
                let lower = instr.to_ascii_lowercase();
                if !preceded_by_search && lower.contains("ratio") && years.len() >= 2 {
                    let phrase = crate::program::number_of_phrase(instr)
                        .unwrap_or_else(|| "the relevant statistics".to_string());
                    let mut sorted = years.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    for year in &sorted {
                        out.push(AgenticOp::Search(format!(
                            "look for information on {phrase} in {year}"
                        )));
                    }
                }
                out.push(op);
            }
            AgenticOp::Search(_) => out.push(op),
        }
    }
    out
}

/// Merges adjacent near-duplicate searches (keeping the first).
fn merge_searches(runtime: &Runtime, ops: Vec<AgenticOp>) -> Vec<AgenticOp> {
    let embedder = &runtime.env().embedder;
    let mut out: Vec<AgenticOp> = Vec::with_capacity(ops.len());
    for op in ops {
        if let (AgenticOp::Search(new_instr), Some(AgenticOp::Search(prev_instr))) =
            (&op, out.last())
        {
            let sim = cosine(&embedder.embed(prev_instr), &embedder.embed(new_instr));
            if sim >= MERGE_THRESHOLD {
                let recorder = &runtime.env().recorder;
                if recorder.is_enabled() {
                    recorder.event(Event::Rewrite {
                        rule: "merge_searches".into(),
                        detail: format!(
                            "dropped \"{}\" (similarity {sim:.3} to its predecessor)",
                            clip(new_instr, 80)
                        ),
                    });
                    recorder.counter_add(aida_obs::registry::REWRITES_MERGE_SEARCHES, 1);
                }
                continue; // duplicate of the previous search
            }
        }
        out.push(op);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_compute_gets_scoped_searches() {
        let ops = vec![AgenticOp::Compute(
            "What is the ratio between the number of identity theft reports in 2024 and the \
             number of identity theft reports in 2001?"
                .into(),
        )];
        let out = split_computes(ops);
        assert_eq!(out.len(), 3);
        assert!(matches!(&out[0], AgenticOp::Search(s) if s.contains("2001")));
        assert!(matches!(&out[1], AgenticOp::Search(s) if s.contains("2024")));
        assert!(matches!(&out[2], AgenticOp::Compute(_)));
    }

    #[test]
    fn compute_already_preceded_by_search_is_untouched() {
        let ops = vec![
            AgenticOp::Search("look for theft data".into()),
            AgenticOp::Compute("ratio between thefts in 2024 and 2001".into()),
        ];
        assert_eq!(split_computes(ops.clone()), ops);
    }

    #[test]
    fn non_ratio_computes_are_untouched() {
        let ops = vec![AgenticOp::Compute(
            "filter the emails for Raptor mentions".into(),
        )];
        assert_eq!(split_computes(ops.clone()), ops);
    }

    #[test]
    fn duplicate_adjacent_searches_merge() {
        let rt = Runtime::builder().build();
        let ops = vec![
            AgenticOp::Search("look for identity theft reports in 2001".into()),
            AgenticOp::Search("look for identity theft reports in 2001 data".into()),
            AgenticOp::Search("weather patterns in the gulf of mexico".into()),
        ];
        let out = merge_searches(&rt, ops);
        assert_eq!(out.len(), 2, "near-duplicate merged, distinct kept");
    }

    #[test]
    fn judge_flags_overloaded_directives() {
        let rt = Runtime::builder().build();
        // Billed like any other call.
        let before = rt.usage();
        let overloaded = judge_needs_split(
            &rt,
            "what is the ratio between the thefts in 2024 and the thefts in 2001",
        );
        assert!(rt.usage().since(&before).total_calls() >= 1);
        // The flagship judge is right on easy structural questions almost
        // always; accept either verdict but check the simple case too.
        let simple = judge_needs_split(&rt, "filter the emails about Raptor");
        // At least one of the two judgements must match ground truth
        // (flagship error at 0.3 difficulty is ~2%; both wrong is ~0.04%).
        assert!(overloaded || !simple);
    }

    #[test]
    fn full_pipeline_optimization_composes() {
        let rt = Runtime::builder().build();
        let ops = vec![AgenticOp::Compute(
            "ratio between the number of identity theft reports in 2024 and the number of \
             identity theft reports in 2001"
                .into(),
        )];
        let out = optimize_pipeline(&rt, ops);
        // Split produced two distinct year-scoped searches (not merged:
        // different years embed differently) plus the compute.
        assert!(out.len() >= 2);
        assert!(matches!(out.last(), Some(AgenticOp::Compute(_))));
    }
}
