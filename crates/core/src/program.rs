//! Program synthesis: the `run_semantic_program` tool.
//!
//! This is the paper's key mechanism: each `search`/`compute` agent carries
//! a tool that takes a natural-language instruction, writes a semantic
//! operator program for it, hands the program to the cost-based optimizer,
//! and executes the optimized physical plan. The agent gets dynamic
//! planning; the program gets exhaustive, optimized execution.

use crate::runtime::Runtime;
use aida_agents::{FnTool, Tool, ToolSpec};
use aida_data::{DataLake, Field, Record, Value};
use aida_obs::SpanKind;
use aida_optimizer::Optimizer;
use aida_script::{ScriptError, ScriptValue};
use aida_semops::{Dataset, Executor};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One executed synthesized program (for traces and Context building).
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// The instruction the agent passed in.
    pub instruction: String,
    /// Rendered physical plan.
    pub plan: String,
    /// Output records.
    pub records: Vec<Record>,
    /// Dollars the program spent (sampling + execution).
    pub cost: f64,
    /// Virtual seconds the program took.
    pub time: f64,
}

/// Shared sink collecting the programs an agent ran.
#[derive(Debug, Clone, Default)]
pub struct ProgramTrace {
    runs: Arc<Mutex<Vec<ProgramRun>>>,
}

impl ProgramTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded runs.
    pub fn runs(&self) -> Vec<ProgramRun> {
        self.runs.lock().clone()
    }

    /// Number of runs recorded.
    pub fn len(&self) -> usize {
        self.runs.lock().len()
    }

    /// True when no program ran.
    pub fn is_empty(&self) -> bool {
        self.runs.lock().is_empty()
    }

    fn push(&self, run: ProgramRun) {
        self.runs.lock().push(run);
    }
}

/// Rule-based synthesis of semantic-operator programs from natural
/// language — the deterministic stand-in for the agent "writing a PZ
/// program".
pub struct ProgramSynthesizer;

impl ProgramSynthesizer {
    /// Synthesizes a logical program for `instruction` over `lake`.
    ///
    /// Rules, in order:
    /// 1. An "extract the a, b, and c" clause adds `sem_extract` fields.
    /// 2. "firsthand …" with proper-noun terms → the two-predicate email
    ///    program (mention filter, then firsthand filter).
    /// 3. "(number of) X in <year>" → filter files carrying statistics on
    ///    X, then extract the `value` for that year.
    /// 4. Otherwise: a single semantic filter with the raw instruction.
    pub fn synthesize(instruction: &str, lake: &DataLake) -> Dataset {
        let lower = instruction.to_ascii_lowercase();
        let mut ds = Dataset::scan(lake, "context");

        let proper_nouns = aida_agents::policy::capitalized_terms(instruction);
        let years = aida_agents::policy::task_years(instruction);

        if lower.contains("firsthand") && !proper_nouns.is_empty() {
            let names = proper_nouns.join(", ");
            ds = ds
                .sem_filter(format!(
                    "the email mentions one or more of the {names} business transactions"
                ))
                .sem_filter(format!(
                    "the email contains firsthand discussion of one or more of the {names} \
                     business transactions"
                ));
        } else if let (Some(phrase), Some(year)) = (number_of_phrase(instruction), years.first()) {
            ds = ds
                .sem_filter(format!(
                    "the file contains statistics on the number of {phrase}, including data \
                     for the year {year}"
                ))
                .sem_extract(
                    format!("find the number of {phrase} in {year}"),
                    vec![Field::described(
                        "value",
                        format!("the number of {phrase} in the year {year}"),
                    )],
                );
        } else {
            ds = ds.sem_filter(instruction.to_string());
        }

        for field in extract_fields(instruction) {
            ds = ds.sem_extract(
                format!("extract the {field} from the email"),
                vec![Field::described(
                    field.clone(),
                    format!("the {field} of the item"),
                )],
            );
        }
        ds
    }
}

/// Pulls the phrase of a "(the number of) X in <year>" instruction.
pub fn number_of_phrase(instruction: &str) -> Option<String> {
    let lower = instruction.to_ascii_lowercase();
    let start = lower.find("number of").map(|i| i + "number of".len())?;
    let rest = &lower[start..];
    let end = rest.find(" in ").unwrap_or(rest.len());
    let phrase = rest[..end]
        .trim()
        .trim_end_matches(|c: char| !c.is_alphanumeric())
        .to_string();
    if phrase.is_empty() {
        None
    } else {
        Some(phrase)
    }
}

/// Parses an "extract the a, b(,) and c" clause into field names.
fn extract_fields(instruction: &str) -> Vec<String> {
    let lower = instruction.to_ascii_lowercase();
    let Some(start) = lower.find("extract the ").map(|i| i + "extract the ".len()) else {
        return Vec::new();
    };
    let clause = &lower[start..];
    let clause = clause
        .split(" of each")
        .next()
        .unwrap_or(clause)
        .split(" from ")
        .next()
        .unwrap_or(clause);
    clause
        .split([','])
        .flat_map(|part| part.split(" and "))
        .filter_map(|part| {
            // Keep the last word of each phrase ("a short summary" -> summary).
            part.split_whitespace()
                .rfind(|w| w.chars().all(|c| c.is_alphanumeric()))
                .map(str::to_string)
        })
        .filter(|f| f.len() > 2)
        .collect()
}

/// Builds the `run_semantic_program` tool over a specific lake.
///
/// The tool: synthesize → optimize (runtime policy) → execute → return one
/// dict per output record (`source` plus every extracted field; raw
/// `contents` are dropped).
pub fn run_semantic_program_tool(
    runtime: &Runtime,
    lake: &DataLake,
    trace: &ProgramTrace,
) -> Arc<dyn Tool> {
    let runtime = runtime.clone();
    let lake = lake.clone();
    let trace = trace.clone();
    Arc::new(FnTool::new(
        ToolSpec::new(
            "run_semantic_program",
            "run_semantic_program(instruction: str) -> list[dict]",
            "writes an optimized semantic-operator program for the instruction, executes it \
             over the full context, and returns the matching records",
        ),
        move |args| {
            let instruction = args
                .first()
                .ok_or_else(|| ScriptError::host("run_semantic_program needs an instruction"))?
                .as_str()?
                .to_string();
            let ds = ProgramSynthesizer::synthesize(&instruction, &lake);
            // The program span opens before the optimizer so sampling
            // calls land inside it: its aggregate cost equals
            // `ProgramRun.cost` (sampling + execution).
            let span = runtime.env().recorder.span(
                SpanKind::Program,
                aida_obs::clip(&instruction, 60),
                runtime.env().clock.now(),
            );
            let optimizer = Optimizer::new(runtime.env(), runtime.config().optimizer.clone());
            let optimized = optimizer.optimize(ds.plan(), &runtime.config().policy);
            let before = runtime.env().llm.meter().snapshot();
            let t0 = runtime.env().clock.now();
            let report = Executor::new(runtime.env()).execute(&optimized.physical);
            let delta = runtime.env().llm.meter().snapshot().delta_since(&before);
            span.attr("plan", aida_obs::clip(&optimized.physical.render(), 160));
            span.rows(lake.len(), report.records.len());
            span.finish(runtime.env().clock.now());
            trace.push(ProgramRun {
                instruction: instruction.clone(),
                plan: optimized.physical.render(),
                records: report.records.clone(),
                cost: delta.cost(runtime.env().llm.catalog()) + optimized.matrix.sampling_cost,
                time: runtime.env().clock.now() - t0 + optimized.matrix.sampling_time,
            });
            Ok(records_to_script(&report.records))
        },
    ))
}

/// Renders records as a script list of dicts, dropping bulky fields.
fn records_to_script(records: &[Record]) -> ScriptValue {
    ScriptValue::list(
        records
            .iter()
            .map(|rec| {
                let mut map = BTreeMap::new();
                map.insert("source".to_string(), ScriptValue::str(rec.source.clone()));
                for (name, value) in rec.iter() {
                    if name == "contents" {
                        continue;
                    }
                    map.insert(name.to_string(), ScriptValue::from_data(value));
                }
                ScriptValue::dict(map)
            })
            .collect(),
    )
}

/// Builds a findings table from program output records (bulk fields
/// dropped), for SQL registration.
pub fn findings_table(records: &[Record]) -> aida_data::Table {
    let slim: Vec<Record> = records
        .iter()
        .map(|rec| {
            let mut out = Record::new(rec.source.clone());
            out.set("source", Value::Str(rec.source.as_str().into()));
            for (name, value) in rec.iter() {
                if name != "contents" {
                    out.set(name, value.clone());
                }
            }
            out
        })
        .collect();
    aida_data::Table::from_records(&slim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::Document;
    use aida_semops::plan::LogicalOp;

    #[test]
    fn extract_clause_parsing() {
        let fields = extract_fields(
            "filter the emails ... and extract the sender, subject, and a short summary of \
             each matching email.",
        );
        assert_eq!(fields, vec!["sender", "subject", "summary"]);
        assert!(extract_fields("no extraction here").is_empty());
    }

    #[test]
    fn number_of_phrase_parsing() {
        assert_eq!(
            number_of_phrase("What is the number of identity theft reports in 2024?"),
            Some("identity theft reports".to_string())
        );
        assert_eq!(number_of_phrase("count the widgets"), None);
    }

    #[test]
    fn synthesis_email_program_has_two_filters_and_extracts() {
        let lake = DataLake::from_docs([Document::new("e.eml", "x")]);
        let ds = ProgramSynthesizer::synthesize(
            "Filter the emails for ones which contain firsthand discussion of the Raptor or \
             Chewco transactions, and extract the sender, subject, and a short summary of \
             each matching email.",
            &lake,
        );
        let filters = ds
            .plan()
            .ops()
            .iter()
            .filter(|op| matches!(op, LogicalOp::SemFilter { .. }))
            .count();
        let extracts = ds
            .plan()
            .ops()
            .iter()
            .filter(|op| matches!(op, LogicalOp::SemExtract { .. }))
            .count();
        assert_eq!(filters, 2);
        assert_eq!(extracts, 3);
        // Mention filter precedes firsthand filter.
        let first = ds.plan().ops()[1].instruction().unwrap();
        assert!(first.contains("mentions"));
    }

    #[test]
    fn synthesis_numeric_program_filters_then_extracts_value() {
        let lake = DataLake::from_docs([Document::new("n.csv", "x")]);
        let ds = ProgramSynthesizer::synthesize(
            "find the number of identity theft reports in 2024",
            &lake,
        );
        let ops = ds.plan().ops();
        assert!(
            matches!(&ops[1], LogicalOp::SemFilter { instruction } if instruction.contains("2024"))
        );
        assert!(
            matches!(&ops[2], LogicalOp::SemExtract { fields, .. } if fields[0].name == "value")
        );
    }

    #[test]
    fn synthesis_fallback_is_single_filter() {
        let lake = DataLake::from_docs([Document::new("a.txt", "x")]);
        let ds = ProgramSynthesizer::synthesize("documents about mergers", &lake);
        assert_eq!(ds.plan().len(), 2);
        assert!(matches!(&ds.plan().ops()[1], LogicalOp::SemFilter { .. }));
    }

    #[test]
    fn records_to_script_drops_contents() {
        let rec = Record::new("f.csv")
            .with("filename", "f.csv")
            .with("contents", "HUGE")
            .with("value", 42i64);
        let sv = records_to_script(&[rec]);
        let rendered = sv.to_string();
        assert!(rendered.contains("'value': 42"));
        assert!(rendered.contains("'source': 'f.csv'"));
        assert!(!rendered.contains("HUGE"));
    }

    #[test]
    fn findings_table_has_source_column() {
        let rec = Record::new("a.eml")
            .with("sender", "x@y.com")
            .with("contents", "big");
        let t = findings_table(&[rec]);
        assert!(t.schema().contains("source"));
        assert!(t.schema().contains("sender"));
        assert!(!t.schema().contains("contents"));
        assert_eq!(t.len(), 1);
    }
}
