//! The four evaluated systems.
//!
//! Each runner takes a workload and a trial seed, builds a *fresh*
//! environment (simulator, clock, caches), runs the system end-to-end, and
//! reports its answer plus the dollars and virtual seconds it consumed.

use aida_agents::{tools, AgentConfig, AgentRuntime, CodeAgent, Persona, ToolRegistry};
use aida_core::{Context, Runtime};
use aida_data::{Field, Value};
use aida_llm::{ModelId, SimLlm};
use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};
use aida_synth::Workload;

/// A system's answer, normalized per task family.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemAnswer {
    /// One or more numeric answers (ratio queries; several when the system
    /// produced multiple candidate ratios, as the paper's semantic-operator
    /// baseline did).
    Numbers(Vec<f64>),
    /// A set of document names (filter queries).
    Docs(Vec<String>),
    /// The system produced nothing usable.
    None,
}

impl SystemAnswer {
    /// Converts a raw agent/compute answer value.
    pub fn from_value(value: Option<Value>) -> SystemAnswer {
        match value {
            Some(Value::Float(f)) if f.is_finite() => SystemAnswer::Numbers(vec![f]),
            Some(Value::Int(i)) => SystemAnswer::Numbers(vec![i as f64]),
            Some(Value::List(items)) => {
                let docs: Vec<String> = items
                    .iter()
                    .filter_map(|v| v.as_str().ok().map(str::to_string))
                    .collect();
                if docs.is_empty() && !items.is_empty() {
                    let nums: Vec<f64> = items.iter().filter_map(|v| v.as_float().ok()).collect();
                    if nums.is_empty() {
                        SystemAnswer::None
                    } else {
                        SystemAnswer::Numbers(nums)
                    }
                } else {
                    SystemAnswer::Docs(docs)
                }
            }
            Some(Value::Str(s)) => match s.trim().parse::<f64>() {
                Ok(f) if f.is_finite() => SystemAnswer::Numbers(vec![f]),
                _ => SystemAnswer::None,
            },
            _ => SystemAnswer::None,
        }
    }
}

/// The result of one system trial.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// The system's answer.
    pub answer: SystemAnswer,
    /// Dollars spent.
    pub cost: f64,
    /// Virtual seconds elapsed.
    pub time: f64,
    /// Free-form execution detail (plans, traces) for figures.
    pub detail: String,
}

/// Runs the handcrafted semantic-operator program (the paper's "Sem. Ops"
/// baseline): a fixed Palimpzest-style pipeline executed with the flagship
/// model — exhaustive iterator semantics, no agentic planning.
pub fn run_semops_handcrafted(workload: &Workload, seed: u64) -> SystemRun {
    let env = ExecEnv::new(SimLlm::new(seed));
    workload.install_oracle(&env.llm);
    if workload.name.starts_with("legal") {
        // filter(files with national id-theft stats) -> extract both years.
        let ds = Dataset::scan(&workload.lake, "legal")
            .sem_filter(
                "the file contains national statistics on the number of identity theft \
                 reports, covering both the years 2001 and 2024",
            )
            .sem_extract(
                "find the number of identity theft reports in 2024",
                vec![Field::described(
                    "thefts_2024",
                    "identity theft reports in 2024",
                )],
            )
            .sem_extract(
                "find the number of identity theft reports in 2001",
                vec![Field::described(
                    "thefts_2001",
                    "identity theft reports in 2001",
                )],
            );
        let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 4);
        let report = Executor::new(&env).execute(&plan);
        let mut ratios = Vec::new();
        for rec in &report.records {
            let hi = rec.get("thefts_2024").and_then(|v| v.as_float().ok());
            let lo = rec.get("thefts_2001").and_then(|v| v.as_float().ok());
            if let (Some(hi), Some(lo)) = (hi, lo) {
                if lo > 0.0 {
                    ratios.push(hi / lo);
                }
            }
        }
        SystemRun {
            answer: if ratios.is_empty() {
                SystemAnswer::None
            } else {
                SystemAnswer::Numbers(ratios)
            },
            cost: report.cost(),
            time: report.time(),
            detail: format!("{}\n{}", plan.render(), report.stats.render()),
        }
    } else {
        // Two filters + the three extractions, flagship everywhere.
        let ds = Dataset::scan(&workload.lake, "emails")
            .sem_filter(
                "the email mentions one or more of the Raptor, Chewco, LJM, Talon, or \
                 Condor business transactions",
            )
            .sem_filter(
                "the email contains firsthand discussion of one or more of the Raptor, \
                 Chewco, LJM, Talon, or Condor business transactions",
            )
            .sem_extract(
                "extract the sender email address",
                vec![Field::new("sender")],
            )
            .sem_extract("extract the subject line", vec![Field::new("subject")])
            .sem_map("write a one-sentence summary of the email", "summary", 60);
        let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 4);
        let report = Executor::new(&env).execute(&plan);
        SystemRun {
            answer: SystemAnswer::Docs(report.records.iter().map(|r| r.source().into()).collect()),
            cost: report.cost(),
            time: report.time(),
            detail: format!("{}\n{}", plan.render(), report.stats.render()),
        }
    }
}

/// Runs an open Deep Research CodeAgent. With `sem_tools` the agent also
/// gets the unoptimized semantic-operator tools (the paper's CodeAgent+).
pub fn run_code_agent(workload: &Workload, seed: u64, sem_tools: bool) -> SystemRun {
    let env = ExecEnv::new(SimLlm::new(seed));
    workload.install_oracle(&env.llm);
    let mut registry = ToolRegistry::new();
    for tool in tools::lake_tools(&workload.lake) {
        registry.register(tool);
    }
    if sem_tools {
        registry.register(tools::sem_filter_tool(
            &env,
            &workload.lake,
            ModelId::Flagship,
        ));
        registry.register(tools::sem_extract_tool(
            &env,
            &workload.lake,
            ModelId::Flagship,
        ));
    }
    let agent = CodeAgent::deep_research(AgentConfig {
        model: ModelId::Flagship,
        max_steps: 10,
        persona: Persona {
            shortcut_bias: 0.8,
            premature_stop: 0.15,
            verify_budget: 6,
        },
        seed,
    });
    let runtime = AgentRuntime::new(&env, registry, Some(workload.lake.clone()));
    let outcome = runtime.run(&agent, &workload.query);
    SystemRun {
        answer: SystemAnswer::from_value(outcome.answer.clone()),
        cost: outcome.cost_usd,
        time: outcome.time_s,
        detail: outcome.render(),
    }
}

/// Runs the prototype's `compute` operator (our system, "PZ compute")
/// with span tracing on; returns the recorder alongside the run for
/// `EXPLAIN ANALYZE` / JSONL export. Recording never touches the clock or
/// receipts, so answers, cost, and time are those of an untraced run.
pub fn run_pz_compute(workload: &Workload, seed: u64) -> (SystemRun, aida_obs::Recorder) {
    let rt = Runtime::builder().seed(seed).tracing(true).build();
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder(workload.name.clone(), workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);
    let outcome = rt.query(&ctx).compute(&workload.query).run();
    let mut detail = String::new();
    for t in &outcome.trace {
        detail.push_str(&format!(
            "{} \"{}\" reused={} steps={} ${:.4} {:.1}s\n",
            t.op, t.instruction, t.reused, t.agent_steps, t.cost, t.time
        ));
        for p in &t.programs {
            detail.push_str(&format!(
                "  program: {} -> {} records\n{}",
                p.instruction,
                p.records.len(),
                indent(&p.plan.render(), 4)
            ));
        }
    }
    let run = SystemRun {
        answer: SystemAnswer::from_value(outcome.answer.clone()),
        cost: outcome.cost,
        time: outcome.time,
        detail,
    };
    (run, rt.recorder().clone())
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines().map(|l| format!("{pad}{l}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_normalization() {
        assert_eq!(
            SystemAnswer::from_value(Some(Value::Float(13.2))),
            SystemAnswer::Numbers(vec![13.2])
        );
        assert_eq!(
            SystemAnswer::from_value(Some(Value::from(vec!["a.eml", "b.eml"]))),
            SystemAnswer::Docs(vec!["a.eml".into(), "b.eml".into()])
        );
        assert_eq!(SystemAnswer::from_value(None), SystemAnswer::None);
        assert_eq!(
            SystemAnswer::from_value(Some(Value::Str("13.5".into()))),
            SystemAnswer::Numbers(vec![13.5])
        );
        assert_eq!(
            SystemAnswer::from_value(Some(Value::List(vec![Value::Int(3)]))),
            SystemAnswer::Numbers(vec![3.0])
        );
        // An empty list is an empty doc set (valid: "no matches").
        assert_eq!(
            SystemAnswer::from_value(Some(Value::List(vec![]))),
            SystemAnswer::Docs(vec![])
        );
    }

    #[test]
    fn handcrafted_semops_finds_legal_ratio() {
        let w = aida_synth::legal::generate(1);
        let run = run_semops_handcrafted(&w, 1);
        match &run.answer {
            SystemAnswer::Numbers(ratios) => {
                assert!(!ratios.is_empty());
                let truth = aida_synth::legal::true_ratio();
                // At least one ratio must be the true one.
                assert!(
                    ratios.iter().any(|r| ((r - truth) / truth).abs() < 0.02),
                    "{ratios:?} vs {truth}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.cost > 0.0);
        assert!(run.time > 0.0);
    }

    #[test]
    fn code_agent_runs_legal_query() {
        let w = aida_synth::legal::generate(2);
        let run = run_code_agent(&w, 2, false);
        // The agent answers *something* cheap; correctness varies by trial.
        assert!(run.cost < 0.5, "CodeAgent should be cheap: ${}", run.cost);
        assert!(run.detail.contains("list_files"));
    }

    #[test]
    fn handcrafted_semops_works_on_enron_too() {
        let w = aida_synth::enron::generate(3);
        let run = run_semops_handcrafted(&w, 3);
        match &run.answer {
            SystemAnswer::Docs(docs) => {
                let truth = w.truth.as_doc_set().unwrap().to_vec();
                let prf = crate::metrics::f1_score(docs, &truth);
                assert!(prf.f1 > 0.9, "handcrafted program F1 {:.3}", prf.f1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn code_agent_plus_uses_semantic_tools_on_enron() {
        let w = aida_synth::enron::generate(1);
        let run = run_code_agent(&w, 1, true);
        match &run.answer {
            SystemAnswer::Docs(docs) => assert!(!docs.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        assert!(run.detail.contains("sem_filter_tool"));
        // Unoptimized tools are expensive: two full-corpus filter passes.
        assert!(run.cost > 1.0, "CodeAgent+ cost ${}", run.cost);
    }
}
