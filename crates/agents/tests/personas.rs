//! Behavioural tests for the Deep Research failure-mode personas: the
//! paper's observations (shortcut-taking, premature termination, manual
//! verification limits) must be reproducible and tunable.

use aida_agents::{tools, AgentConfig, AgentRuntime, CodeAgent, Persona, ToolRegistry};
use aida_data::Value;
use aida_llm::{ModelId, SimLlm};
use aida_semops::ExecEnv;
use aida_synth::enron;

fn run_agent(seed: u64, persona: Persona) -> (Option<Value>, String) {
    let workload = enron::generate(1);
    let env = ExecEnv::new(SimLlm::new(seed));
    workload.install_oracle(&env.llm);
    let mut registry = ToolRegistry::new();
    for tool in tools::lake_tools(&workload.lake) {
        registry.register(tool);
    }
    let agent = CodeAgent::deep_research(AgentConfig {
        model: ModelId::Flagship,
        max_steps: 8,
        persona,
        seed,
    });
    let runtime = AgentRuntime::new(&env, registry, Some(workload.lake.clone()));
    let outcome = runtime.run(&agent, &workload.query);
    let trace = outcome.render();
    (outcome.answer, trace)
}

fn returned_count(answer: &Option<Value>) -> usize {
    match answer {
        Some(Value::List(items)) => items.len(),
        _ => 0,
    }
}

#[test]
fn premature_termination_reduces_scan_coverage() {
    // With certain premature termination the keyword scan covers only part
    // of the corpus, so strictly fewer hits come back than a full scan.
    let full = Persona {
        shortcut_bias: 0.8,
        premature_stop: 0.0,
        verify_budget: 0,
    };
    let lazy = Persona {
        shortcut_bias: 0.8,
        premature_stop: 1.0,
        verify_budget: 0,
    };
    let (full_answer, full_trace) = run_agent(3, full);
    let (lazy_answer, lazy_trace) = run_agent(3, lazy);
    assert!(full_trace.contains("for f in files:"), "{full_trace}");
    assert!(lazy_trace.contains("for f in files[:"), "{lazy_trace}");
    assert!(
        returned_count(&lazy_answer) < returned_count(&full_answer),
        "lazy {} vs full {}",
        returned_count(&lazy_answer),
        returned_count(&full_answer)
    );
}

#[test]
fn manual_verification_rejects_some_keyword_traps() {
    // With a verification budget the agent reads some hits and drops the
    // secondhand forwards it judges irrelevant; with none it returns every
    // keyword hit.
    let blind = Persona {
        shortcut_bias: 0.8,
        premature_stop: 0.0,
        verify_budget: 0,
    };
    let careful = Persona {
        shortcut_bias: 0.8,
        premature_stop: 0.0,
        verify_budget: 25,
    };
    let (blind_answer, _) = run_agent(5, blind);
    let (careful_answer, _) = run_agent(5, careful);
    // 18 keyword-relevant + 5 secondhand forwards contain the names.
    assert_eq!(returned_count(&blind_answer), 23);
    assert!(
        returned_count(&careful_answer) < 23,
        "verification should reject some forwards: {}",
        returned_count(&careful_answer)
    );
}

#[test]
fn personas_are_deterministic_per_seed() {
    let persona = Persona::default();
    let (a, _) = run_agent(9, persona.clone());
    let (b, _) = run_agent(9, persona);
    assert_eq!(a, b);
}
