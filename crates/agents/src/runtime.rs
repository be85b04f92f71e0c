//! The CodeAgent execution loop.
//!
//! Each step: the policy (standing in for the planning LLM) produces code;
//! the code is parsed once and compiled to bytecode, and one dataflow
//! analysis judges it (names, loops and types against the tool registry
//! and the globals earlier steps left) and bounds its cost — all
//! *before* the planning call is billed, so a provably bad
//! generation costs $0.00 and zero virtual seconds. That verdict comes
//! from the runtime's [`StepCache`] when the same source already met the
//! same tools and globals, so a repeated step runs none of those stages.
//! Then the step is billed to the simulated LLM as a call whose prompt is
//! the task + tool manifest + observation tail and whose completion is the
//! code, cache-keyed by the compiled plan's content hash; the compiled
//! program runs on the register VM with the tools bound, on one
//! interpreter per run, so a function one step defines is callable from
//! the next; printed output becomes the next observation. The loop ends
//! when `final_answer` fires or the step budget runs out.

use crate::policy::{PolicyAction, PolicyContext};
use crate::step_cache::{StepCache, StepKey, StepVerdict};
use crate::tool::{RunReceipts, ToolRegistry};
use crate::tools::AnswerCell;
use crate::CodeAgent;
use aida_data::{DataLake, Value};
use aida_llm::noise;
use aida_llm::{LlmTask, UsageSnapshot};
use aida_obs::SpanKind;
use aida_script::Interpreter;
use aida_semops::ExecEnv;
use std::sync::Arc;

/// One executed agent step.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Step index.
    pub step: usize,
    /// The code the policy wrote.
    pub code: String,
    /// The observation the code produced (printed output, final value, or
    /// the error message).
    pub observation: String,
    /// The static cost bound of the compiled step, computed before the
    /// planning call was billed. `None` when the step never compiled
    /// (static-check or typecheck rejection).
    pub bound: Option<aida_script::bounds::CostBound>,
}

/// The result of an agent run.
#[derive(Debug, Clone)]
pub struct AgentOutcome {
    /// The submitted answer, if the agent called `final_answer`.
    pub answer: Option<Value>,
    /// Per-step traces.
    pub steps: Vec<StepTrace>,
    /// What the run billed: its planning calls, its policy's manual
    /// judgements and its tools' LLM calls.
    pub receipt: UsageSnapshot,
    /// Dollars the run spent (the receipt's cost).
    pub cost_usd: f64,
    /// Virtual seconds the run took.
    pub time_s: f64,
}

impl AgentOutcome {
    /// Renders a compact transcript for figures/traces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            out.push_str(&format!("--- step {} ---\n{}\n", step.step, step.code));
            let obs: String = step.observation.chars().take(400).collect();
            out.push_str(&format!("observation: {obs}\n"));
        }
        out.push_str(&format!(
            "answer: {}  (${:.4}, {:.1}s)\n",
            self.answer
                .as_ref()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "<none>".into()),
            self.cost_usd,
            self.time_s
        ));
        out
    }
}

/// Runs CodeAgents against a tool registry and data lake.
pub struct AgentRuntime<'a> {
    env: &'a ExecEnv,
    registry: ToolRegistry,
    lake: Option<DataLake>,
    /// Compiled-step verdicts, shared with every agent of one runtime.
    steps: StepCache,
}

/// Maximum observation characters fed back into the next planning prompt.
const OBSERVATION_CAP: usize = 12_000;
/// Maximum characters of accumulated observations in a prompt.
const PROMPT_OBS_CAP: usize = 18_000;

impl<'a> AgentRuntime<'a> {
    /// Creates a runtime. `lake` enables the policy's manual-judgement
    /// helper to resolve ground-truth labels, mirroring an agent actually
    /// reading a document in context. The runtime starts a fresh
    /// [`StepCache`] of its own; [`AgentRuntime::sharing`] takes one.
    pub fn new(env: &'a ExecEnv, registry: ToolRegistry, lake: Option<DataLake>) -> Self {
        AgentRuntime::sharing(env, registry, lake, StepCache::new())
    }

    /// [`AgentRuntime::new`] compiling steps through `steps` (a clone
    /// shares its store), so a program another agent already compiled in
    /// the same environment goes straight to the VM.
    pub fn sharing(
        env: &'a ExecEnv,
        registry: ToolRegistry,
        lake: Option<DataLake>,
        steps: StepCache,
    ) -> Self {
        AgentRuntime {
            env,
            registry,
            lake,
            steps,
        }
    }

    /// The tool registry.
    pub fn registry(&self) -> &ToolRegistry {
        &self.registry
    }

    /// The front-end verdict for `code` in this environment: served from
    /// the step cache when the same source already met the same tool
    /// signatures and global names, computed (and cached) otherwise.
    fn compile_step(
        &self,
        registry: &ToolRegistry,
        interp: &Interpreter,
        code: &str,
    ) -> StepVerdict {
        let key = StepKey {
            source: code.to_string(),
            tools: registry
                .specs()
                .into_iter()
                .map(|spec| (spec.name.clone(), spec.signature.clone()))
                .collect(),
            globals: interp.global_names(),
        };
        self.steps.get_or_compile(key, front_end)
    }

    /// Runs an agent on a task to completion.
    pub fn run(&self, agent: &CodeAgent, task: &str) -> AgentOutcome {
        let answer = AnswerCell::new();
        let mut registry = self.registry.clone();
        registry.register(crate::tools::final_answer_tool(&answer));

        let receipts = RunReceipts::default();
        let mut interp = Interpreter::new().with_fuel(5_000_000);
        registry.bind_billing_into(&mut interp, &receipts);

        self.steps.0.report_to(&self.env.recorder);
        let t0 = self.env.clock.now();
        let manifest = registry.manifest();
        let mut observations: Vec<String> = Vec::new();
        let mut steps: Vec<StepTrace> = Vec::new();

        for step in 0..agent.config.max_steps {
            let step_span = self.env.recorder.span(
                SpanKind::AgentStep,
                format_args!("step {step}"),
                self.env.clock.now(),
            );
            let ctx = PolicyContext {
                task,
                step,
                observations: &observations,
                persona: &agent.config.persona,
                seed: noise::combine(&[agent.config.seed, noise::hash_str(task)]),
                tools: &registry,
                env: self.env,
                lake: self.lake.as_ref(),
                model: agent.config.model,
                receipts: &receipts,
            };
            let code = match agent.policy.next_step(&ctx) {
                PolicyAction::Code(code) => code,
                PolicyAction::Done => {
                    step_span.finish(self.env.clock.now());
                    break;
                }
            };
            step_span.attr("code", aida_obs::clipped(&code, 80));

            let (compiled, plan_hash) = match self.compile_step(&registry, &interp, &code) {
                Ok(verdict) => verdict,
                Err((pass, err)) => {
                    // Rejected before billing: flight-record the reason and
                    // feed the error back to the policy.
                    step_span.attr("rejected", pass);
                    if self.env.recorder.is_enabled() {
                        self.env.recorder.flight(
                            "agents.step",
                            "step_rejected",
                            format!("step {step}: {err}"),
                        );
                    }
                    let observation = format!("ERROR: {err}");
                    steps.push(StepTrace {
                        step,
                        code,
                        observation: observation.clone(),
                        bound: None,
                    });
                    observations.push(observation);
                    step_span.finish(self.env.clock.now());
                    continue;
                }
            };
            step_span.attr("bound", &compiled.bound);

            // Bill the planning step: the agent "reads" the task, tools,
            // and observation tail, and "writes" the code.
            let obs_tail = tail(&observations.join("\n"), PROMPT_OBS_CAP);
            let prompt = format!("{task}\n{manifest}\n{obs_tail}");
            let resp = self.env.llm.invoke(
                agent.config.model,
                &LlmTask::Freeform {
                    prompt: &prompt,
                    response: &code,
                    plan_hash,
                },
            );
            self.env.clock.advance(resp.latency_s);
            receipts.borrow_mut().add(&resp.receipt);

            let observation = match interp.run_compiled(&compiled) {
                Ok(value) => {
                    let mut printed = interp.take_output().join("\n");
                    if printed.is_empty() {
                        printed = value.to_string();
                    }
                    tail(&printed, OBSERVATION_CAP)
                }
                Err(err) => format!("ERROR: {err}"),
            };
            if self.env.recorder.is_enabled() {
                self.env.recorder.flight(
                    "agents.step",
                    "step",
                    format!("step {step}: {}", aida_obs::clip(&observation, 80)),
                );
            }
            steps.push(StepTrace {
                step,
                code,
                observation: observation.clone(),
                bound: Some(compiled.bound.clone()),
            });
            observations.push(observation);
            step_span.finish(self.env.clock.now());

            if answer.is_set() {
                break;
            }
        }

        let receipt = receipts.take();
        AgentOutcome {
            answer: answer.get(),
            steps,
            cost_usd: receipt.cost(self.env.llm.catalog()),
            receipt,
            time_s: self.env.clock.now() - t0,
        }
    }
}

/// Parses the step's source once and compiles it under the key's tool
/// signatures and globals (live bindings of unknown type): one analysis
/// gives both the front-end verdict and the cost bound of a run that
/// starts with those globals bound. Runs *before* the planning call is
/// billed, so a program the check can prove malformed or ill-typed costs
/// $0.00 and zero virtual seconds. A rejection names its pass by the
/// error's class: `typecheck` for a type error, `static-check` for
/// everything else (lex, parse, undefined name, unknown call, unbounded
/// loop).
fn front_end(key: &StepKey) -> StepVerdict {
    let compiled = aida_script::parser::parse(&key.source).and_then(|program| {
        let mut env = aida_script::TypeEnv::new();
        for (name, signature) in &key.tools {
            env.add_tool_signature(name, signature);
        }
        for name in &key.globals {
            env.bind_global(name, aida_script::Ty::Any);
        }
        aida_script::compile_checked(&program, &env)
    });
    match compiled {
        Ok(program) => {
            let hash = program.content_hash();
            Ok((Arc::new(program), hash))
        }
        Err(err) => {
            let pass = match err {
                aida_script::ScriptError::Type { .. } => "typecheck",
                _ => "static-check",
            };
            Err((pass, err.to_string()))
        }
    }
}

fn tail(text: &str, cap: usize) -> String {
    if text.len() <= cap {
        return text.to_string();
    }
    let start = text.len() - cap;
    let mut idx = start;
    while idx < text.len() && !text.is_char_boundary(idx) {
        idx += 1;
    }
    format!("…{}", &text[idx..])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flight ring's records, one JSONL line each, read back through
    /// the recorder's dump (`label` keeps concurrent tests apart).
    fn flight_lines(recorder: &aida_obs::Recorder, label: &str) -> Vec<String> {
        let dir =
            std::env::temp_dir().join(format!("aida-agents-flight-{label}-{}", std::process::id()));
        recorder.set_flight_autodump(dir.join("flight.jsonl"));
        let path = recorder.flight_autodump("probe").expect("tracing is on");
        let text = std::fs::read_to_string(path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        text.lines().skip(1).map(str::to_string).collect()
    }
    use crate::policy::{AgentPolicy, PolicyAction, PolicyContext};
    use crate::tools::lake_tools;
    use crate::{AgentConfig, CodeAgent};
    use aida_data::Document;
    use aida_llm::SimLlm;
    use aida_script::bounds::Bound;

    struct FixedPolicy(Vec<&'static str>);
    impl AgentPolicy for FixedPolicy {
        fn next_step(&self, ctx: &PolicyContext<'_>) -> PolicyAction {
            match self.0.get(ctx.step) {
                Some(code) => PolicyAction::Code((*code).to_string()),
                None => PolicyAction::Done,
            }
        }
    }

    fn lake() -> DataLake {
        DataLake::from_docs([Document::new("data.csv", "year,n\n2001,10\n2024,130\n")])
    }

    fn runtime_env() -> ExecEnv {
        ExecEnv::new(SimLlm::new(3))
    }

    fn registry(lake: &DataLake) -> ToolRegistry {
        let mut registry = ToolRegistry::new();
        for tool in lake_tools(lake) {
            registry.register(tool);
        }
        registry
    }

    #[test]
    fn agent_runs_steps_and_answers() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), Some(lake.clone()));
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec![
                "files = list_files()\nprint(files)",
                "c = read_file('data.csv')\nlines = c.splitlines()\na = float(lines[2].split(',')[1])\nb = float(lines[1].split(',')[1])\nfinal_answer(a / b)",
            ])),
        );
        let outcome = rt.run(&agent, "compute the 2024/2001 ratio");
        assert_eq!(outcome.answer, Some(Value::Float(13.0)));
        assert_eq!(outcome.steps.len(), 2);
        assert!(outcome.cost_usd > 0.0, "planning steps are billed");
        assert!(outcome.time_s > 0.0);
    }

    #[test]
    fn observations_flow_between_steps() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec!["print(list_files())"])),
        );
        let outcome = rt.run(&agent, "look around");
        assert!(outcome.steps[0].observation.contains("data.csv"));
        assert!(outcome.answer.is_none());
    }

    #[test]
    fn script_errors_become_observations() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec![
                "undefined_function()",
                "final_answer('ok')",
            ])),
        );
        let outcome = rt.run(&agent, "do something");
        assert!(outcome.steps[0].observation.starts_with("ERROR:"));
        assert_eq!(outcome.answer, Some(Value::Str("ok".into())));
    }

    #[test]
    fn statically_rejected_programs_cost_nothing() {
        let recorder = aida_obs::Recorder::new();
        let env = ExecEnv::new(SimLlm::new(3)).with_recorder(recorder.clone());
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        // Every program is malformed in a way the front end can prove
        // without types: an unknown tool, a name defined nowhere, an
        // unbounded loop, and a syntax error. None of them may bill a
        // planning call or advance the virtual clock.
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec![
                "serch_files()",
                "print(never_assigned)",
                "while True:\n    x = 1",
                "def broken(:",
            ])),
        );
        let outcome = rt.run(&agent, "do something");
        assert_eq!(outcome.steps.len(), 4);
        for step in &outcome.steps[..3] {
            assert!(
                step.observation.starts_with("ERROR: static error"),
                "step {}: {}",
                step.step,
                step.observation
            );
        }
        // A syntax error is reported as itself, not wrapped in a static
        // error.
        assert_eq!(
            outcome.steps[3].observation,
            "ERROR: lex error (line 1): unclosed bracket"
        );
        let rejected: Vec<String> = recorder
            .trace()
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::AgentStep)
            .flat_map(|s| s.attrs.iter().filter(|(k, _)| k == "rejected"))
            .map(|(_, pass)| pass.clone())
            .collect();
        assert_eq!(rejected, ["static-check"; 4]);
        assert_eq!(outcome.cost_usd, 0.0, "rejected steps must not bill");
        assert_eq!(outcome.time_s, 0.0, "rejected steps must not take time");
    }

    #[test]
    fn ill_typed_programs_cost_nothing() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        // Every program names only tools that exist and variables that
        // are assigned somewhere, but the front end's flow-sensitive
        // types prove it wrong on all paths: bad tool arity, a tool
        // argument of the wrong type, and a use before the (only)
        // assignment. None may bill a planning call or advance the clock.
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec![
                "c = read_file('data.csv', 'extra')\nprint(c)",
                "c = read_file(7)\nprint(c)",
                "hits = search_keywords('ratio', 'three')\nprint(hits)",
                "print(n)\nn = 3",
            ])),
        );
        let outcome = rt.run(&agent, "do something");
        assert_eq!(outcome.steps.len(), 4);
        for step in &outcome.steps {
            assert!(
                step.observation.starts_with("ERROR:"),
                "step {}: {}",
                step.step,
                step.observation
            );
        }
        assert!(
            outcome.steps[0].observation.contains("takes 1 argument"),
            "arity: {}",
            outcome.steps[0].observation
        );
        assert!(
            outcome.steps[1].observation.contains("expects str"),
            "arg type: {}",
            outcome.steps[1].observation
        );
        assert!(
            outcome.steps[3]
                .observation
                .contains("used before assignment"),
            "use-before-assign: {}",
            outcome.steps[3].observation
        );
        assert_eq!(outcome.cost_usd, 0.0, "ill-typed steps must not bill");
        assert_eq!(outcome.time_s, 0.0, "ill-typed steps must not take time");
    }

    #[test]
    fn valid_programs_still_execute_and_bill() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        // A legal late-binding program (helper defined after first use
        // site, loop with a data-dependent bound) must pass the checker
        // and run normally.
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec![
                "def main():\n    return helper(3)\ndef helper(n):\n    t = 0\n    while n > 0:\n        t += n\n        n -= 1\n    return t\nfinal_answer(main())",
            ])),
        );
        let outcome = rt.run(&agent, "sum 1..3");
        assert_eq!(outcome.answer, Some(Value::Int(6)));
        assert!(outcome.cost_usd > 0.0, "valid steps still bill");
    }

    #[test]
    fn bytecode_identical_plans_share_the_semantic_cache() {
        use aida_llm::SemanticCache;
        // Two textually different plans that lower to identical bytecode
        // (whitespace and line-number differences vanish in the canonical
        // encoding) must share one semantic-cache entry: the second
        // planning call is a plan-keyed hit and bills nothing.
        let llm = SimLlm::new(3).with_cache(SemanticCache::with_capacity(0));
        let env = ExecEnv::new(llm);
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let run = |code: &'static str| {
            let agent =
                CodeAgent::with_policy(AgentConfig::default(), Box::new(FixedPolicy(vec![code])));
            rt.run(&agent, "same task").cost_usd
        };
        let first = run("x = 1\nprint(x + 41)");
        let second = run("\nx =  1\nprint(x  +  41)");
        let third = run("x = 2\nprint(x + 41)");
        assert!(first > 0.0, "first plan is billed");
        assert_eq!(second, 0.0, "bytecode-identical plan is served from cache");
        assert!(third > 0.0, "bytecode-different plan misses");
        let stats = env.llm.cache().expect("cache attached").stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.plan_hits, 1, "the hit is plan-keyed");
        assert_eq!(stats.misses, 2);
    }

    /// The interpreter and registry a step of `rt.run` sees before any
    /// step has bound a global.
    fn step_env(rt: &AgentRuntime<'_>) -> (ToolRegistry, Interpreter) {
        let mut registry = rt.registry().clone();
        registry.register(crate::tools::final_answer_tool(&AnswerCell::new()));
        let mut interp = Interpreter::new();
        registry.bind_into(&mut interp);
        (registry, interp)
    }

    #[test]
    fn repeated_steps_reuse_the_compiled_program_and_its_cache_key() {
        use aida_llm::SemanticCache;
        let llm = SimLlm::new(3).with_cache(SemanticCache::with_capacity(0));
        let env = ExecEnv::new(llm);
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let code = "c = read_file('data.csv')\nprint(len(c))";
        let (tools, interp) = step_env(&rt);
        let (first, hash) = rt.compile_step(&tools, &interp, code).expect("compiles");
        let (again, again_hash) = rt.compile_step(&tools, &interp, code).expect("compiles");
        assert!(
            Arc::ptr_eq(&first, &again),
            "a repeated step is not recompiled"
        );
        let uncached = aida_script::compile_source(code).expect("compiles");
        assert_eq!(hash, uncached.content_hash());
        assert_eq!(again_hash, hash);
        assert_eq!(*first, uncached);
        // Billing: a runtime with its own, cold step cache compiles the
        // step afresh and must land on the semantic-cache entry the
        // cached verdict billed.
        let run = |rt: &AgentRuntime<'_>| {
            let agent =
                CodeAgent::with_policy(AgentConfig::default(), Box::new(FixedPolicy(vec![code])));
            rt.run(&agent, "same task").cost_usd
        };
        assert!(run(&rt) > 0.0, "first plan is billed");
        assert_eq!(run(&rt), 0.0, "cached verdict hits the semantic cache");
        let cold = AgentRuntime::new(&env, registry(&lake), None);
        assert_eq!(run(&cold), 0.0, "uncached compile keys the same entry");
        let stats = env.llm.cache().expect("cache attached").stats();
        assert_eq!((stats.misses, stats.plan_hits), (1, 2));
    }

    #[test]
    fn a_verdict_is_never_served_across_environments() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        // `print(n)` before any step binds `n` is rejected; the same source
        // after `n = 3` ran must be judged again, and runs.
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec!["print(n)", "n = 3", "print(n)"])),
        );
        for _ in 0..2 {
            let outcome = rt.run(&agent, "bind n late");
            assert!(
                outcome.steps[0].observation.starts_with("ERROR:"),
                "{}",
                outcome.steps[0].observation
            );
            assert!(outcome.steps[0].bound.is_none());
            assert_eq!(outcome.steps[2].observation, "3");
        }
    }

    #[test]
    fn cached_rejections_cost_nothing_and_leave_a_flight_note() {
        let recorder = aida_obs::Recorder::new();
        let env = ExecEnv::new(SimLlm::new(3)).with_recorder(recorder.clone());
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec!["serch_files()", "c = read_file(7)"])),
        );
        let first = rt.run(&agent, "reject me");
        let cached = rt.run(&agent, "reject me");
        for outcome in [&first, &cached] {
            assert_eq!(outcome.cost_usd, 0.0, "rejected steps must not bill");
            assert_eq!(outcome.time_s, 0.0, "rejected steps must not take time");
        }
        for (a, b) in first.steps.iter().zip(&cached.steps) {
            assert_eq!(a.observation, b.observation, "step {}", a.step);
        }
        let notes = flight_lines(&recorder, "rejected")
            .iter()
            .filter(|l| l.contains(r#""source":"agents.step","kind":"step_rejected""#))
            .count();
        assert_eq!(notes, 4, "every rejection, cached or not, is noted");
    }

    #[test]
    fn steps_are_annotated_with_their_static_bound() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec![
                "c = read_file('data.csv')\nprint(c)",
                "serch_files()",
                "names = list_files()\nprint(len(names))",
                "for i in range(40):\n    read_file(names[i % len(names)])\nprint(i)",
                "for f in list_files():\n    print(read_file(f))",
            ])),
        );
        let outcome = rt.run(&agent, "look at the data");
        let flagship = aida_llm::models::ModelId::Flagship;
        let bound = outcome.steps[0].bound.as_ref().expect("compiled step");
        assert_eq!(
            bound.calls_per_tool.get("read_file"),
            Some(&Bound::Finite(1))
        );
        assert!(bound.usd_max(flagship).is_finite());
        assert!(
            outcome.steps[1].bound.is_none(),
            "a step that never compiled has no bound"
        );
        // Step 3 reads the list step 2 left in `names` 40 times. Bounded
        // as if `names` were unbound, every run would fault on it and the
        // step would price at $0; it is bounded with `names` bound, at
        // (trips + 1) reads.
        let bound = outcome.steps[3].bound.as_ref().expect("compiled step");
        assert_eq!(
            bound.calls_per_tool.get("read_file"),
            Some(&Bound::Finite(41))
        );
        assert!(bound.usd_max(flagship) > 0.05, "{bound:?}");
        // A step iterating tool output has no finite bound, and runs.
        let last = &outcome.steps[4];
        assert!(last.bound.as_ref().expect("compiled step").unbounded);
        assert!(
            !last.observation.starts_with("ERROR:"),
            "{}",
            last.observation
        );
    }

    #[test]
    fn max_steps_bounds_the_loop() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let config = AgentConfig {
            max_steps: 3,
            ..AgentConfig::default()
        };
        let agent =
            CodeAgent::with_policy(config, Box::new(FixedPolicy(vec!["1", "2", "3", "4", "5"])));
        let outcome = rt.run(&agent, "loop forever");
        assert_eq!(outcome.steps.len(), 3);
    }

    #[test]
    fn interpreter_state_persists_across_steps() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec!["x = 41", "final_answer(x + 1)"])),
        );
        let outcome = rt.run(&agent, "carry state");
        assert_eq!(outcome.answer, Some(Value::Int(42)));
    }

    #[test]
    fn recorder_traces_each_step() {
        let recorder = aida_obs::Recorder::new();
        let env = ExecEnv::new(SimLlm::new(3)).with_recorder(recorder.clone());
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec!["x = 41", "final_answer(x + 1)"])),
        );
        let outcome = rt.run(&agent, "trace me");
        let trace = recorder.trace();
        let steps: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::AgentStep)
            .collect();
        assert_eq!(steps.len(), outcome.steps.len());
        for span in &steps {
            assert_eq!(span.calls, 1, "each step bills one planning call");
            assert!(span.cost_usd > 0.0);
            assert!(span.duration_s() > 0.0);
        }
        let span_cost: f64 = steps.iter().map(|s| s.cost_usd).sum();
        assert!((span_cost - outcome.cost_usd).abs() < 1e-9);
        // Each step also leaves a flight-recorder note so a crash dump
        // shows where the agent was.
        let flight = flight_lines(&recorder, "steps");
        let step_notes = flight
            .iter()
            .filter(|l| l.contains(r#""source":"agents.step","kind":"step""#))
            .count();
        assert_eq!(step_notes, outcome.steps.len());
        assert!(
            flight.iter().any(|l| l.contains(r#""kind":"llm_call""#)),
            "planning calls feed the ring via events"
        );
    }

    #[test]
    fn render_includes_code_and_answer() {
        let env = runtime_env();
        let lake = lake();
        let rt = AgentRuntime::new(&env, registry(&lake), None);
        let agent = CodeAgent::with_policy(
            AgentConfig::default(),
            Box::new(FixedPolicy(vec!["final_answer(7)"])),
        );
        let outcome = rt.run(&agent, "answer 7");
        let text = outcome.render();
        assert!(text.contains("final_answer(7)"));
        assert!(text.contains("answer: 7"));
    }
}
