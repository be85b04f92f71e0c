//! The compiled-step cache: an agent step's front-end verdict, computed
//! once per distinct program and environment.
//!
//! Before a step is billed, its program is parsed, compiled, and judged
//! and bounded by one analysis, and a serving runtime sees the same few
//! programs many times (a `warm_serve` runtime compiles 8 distinct steps
//! and serves 504 repeats). Those stages read exactly
//! three things — the source text, the tool registry's `(name, signature)`
//! pairs and the interpreter's global names (live bindings left by earlier
//! steps) — so their verdict is memoized on all three. A key that differs
//! in any of them is a different entry: a verdict is never served across
//! environments.

use aida_llm::Memo;
use aida_script::CompiledProgram;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Verdicts a cache holds (see [`aida_llm::memo`] for the rule at the
/// bound, which no measured workload reaches).
const BUDGET: u64 = 256;

/// What the front end decided about one step: the compiled program and
/// its bytecode content hash, or the pass that rejected the program and
/// its message.
pub(crate) type StepVerdict = Result<(Arc<CompiledProgram>, (u64, u64)), (&'static str, String)>;

/// Everything the front-end passes read.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct StepKey {
    pub(crate) source: String,
    pub(crate) tools: Vec<(String, String)>,
    pub(crate) globals: BTreeSet<String>,
}

/// A bounded, shareable cache of compiled agent steps, the `steps` memo.
/// Clones share one store, so every agent built from one runtime compiles
/// a repeated step once.
#[derive(Clone)]
pub struct StepCache(pub(crate) Memo<StepKey, StepVerdict>);

impl Default for StepCache {
    fn default() -> Self {
        StepCache(Memo::new("steps", BUDGET))
    }
}

impl StepCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.0.stats().entries as usize
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached verdict for `key`, or `compile`'s verdict on it, which
    /// is then cached. `compile` runs outside the lock, so agents on other
    /// threads keep stepping; two threads missing on one key both compile
    /// and the later insert wins (the verdicts are equal).
    pub(crate) fn get_or_compile(
        &self,
        key: StepKey,
        compile: impl FnOnce(&StepKey) -> StepVerdict,
    ) -> StepVerdict {
        if let Some(verdict) = self.0.get(&key) {
            return verdict;
        }
        let verdict = compile(&key);
        self.0.insert(key, verdict.clone(), 1);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tools, AgentConfig, AgentRuntime, CodeAgent, ToolRegistry};
    use aida_llm::{ModelId, SemanticCache, SimLlm};
    use aida_semops::ExecEnv;
    use aida_synth::{enron, legal};

    /// One run's answer, step transcript, receipt, and the bits of its
    /// cost, its time and the clock after it.
    type Run = (String, Vec<String>, aida_llm::UsageSnapshot, [u64; 3]);

    /// Runs every [`crate::DeepResearchPolicy`] flow (ratio, keyword
    /// filter, semantic tools, generic exploration) twice per seed, each
    /// flow on its own cached environment, compiling steps through
    /// `steps`.
    fn run_flows(steps: &StepCache) -> Vec<Run> {
        let flows = [
            ("legal", false, None),
            ("enron", false, None),
            ("enron", true, None),
            ("legal", false, Some("which reports mention identity theft")),
        ];
        let mut runs = Vec::new();
        for (lake, sem_tools, task) in flows {
            for seed in 1..=2 {
                let workload = match lake {
                    "legal" => legal::generate(seed),
                    _ => enron::generate(seed),
                };
                let llm = SimLlm::new(seed).with_cache(SemanticCache::with_capacity(1 << 16));
                let env = ExecEnv::new(llm);
                workload.install_oracle(&env.llm);
                let mut registry = ToolRegistry::new();
                for tool in tools::lake_tools(&workload.lake) {
                    registry.register(tool);
                }
                if sem_tools {
                    let lake = &workload.lake;
                    registry.register(tools::sem_filter_tool(&env, lake, ModelId::Flagship));
                    registry.register(tools::sem_extract_tool(&env, lake, ModelId::Flagship));
                }
                let rt = AgentRuntime::sharing(
                    &env,
                    registry,
                    Some(workload.lake.clone()),
                    steps.clone(),
                );
                let agent = CodeAgent::deep_research(AgentConfig {
                    max_steps: 10,
                    seed,
                    ..AgentConfig::default()
                });
                for _ in 0..2 {
                    let out = rt.run(&agent, task.unwrap_or(&workload.query));
                    runs.push((
                        format!("{:?}", out.answer),
                        out.steps.iter().map(|s| format!("{s:?}")).collect(),
                        out.receipt,
                        [out.cost_usd, out.time_s, env.clock.now()].map(f64::to_bits),
                    ));
                }
            }
        }
        runs
    }

    /// Transparency: a step memo that clears on every miss gives the
    /// answers, transcripts, receipts and clock of the default one.
    #[test]
    fn a_clearing_step_memo_answers_like_the_default() {
        let default = StepCache::new();
        let clearing = StepCache(Memo::new("steps", 1));
        assert_eq!(run_flows(&clearing), run_flows(&default));
        let (kept, cleared) = (default.0.stats(), clearing.0.stats());
        assert!(kept.hits > 0 && kept.clears == 0, "{kept:?}");
        assert!(cleared.clears > 0 && cleared.entries == 1, "{cleared:?}");
    }
}
