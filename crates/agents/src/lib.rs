//! `aida-agents`: Deep Research CodeAgents.
//!
//! Reproduces the SmolAgents-style *CodeAgent* architecture the paper uses
//! both as its baselines and as the physical implementation of its new
//! operators: an LLM agent that, each step, (1) reads the task and its
//! accumulated observations, (2) writes a program in the bundled
//! Python-like language (`aida-script`), (3) executes it against a tool
//! registry, and (4) feeds the printed output back into the next step.
//!
//! The "LLM" side of each step is a deterministic, seeded planner
//! ([`policy::AgentPolicy`]) standing in for the model — but every step is
//! billed to the simulated LLM (prompt = task + tool specs + observation
//! tail; completion = the generated code), so agents have exactly the cost
//! and latency profile the paper measures.
//!
//! The paper's observed failure modes are explicit, parameterized
//! behaviours of the planner ([`Persona`]): *shortcut-taking* (keyword
//! heuristics instead of exhaustive reads) and *premature termination*
//! (giving up on long scans).
//!
//! Baselines built here:
//! * [`CodeAgent`] with lake tools (`list_files`, `read_file`,
//!   `search_keywords`) — the paper's "CodeAgent".
//! * The same agent plus unoptimized semantic-operator tools
//!   (`sem_filter_tool`, `sem_extract_tool`) — the paper's "CodeAgent+".

pub mod policy;
pub mod runtime;
mod step_cache;
pub mod tool;
pub mod tools;

pub use policy::{AgentPolicy, DeepResearchPolicy, PolicyAction, PolicyContext};
pub use runtime::{AgentOutcome, AgentRuntime, StepTrace};
pub use step_cache::StepCache;
pub use tool::{FnTool, RunReceipts, Tool, ToolRegistry, ToolSpec};

use aida_llm::ModelId;

/// Behavioural parameters of the simulated planner — the paper's observed
/// Deep Research failure modes, made explicit.
#[derive(Debug, Clone)]
pub struct Persona {
    /// Tendency to rely on cheap heuristics (filename/keyword matching)
    /// instead of exhaustive reads, in `[0, 1]`.
    pub shortcut_bias: f64,
    /// Probability of abandoning a long scan before finishing.
    pub premature_stop: f64,
    /// How many candidate items the agent will read and judge manually.
    pub verify_budget: usize,
}

impl Default for Persona {
    fn default() -> Self {
        // Matches the paper's description of open Deep Research agents.
        Persona {
            shortcut_bias: 0.8,
            premature_stop: 0.25,
            verify_budget: 6,
        }
    }
}

/// Configuration for a CodeAgent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Model the agent plans with (every step is billed to it).
    pub model: ModelId,
    /// Maximum planning steps before the agent must answer.
    pub max_steps: usize,
    /// Behavioural parameters.
    pub persona: Persona,
    /// Seed for the planner's tie-breaking noise.
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            model: ModelId::Flagship,
            max_steps: 12,
            persona: Persona::default(),
            seed: 0,
        }
    }
}

/// A Deep Research CodeAgent: a policy plus a configuration, run by an
/// [`AgentRuntime`].
pub struct CodeAgent {
    /// Configuration.
    pub config: AgentConfig,
    /// The planning policy.
    pub policy: Box<dyn AgentPolicy>,
}

impl CodeAgent {
    /// Creates an agent with the standard Deep Research policy.
    pub fn deep_research(config: AgentConfig) -> Self {
        CodeAgent {
            config,
            policy: Box::new(DeepResearchPolicy),
        }
    }

    /// Creates an agent with a custom policy (the `compute`/`search`
    /// operators in `aida-core` plug in here).
    pub fn with_policy(config: AgentConfig, policy: Box<dyn AgentPolicy>) -> Self {
        CodeAgent { config, policy }
    }
}
