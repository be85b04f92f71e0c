//! `aida-core`: the runtime for AI-driven analytics.
//!
//! This crate is the paper's contribution, assembled from the substrate
//! crates:
//!
//! * [`Context`] — the generalized data-access abstraction. A `Context`
//!   *is a* semantic-operator dataset (iterator execution keeps working),
//!   and additionally carries a natural-language description, key-based
//!   point lookups, vector search, and user-defined tools.
//! * [`ops`] — the agentic **`search`** and **`compute`** logical
//!   operators, physically implemented with CodeAgents that hold a
//!   `run_semantic_program` tool: the agent plans dynamically, and when it
//!   needs exhaustive processing it writes a semantic-operator program
//!   that the cost-based optimizer compiles and the batched executor runs.
//! * [`ContextManager`] — materialized-view-style reuse: every executed
//!   `search`/`compute` materializes a new Context whose description is
//!   embedded and indexed; sufficiently-similar future instructions are
//!   answered from the materialized Context instead of re-running agents.
//! * [`rewrite`] — logical optimizations over agentic pipelines: splitting
//!   overloaded compute directives, merging near-duplicate searches, and
//!   (at runtime) inserting a `search` before a failing `compute`.
//! * SQL reuse — tables materialized from unstructured data during query
//!   execution are registered in a [`aida_sql::Catalog`] and can be
//!   re-queried with plain SQL via [`Runtime::sql`].

mod chain;
pub mod context;
pub mod manager;
pub mod ops;
pub mod program;
pub mod rewrite;
pub mod runtime;

pub use context::{Context, ContextBuilder};
pub use manager::{ContextManager, MaterializedContext};
pub use ops::{AgenticOp, ComputeOutcome, Query};
pub use program::{ProgramRun, ProgramSynthesizer};
pub use runtime::{Runtime, RuntimeBuilder, RuntimeConfig};
