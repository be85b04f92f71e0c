//! `aida` — A Runtime for AI-Driven Analytics.
//!
//! This facade crate re-exports the public API of the AIDA workspace, a
//! from-scratch Rust reproduction of *"Deep Research is the New Analytics
//! System: Towards Building the Runtime for AI-Driven Analytics"* (CIDR'26).
//!
//! The runtime combines three execution paradigms:
//!
//! 1. **Semantic operators** ([`semops`]) — declarative, natural-language
//!    specified AI data transformations with iterator execution semantics
//!    and cost-based optimization ([`optimizer`]).
//! 2. **Deep Research agents** ([`agents`]) — CodeAgents that plan, write
//!    code (in the bundled [`script`] language), and use tools iteratively.
//! 3. **SQL over materialized structure** ([`sql`]) — structured tables
//!    produced during query execution can be re-queried cheaply.
//!
//! The paper's contribution lives in [`core`]: the [`core::Context`]
//! abstraction, the agentic `search`/`compute` operators, and the
//! [`core::ContextManager`] that reuses materialized Contexts across
//! queries like materialized views. The serving layer ([`serve`])
//! multiplexes many tenants onto one shared runtime with admission
//! control, per-tenant budgets, and weighted-fair scheduling — so one
//! tenant's materialized Contexts cheapen every other tenant's queries.
//!
//! # Quickstart
//!
//! ```
//! use aida::prelude::*;
//!
//! // Build a tiny data lake and wrap it in a Context.
//! let lake = DataLake::from_docs([
//!     Document::new("notes.txt", "identity theft reports rose in 2024"),
//! ]);
//! let env = Runtime::builder().seed(7).build();
//! let ctx = Context::builder("lake", lake)
//!     .description("a lake with one text file")
//!     .build(&env);
//! assert_eq!(ctx.len(), 1);
//! ```

pub use aida_agents as agents;
pub use aida_core as core;
pub use aida_data as data;
pub use aida_eval as eval;
pub use aida_index as index;
pub use aida_llm as llm;
pub use aida_obs as obs;
pub use aida_optimizer as optimizer;
pub use aida_script as script;
pub use aida_semops as semops;
pub use aida_serve as serve;
pub use aida_sql as sql;
pub use aida_synth as synth;

/// Convenience re-exports covering the common API surface.
pub mod prelude {
    pub use aida_core::{Context, ContextManager, Runtime, RuntimeBuilder};
    pub use aida_data::{DataLake, DocKind, Document, Record, Schema, Table, Value};
    pub use aida_llm::{ModelId, UsageSnapshot};
    pub use aida_semops::Dataset;
    pub use aida_serve::{
        open_loop, AutoscaleConfig, ClientConfig, LiveSource, QueryRequest, QueryService,
        ServeConfig, TenantConfig, TenantId, TenantLoad,
    };
}
