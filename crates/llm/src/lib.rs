//! `aida-llm`: a deterministic simulated large-language-model substrate.
//!
//! The paper's prototype calls OpenAI GPT-4o for every semantic operation
//! and agent step. This crate replaces those calls with a **simulated LLM**
//! that preserves the three properties the evaluation depends on:
//!
//! 1. **Economics** — every call consumes input/output tokens that are
//!    priced per model tier ([`ModelCatalog`]) and take simulated time
//!    ([`latency`]); each call returns its receipt ([`UsageSnapshot`]),
//!    callers sum receipts, and [`SimLlm::usage`] is their lifetime fold.
//! 2. **Tiered accuracy** — cheaper models are noisier. Answers are
//!    computed by *reading the subject text* (phrase classifiers, table
//!    extraction) or by consulting generator-registered [`oracle`] rules,
//!    then corrupted by a seeded, tier-dependent noise channel
//!    ([`noise`]).
//! 3. **Determinism** — identical `(seed, model, instruction, subject)`
//!    always produces the identical answer, so every experiment replays
//!    bit-for-bit.
//!
//! The crate also provides the [`embed::Embedder`] used for vector search
//! and Context-description similarity, and the virtual clock
//! ([`clock::SimClock`]) that execution engines advance to report
//! simulated wall-time.

pub mod cache;
pub mod clock;
pub mod embed;
mod head;
pub mod memo;
pub mod models;
pub mod noise;
pub mod oracle;
pub mod sim;
pub mod snapshot;
pub mod tokens;
pub mod usage;

pub use cache::{
    CacheKey, CacheMark, CacheReplica, CacheStats, Residency, SemanticCache, SnapshotError,
};
pub use clock::{ScheduledSlot, SimClock, Timeline};
pub use embed::Embedder;
pub use head::TaskHead;
pub use memo::{Memo, MemoStats};
pub use models::{ModelCatalog, ModelId, ModelSpec};
pub use oracle::{Oracle, OracleAnswer, OracleQuery, OracleRule, Subject};
pub use sim::{LlmResponse, LlmTask, ReadingCell, SimLlm};
pub use snapshot::{CrashPoint, FailPlan};
pub use usage::{Usage, UsageSnapshot};
