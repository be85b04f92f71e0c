//! The sampling memo: a repeated sampling run that the semantic cache
//! would serve entirely is replayed instead of recomputed.
//!
//! On a warm service every call of a repeated program's sampling run is
//! an exact cache hit, so its answers, and with them the whole run, are
//! already fixed. An all-hit run reads only the stored responses of the
//! keys it looks up, the plan's semantic operator indices and kinds, the
//! [`SamplerConfig`], and the environment's catalog and embedder, which
//! are fixed for one owner. Content keys encode the seed, the model, the
//! task's fields and the subject's name, text and labels. The first
//! operator's flagship keys over every sample record therefore fix every
//! sampled subject, and the first record's flagship keys under every
//! other operator fix every operator's task; UCB1 is deterministic given
//! its rewards; so two runs with equal such keys, equal operator indices
//! and equal configuration make the same calls in the same order, and an
//! unchanged [`Residency`] token means every one of those calls would hit
//! the same stored response again. A replay therefore does only what
//! those hits would have done — [`aida_llm::SimLlm::serve_hits`] touches
//! the same entries in the same order and returns the same receipt, and
//! the clock takes the same advances one at a time — and returns the
//! stored estimates. The memo trusts nothing the cache does not already
//! trust.
//!
//! A run is recorded only when its receipt is all hits (no miss, no
//! coalesced and no billed call) and the token read before it is
//! unchanged after it. Its call keys are derived from the recorded pulls
//! at the first replay, so a program that runs only twice pays for no key
//! beyond its reference pass.

use crate::sampler::{OpEstimate, SamplerConfig};
use aida_llm::{CacheKey, Memo, ModelId, Residency};
use std::sync::{Arc, OnceLock};

/// Runs a memo holds (see [`aida_llm::memo`] for the rule at the bound,
/// which no measured workload reaches).
const BUDGET: u64 = 256;

/// Everything that decides an all-hit sampling run's calls.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct MemoKey {
    /// The reference pass's content keys of the first operator on every
    /// sample record, then of every other operator on the first record.
    pub(crate) references: Vec<CacheKey>,
    /// The plan's semantic operator indices.
    pub(crate) sem_indices: Vec<usize>,
    pub(crate) config: SamplerConfig,
}

/// A memoized all-hit run.
pub(crate) struct Replay {
    /// The bandit's pulls in call order: (op index, model, sample index).
    pub(crate) pulls: Vec<(usize, ModelId, usize)>,
    /// Every key the run looked up, in call order: the reference pass's,
    /// then the pulls'. Computed at the first replay, so a program that
    /// runs twice never pays for them.
    pub(crate) keys: OnceLock<Vec<CacheKey>>,
    /// The cache's token, read before the run and unchanged after it.
    pub(crate) token: Residency,
    pub(crate) ops: Vec<OpEstimate>,
    pub(crate) avg_record_tokens: f64,
}

/// A bounded, shareable memo of all-hit sampling runs, the `sampling`
/// memo. Clones share one store, so every optimizer built from one
/// runtime replays a run any of them recorded.
#[derive(Clone)]
pub struct SampleMemo(pub(crate) Memo<MemoKey, Arc<Replay>>);

impl Default for SampleMemo {
    fn default() -> Self {
        SampleMemo(Memo::new("sampling", BUDGET))
    }
}

impl SampleMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }
}
