//! The compiled-step cache: an agent step's front-end verdict, computed
//! once per distinct program and environment.
//!
//! Before a step is billed, its program is parsed, compiled, and judged
//! and bounded by one analysis, and a serving runtime sees the
//! same few dozen programs thousands of times. Those stages read exactly
//! three things — the source text, the tool registry's `(name, signature)`
//! pairs and the interpreter's global names (live bindings left by earlier
//! steps) — so their verdict is memoized on all three. A key that differs
//! in any of them is a different entry: a verdict is never served across
//! environments.

use aida_script::CompiledProgram;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Entries a cache holds. A miss that finds it full clears it first:
/// the measured workloads run a few dozen distinct steps per runtime, so
/// the bound guards memory and is not expected to be reached.
const CAPACITY: usize = 256;

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

/// A bounded, shareable cache of compiled agent steps. Clones share one
/// store, so every agent built from one runtime compiles a repeated step
/// once.
#[derive(Clone, Default)]
pub struct StepCache {
    inner: Arc<Mutex<HashMap<StepKey, StepVerdict>>>,
}

impl StepCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
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
        if let Some(verdict) = self.inner.lock().get(&key) {
            return verdict.clone();
        }
        let verdict = compile(&key);
        let mut entries = self.inner.lock();
        if entries.len() >= CAPACITY && !entries.contains_key(&key) {
            entries.clear();
        }
        entries.insert(key, verdict.clone());
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Looks `source` up, compiling it on a miss; true when it missed.
    fn missed(cache: &StepCache, source: &str) -> bool {
        let key = StepKey {
            source: source.to_string(),
            tools: Vec::new(),
            globals: BTreeSet::new(),
        };
        let mut missed = false;
        let verdict = cache.get_or_compile(key, |_| {
            missed = true;
            let program = aida_script::compile_source(source).expect("test program compiles");
            let hash = program.content_hash();
            Ok((Arc::new(program), hash))
        });
        assert!(verdict.is_ok());
        missed
    }

    #[test]
    fn a_full_cache_is_cleared_before_the_next_insert() {
        let cache = StepCache::new();
        for i in 0..CAPACITY {
            assert!(missed(&cache, &format!("x = {i}")));
        }
        assert!(!missed(&cache, "x = 0"));
        assert!(missed(&cache, "y = 1"));
        assert_eq!(cache.len(), 1, "the bound holds");
        assert!(missed(&cache, "x = 0"));
    }
}
