//! One bounded, counted memo for work the runtime keeps for reuse: an
//! agent step's front-end verdict, an all-hit sampling run and a wire
//! plan's source.
//!
//! It lives here, next to [`crate::SemanticCache`], because this is the
//! lowest crate the three owners (`aida-agents`, `aida-optimizer` and
//! `aida-serve`) share. The semantic cache and the Context manager keep
//! their own policies (byte budgets, residency tokens, LRU and
//! cost-aware eviction); a memo has none of those.
//!
//! The rule is one line: an insert of a new key that would take the memo
//! over its budget clears it first, and a key already present is replaced
//! in place. Each owner gives every entry a weight and the memo a constant
//! budget: one per entry for steps and sampling runs, a source's
//! byte count for wire plans. No measured workload reaches a budget (the
//! `memo.*.clears` counters say so), so a finer eviction order would have
//! nothing to be judged on.
//!
//! Clones share one store. A memo counts its lookups' hits and misses,
//! its clears and its entries; an owner reads them with [`Memo::stats`] or
//! has a recorder read them into every trace ([`Memo::report_to`]), never
//! with a recorder call per lookup.

use aida_obs::{registry, CounterSource, Recorder};
use parking_lot::Mutex;
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// What a memo did so far, and what it holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// The memo's name in `memo.<name>.*`.
    pub name: &'static str,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Inserts that emptied the memo at its budget first.
    pub clears: u64,
    /// Entries resident now.
    pub entries: u64,
    /// Their summed weight.
    pub weight: u64,
}

impl MemoStats {
    /// Calls `add` with each `memo.<name>.*` counter that is nonzero.
    pub fn for_each_counter(&self, mut add: impl FnMut(String, u64)) {
        let fields = [
            ("hits", self.hits),
            ("misses", self.misses),
            ("clears", self.clears),
            ("entries", self.entries),
        ];
        for (field, n) in fields.into_iter().filter(|&(_, n)| n > 0) {
            add(registry::memo_counter(self.name, field), n);
        }
    }
}

#[derive(Debug)]
struct State<K, V> {
    /// Each value with its weight.
    entries: HashMap<K, (V, u64)>,
    stats: MemoStats,
}

#[derive(Debug)]
struct Shared<K, V> {
    budget: u64,
    state: Mutex<State<K, V>>,
}

/// A bounded, shareable map from `K` to `V` (see the module docs).
#[derive(Debug, Clone)]
pub struct Memo<K, V> {
    shared: Arc<Shared<K, V>>,
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo named `name` that holds at most `budget` weight.
    pub fn new(name: &'static str, budget: u64) -> Self {
        let stats = MemoStats {
            name,
            ..MemoStats::default()
        };
        Memo {
            shared: Arc::new(Shared {
                budget,
                state: Mutex::new(State {
                    entries: HashMap::new(),
                    stats,
                }),
            }),
        }
    }

    /// The value stored under `key`, counting a hit or a miss.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let mut state = self.shared.state.lock();
        let value = state.entries.get(key).map(|(value, _)| value.clone());
        match value {
            Some(_) => state.stats.hits += 1,
            None => state.stats.misses += 1,
        }
        value
    }

    /// Stores `value` under `key` with `weight` (at most the budget)
    /// against the budget. A new key that would go over the budget clears
    /// the memo first; a present key is replaced in place.
    pub fn insert(&self, key: K, value: V, weight: u64) {
        let mut guard = self.shared.state.lock();
        let state = &mut *guard;
        let old = state.entries.get(&key).map(|&(_, w)| w);
        if old.is_none() && state.stats.weight + weight > self.shared.budget {
            state.entries.clear();
            state.stats.weight = 0;
            state.stats.clears += 1;
        }
        state.stats.weight = state.stats.weight - old.unwrap_or(0) + weight;
        state.entries.insert(key, (value, weight));
        state.stats.entries = state.entries.len() as u64;
    }

    /// What the memo did so far, and what it holds.
    pub fn stats(&self) -> MemoStats {
        self.shared.state.lock().stats
    }
}

impl<K: Send + 'static, V: Send + 'static> Memo<K, V> {
    /// Has `recorder` read this memo's counters into every trace it takes
    /// (once per memo, however often it is called).
    pub fn report_to(&self, recorder: &Recorder) {
        if recorder.is_enabled() {
            recorder.attach(Arc::clone(&self.shared) as Arc<dyn CounterSource>);
        }
    }
}

impl<K: Send, V: Send> CounterSource for Shared<K, V> {
    fn add_counters(&self, counters: &mut BTreeMap<String, u64>) {
        let stats = self.state.lock().stats;
        stats.for_each_counter(|name, n| *counters.entry(name).or_insert(0) += n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_insert_over_budget_clears_first_and_a_present_key_is_replaced() {
        let memo = Memo::new("test", 4);
        for i in 0..4u64 {
            assert_eq!(memo.get(&i), None);
            memo.insert(i, i * 10, 1);
        }
        memo.insert(0, 7, 1);
        assert_eq!(memo.get(&0), Some(7), "a present key is replaced");
        assert_eq!((memo.stats().entries, memo.stats().clears), (4, 0));
        memo.insert(4, 40, 1);
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.weight, stats.clears), (1, 1, 1));
        assert_eq!(memo.clone().get(&4), Some(40), "clones share");
        assert_eq!(memo.get(&0), None, "the bound holds");
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 5));
    }

    #[test]
    fn weights_count_against_the_budget() {
        let memo = Memo::new("test", 10);
        memo.insert("a", 1, 6);
        memo.insert("a", 1, 6);
        assert_eq!(memo.stats().weight, 6, "replacing keeps one weight");
        memo.insert("b", 2, 4);
        assert_eq!((memo.stats().weight, memo.stats().clears), (10, 0));
        memo.insert("c", 3, 1);
        assert_eq!((memo.stats().weight, memo.stats().clears), (1, 1));
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn a_recorder_reads_nonzero_counters_once_per_memo() {
        let recorder = Recorder::new();
        let memo = Memo::new("test", 4);
        memo.report_to(&recorder);
        memo.clone().report_to(&recorder);
        assert!(recorder.trace().counters.is_empty(), "zero is not reported");
        memo.insert(1, 1, 1);
        assert_eq!(memo.get(&1), Some(1));
        let counters = recorder.trace().counters;
        let names: Vec<_> = counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(names, [("memo.test.entries", 1), ("memo.test.hits", 1)]);
    }
}
