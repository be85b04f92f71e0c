//! Usage receipts: what simulated LLM calls billed.
//!
//! [`crate::SimLlm::invoke`] returns each call's receipt on its response:
//! per-model token usage (a fault retry's truncated first attempt
//! included) and the call's semantic-cache outcome. Receipts are returned
//! and summed: an operator, a program, an agent run and a query each add
//! up their children's receipts and report `receipt.cost(catalog)`, priced
//! once from integer sums. [`crate::SimLlm::usage`] is the simulator's
//! lifetime fold of every receipt it issued; no layer attributes spend by
//! differencing it.

use crate::models::{ModelCatalog, ModelId};
use std::collections::BTreeMap;

/// Token usage for one model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Total input (prompt) tokens.
    pub input_tokens: u64,
    /// Total output (completion) tokens.
    pub output_tokens: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Usage {
    /// Element-wise sum.
    pub fn add(&mut self, other: Usage) {
        self.input_tokens += other.input_tokens;
        self.output_tokens += other.output_tokens;
        self.calls += other.calls;
    }

    /// Element-wise difference (saturating; used for snapshot deltas).
    pub fn saturating_sub(&self, other: Usage) -> Usage {
        Usage {
            input_tokens: self.input_tokens.saturating_sub(other.input_tokens),
            output_tokens: self.output_tokens.saturating_sub(other.output_tokens),
            calls: self.calls.saturating_sub(other.calls),
        }
    }
}

/// A receipt: the usage one call, or any sum of calls, billed, and how
/// the semantic cache served them. A call served from the cache bills no
/// model, so its receipt holds no per-model entry and allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageSnapshot {
    pub(crate) per_model: BTreeMap<ModelId, Usage>,
    /// Calls served from the semantic cache's store.
    pub cache_hits: u64,
    /// Calls that shared another call's response: duplicates the
    /// executor deduplicated out of a batch.
    pub cache_coalesced: u64,
    /// Calls that missed the cache, computed and admitted their response.
    pub cache_misses: u64,
}

impl UsageSnapshot {
    /// Usage for one model (zero if the model never ran).
    pub fn usage(&self, id: ModelId) -> Usage {
        self.per_model.get(&id).copied().unwrap_or_default()
    }

    /// Per-model usage in tier order.
    pub fn per_model(&self) -> &BTreeMap<ModelId, Usage> {
        &self.per_model
    }

    /// Total calls across models.
    pub fn total_calls(&self) -> u64 {
        self.per_model.values().map(|u| u.calls).sum()
    }

    /// Total tokens (input + output) across models.
    pub fn total_tokens(&self) -> u64 {
        self.per_model
            .values()
            .map(|u| u.input_tokens + u.output_tokens)
            .sum()
    }

    /// Dollar cost of this snapshot under a catalog's pricing.
    pub fn cost(&self, catalog: &ModelCatalog) -> f64 {
        let total: f64 = self
            .per_model
            .iter()
            .map(|(id, u)| {
                catalog
                    .spec(*id)
                    .cost(u.input_tokens as usize, u.output_tokens as usize)
            })
            .sum();
        // An empty sum is IEEE -0.0; normalize so reports never print "-0".
        total + 0.0
    }

    /// Adds another receipt into this one.
    pub fn add(&mut self, other: &UsageSnapshot) {
        for (id, usage) in &other.per_model {
            self.per_model.entry(*id).or_default().add(*usage);
        }
        self.cache_hits += other.cache_hits;
        self.cache_coalesced += other.cache_coalesced;
        self.cache_misses += other.cache_misses;
    }

    /// Bills one model attempt.
    pub(crate) fn record(&mut self, id: ModelId, input_tokens: usize, output_tokens: usize) {
        self.per_model.entry(id).or_default().add(Usage {
            input_tokens: input_tokens as u64,
            output_tokens: output_tokens as u64,
            calls: 1,
        });
    }

    /// The delta from an earlier snapshot to this one. Models with no new
    /// activity are absent from the delta.
    pub fn delta_since(&self, earlier: &UsageSnapshot) -> UsageSnapshot {
        let mut per_model = BTreeMap::new();
        for (id, usage) in &self.per_model {
            let before = earlier.usage(*id);
            let delta = usage.saturating_sub(before);
            if delta != Usage::default() {
                per_model.insert(*id, delta);
            }
        }
        UsageSnapshot {
            per_model,
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_coalesced: self.cache_coalesced.saturating_sub(earlier.cache_coalesced),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_model() {
        let mut receipt = UsageSnapshot::default();
        receipt.record(ModelId::Flagship, 100, 10);
        receipt.record(ModelId::Flagship, 50, 5);
        receipt.record(ModelId::Nano, 10, 1);
        assert_eq!(
            receipt.usage(ModelId::Flagship),
            Usage {
                input_tokens: 150,
                output_tokens: 15,
                calls: 2
            }
        );
        assert_eq!(receipt.usage(ModelId::Nano).calls, 1);
        assert_eq!(receipt.usage(ModelId::Mini), Usage::default());
        assert_eq!(receipt.total_calls(), 3);
        assert_eq!(receipt.total_tokens(), 150 + 15 + 11);
    }

    #[test]
    fn cost_uses_catalog_pricing() {
        let mut receipt = UsageSnapshot::default();
        receipt.record(ModelId::Flagship, 1_000_000, 0);
        let cost = receipt.cost(&ModelCatalog::default());
        assert!((cost - 2.50).abs() < 1e-9);
    }

    #[test]
    fn add_sums_usage_and_cache_outcomes() {
        let mut miss = UsageSnapshot {
            cache_misses: 1,
            ..UsageSnapshot::default()
        };
        miss.record(ModelId::Mini, 30, 3);
        let hit = UsageSnapshot {
            cache_hits: 1,
            ..UsageSnapshot::default()
        };
        let mut total = UsageSnapshot::default();
        for receipt in [&miss, &hit, &miss] {
            total.add(receipt);
        }
        assert_eq!(total.usage(ModelId::Mini).calls, 2);
        assert_eq!(total.usage(ModelId::Mini).input_tokens, 60);
        assert_eq!((total.cache_hits, total.cache_misses), (1, 2));
        // A hit bills no model: adding one creates no per-model entry.
        let mut hits = UsageSnapshot::default();
        hits.add(&hit);
        assert!(hits.per_model().is_empty());
    }

    #[test]
    fn delta_isolates_a_window() {
        let mut lifetime = UsageSnapshot::default();
        lifetime.record(ModelId::Mini, 100, 10);
        let before = lifetime.clone();
        let mut window = UsageSnapshot {
            cache_hits: 2,
            ..UsageSnapshot::default()
        };
        window.record(ModelId::Mini, 30, 3);
        window.record(ModelId::Nano, 7, 1);
        lifetime.add(&window);
        let delta = lifetime.delta_since(&before);
        assert_eq!(delta, window);
        // Models with no new activity are absent from the delta.
        assert!(!delta.per_model().contains_key(&ModelId::Flagship));
        assert_eq!(
            lifetime.delta_since(&lifetime),
            UsageSnapshot::default(),
            "an empty window"
        );
    }
}
