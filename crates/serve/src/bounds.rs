//! Pre-admission static cost-bound gating.
//!
//! Requests whose instruction is Pyrite source (the front door's wire
//! bodies are) get a sound worst-case dollar figure from the compiler's
//! static analyzer (`aida_script::bounds`) *before* any dispatch: a
//! plan whose `usd_max` at the configured execution tier exceeds the
//! tenant's remaining dollar quota is shed with
//! [`RejectReason::CostBoundExceeded`] at zero attributed spend — the
//! request never reaches a worker, so nothing is billed.
//!
//! The gate is conservative in the admit direction: instructions that
//! do not compile as Pyrite (natural-language queries) and plans the
//! analyzer cannot bound (`unbounded`) are admitted — the existing
//! post-hoc quota gate still applies — because a missing bound is not
//! evidence of overspend. Only a *proven* violation sheds.
//!
//! Verdicts are memoized by [`plan_hash`], the same 128-bit content hash
//! the wire protocol interns source under, so a returning client's
//! plan-hash path gets its bound for free. The gate compiles the wire
//! text with `compile_source`, with no tools or globals. The agent that
//! answers the request compiles other programs (the steps its policy
//! writes) under its tools and globals, through the agents' step cache:
//! the two judge different programs in different environments, so
//! neither verdict can stand in for the other.
//!
//! [`RejectReason::CostBoundExceeded`]: crate::RejectReason::CostBoundExceeded

use crate::net::plan_hash;
use aida_llm::models::ModelId;
use aida_llm::{Memo, MemoStats};
use aida_script::bytecode::compile_source;

/// Verdicts the gate holds (see [`aida_llm::memo`] for the rule at the
/// bound, which no measured workload reaches).
const BUDGET: u64 = 256;

/// What the static analyzer concluded about one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StaticVerdict {
    /// The instruction is not Pyrite source; no static bound applies.
    NotAPlan,
    /// The instruction compiles but the analyzer found no finite dollar
    /// bound at the gate's tier.
    Unbounded,
    /// A sound worst-case dollar figure at the gate's tier.
    UsdMax(f64),
}

/// The admission-side bound gate: compiles-and-analyzes each distinct
/// instruction once, memoizes the verdict by plan hash (the `bounds`
/// memo), and counts what it saw for the report and the metrics registry.
#[derive(Debug)]
pub struct BoundGate {
    tier: ModelId,
    verdicts: Memo<u128, StaticVerdict>,
    /// Instructions that compiled as Pyrite and were bound-checked
    /// (memo hits included).
    pub checked: u64,
    /// Checked instructions whose dollar bound was not finite.
    pub unbounded: u64,
}

impl BoundGate {
    /// A gate that prices worst cases at `tier`.
    pub fn new(tier: ModelId) -> BoundGate {
        BoundGate {
            tier,
            verdicts: Memo::new("bounds", BUDGET),
            checked: 0,
            unbounded: 0,
        }
    }

    /// The verdict memo's counters: its hits are the verdicts served
    /// without compiling (`bounds.cache_hits`).
    pub fn memo(&self) -> MemoStats {
        self.verdicts.stats()
    }

    /// The execution tier worst cases are priced at.
    pub fn tier(&self) -> ModelId {
        self.tier
    }

    /// The static verdict for one instruction, counting the evaluation.
    pub fn verdict(&mut self, instruction: &str) -> StaticVerdict {
        let hash = plan_hash(instruction);
        let verdict = self.verdicts.get(&hash).unwrap_or_else(|| {
            let v = match compile_source(instruction) {
                Ok(program) => {
                    let usd = program.bound.usd_max(self.tier);
                    if usd.is_finite() {
                        StaticVerdict::UsdMax(usd)
                    } else {
                        StaticVerdict::Unbounded
                    }
                }
                Err(_) => StaticVerdict::NotAPlan,
            };
            self.verdicts.insert(hash, v, 1);
            v
        });
        match verdict {
            StaticVerdict::NotAPlan => {}
            StaticVerdict::Unbounded => {
                self.checked += 1;
                self.unbounded += 1;
            }
            StaticVerdict::UsdMax(_) => self.checked += 1,
        }
        verdict
    }

    /// The violation check: `Some((usd_max, remaining))` when the
    /// instruction's static worst case provably exceeds the tenant's
    /// remaining dollar quota. `remaining = None` (no dollar quota) and
    /// non-finite bounds never trip the gate.
    pub fn over_budget(
        &mut self,
        instruction: &str,
        remaining_usd: Option<f64>,
    ) -> Option<(f64, f64)> {
        let remaining = remaining_usd?;
        match self.verdict(instruction) {
            StaticVerdict::UsdMax(usd_max) if usd_max > remaining => Some((usd_max, remaining)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOOPED_READS: &str =
        "total = 0\nfor i in range(40):\n    total += len(read_file('a.csv'))\ntotal";

    #[test]
    fn pyrite_plans_get_a_finite_verdict_and_cache_by_plan_hash() {
        let mut gate = BoundGate::new(ModelId::Flagship);
        let first = gate.verdict(LOOPED_READS);
        let StaticVerdict::UsdMax(usd) = first else {
            panic!("expected a finite bound, got {first:?}");
        };
        assert!(usd > 0.0);
        assert_eq!(gate.verdict(LOOPED_READS), first);
        assert_eq!(gate.checked, 2);
        assert_eq!(gate.memo().hits, 1);
        assert_eq!(gate.unbounded, 0);
    }

    #[test]
    fn natural_language_is_not_a_plan_and_never_gates() {
        let mut gate = BoundGate::new(ModelId::Flagship);
        // Does not lex as Pyrite: no static bound applies.
        let q = "how many identity theft reports in 2002?";
        assert_eq!(gate.verdict(q), StaticVerdict::NotAPlan);
        assert_eq!(gate.over_budget(q, Some(0.0)), None);
        assert_eq!(gate.checked, 0);
        // Some natural language *does* parse (adjacent names); it makes
        // no tool calls, so its $0 bound can never exceed non-negative
        // headroom — the gate stays inert on it.
        let pseudo = "count identity theft reports in 2001";
        assert_eq!(gate.verdict(pseudo), StaticVerdict::UsdMax(0.0));
        assert_eq!(gate.over_budget(pseudo, Some(0.0)), None);
    }

    #[test]
    fn unbounded_plans_are_admitted_not_shed() {
        // Iterating tool output makes the billable call count — and so
        // the dollars — unbounded; the gate must not invent a violation
        // out of ignorance.
        let mut gate = BoundGate::new(ModelId::Flagship);
        let src = "for f in list_files():\n    read_file(f)\n0";
        assert_eq!(gate.verdict(src), StaticVerdict::Unbounded);
        assert_eq!(gate.over_budget(src, Some(1e-9)), None);
        assert_eq!(gate.unbounded, 2, "both evaluations counted");
    }

    #[test]
    fn fuel_unbounded_but_dollar_bounded_plans_still_gate_on_dollars() {
        // A data-dependent while burns unbounded fuel but calls
        // `list_files` exactly once: the dollar dimension is finite and
        // the gate prices it.
        let mut gate = BoundGate::new(ModelId::Flagship);
        let src = "n = len(list_files())\ni = 0\nwhile i < n:\n    i += 1\ni";
        let StaticVerdict::UsdMax(usd) = gate.verdict(src) else {
            panic!("expected a finite dollar bound");
        };
        assert!(usd > 0.0);
        assert!(gate.over_budget(src, Some(usd / 2.0)).is_some());
    }

    #[test]
    fn over_budget_requires_a_quota_and_a_proven_excess() {
        let mut gate = BoundGate::new(ModelId::Flagship);
        // No dollar quota: nothing to violate.
        assert_eq!(gate.over_budget(LOOPED_READS, None), None);
        // A generous quota: the worst case fits.
        assert_eq!(gate.over_budget(LOOPED_READS, Some(1e9)), None);
        // A micro-quota: 40 worst-case tool calls cannot fit.
        let (usd_max, remaining) = gate
            .over_budget(LOOPED_READS, Some(1e-6))
            .expect("proven violation");
        assert!(usd_max > remaining);
        assert_eq!(remaining, 1e-6);
    }

    /// Transparency: a gate whose memo clears on every new instruction
    /// returns the default gate's verdicts, violations and counts.
    #[test]
    fn a_clearing_verdict_memo_judges_like_the_default() {
        let programs = [
            LOOPED_READS,
            "for f in list_files():\n    read_file(f)\n0",
            "n = len(list_files())\ni = 0\nwhile i < n:\n    i += 1\ni",
            "how many identity theft reports in 2002?",
            "count identity theft reports in 2001",
            "x = 1",
        ];
        for tier in [ModelId::Flagship, ModelId::Nano] {
            let mut default = BoundGate::new(tier);
            let mut clearing = BoundGate {
                verdicts: Memo::new("bounds", 1),
                ..BoundGate::new(tier)
            };
            for i in 0..60 {
                let src = programs[(i * i + 3 * i) % programs.len()];
                let remaining = Some(1e-6 * i as f64);
                assert_eq!(clearing.verdict(src), default.verdict(src), "{src}");
                assert_eq!(
                    clearing.over_budget(src, remaining),
                    default.over_budget(src, remaining)
                );
            }
            assert_eq!(
                (clearing.checked, clearing.unbounded),
                (default.checked, default.unbounded)
            );
            let (kept, cleared) = (default.memo(), clearing.memo());
            assert!(kept.hits > 0 && kept.clears == 0, "{kept:?}");
            assert!(cleared.clears > 0, "{cleared:?}");
        }
    }

    #[test]
    fn cheaper_tiers_price_the_same_plan_lower() {
        let mut flagship = BoundGate::new(ModelId::Flagship);
        let mut nano = BoundGate::new(ModelId::Nano);
        let f = match flagship.verdict(LOOPED_READS) {
            StaticVerdict::UsdMax(v) => v,
            other => panic!("{other:?}"),
        };
        let n = match nano.verdict(LOOPED_READS) {
            StaticVerdict::UsdMax(v) => v,
            other => panic!("{other:?}"),
        };
        assert!(n < f, "nano {n} should undercut flagship {f}");
    }
}
