//! The sampling memo is transparent: an optimizer that replays all-hit
//! sampling runs from a shared [`SampleMemo`] produces, call for call,
//! the bits an optimizer that samples afresh every time produces, and
//! leaves the semantic cache, the usage fold and the clock in the same
//! state.
//!
//! Side A shares one memo across every `optimize` call; side B builds a
//! fresh `Optimizer` (a private, empty memo) per call on a twin
//! environment. Between the calls, executor runs admit new entries (and,
//! in a small cache, evict), caches are cleared, and snapshots are saved
//! and loaded back over themselves — each of which must stale, or leave
//! valid, exactly the memoized runs it should.

use aida_data::{DataLake, Document, Field};
use aida_llm::{ModelId, SemanticCache, SimLlm};
use aida_optimizer::{
    OptimizedPlan, Optimizer, OptimizerConfig, Policy, SampleMatrix, SampleMemo, SamplerConfig,
};
use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const CASES: u64 = if cfg!(debug_assertions) { 24 } else { 800 };

const WORDS: [&str; 12] = [
    "theft", "fraud", "pipeline", "budget", "merger", "identity", "report", "2019", "2020",
    "1,204", "revenue", "audit",
];

/// One semantic operator of a generated plan; the number picks its words.
#[derive(Debug, Clone)]
enum SemOp {
    Filter(usize),
    Extract(usize),
    Map(usize),
    Agg(usize),
}

/// A generated plan: an optional classical operator right after the scan
/// (which moves every semantic operator's index but no sampled call),
/// then one to three semantic operators.
#[derive(Debug, Clone)]
struct PlanSpec {
    prefix: u8,
    ops: Vec<SemOp>,
}

#[derive(Debug, Clone)]
enum Action {
    Optimize { plan: usize, config: usize },
    Execute { plan: usize, model: usize },
    Clear,
    SaveLoad,
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    docs: Vec<(Vec<usize>, u8)>,
    /// `None`: no cache; `Some(0)`: unbounded; otherwise the capacity.
    cache: Option<usize>,
    configs: Vec<(usize, usize)>,
    plans: Vec<PlanSpec>,
    actions: Vec<Action>,
}

/// SplitMix64, so the cases do not depend on any crate under test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A number in `lo..=hi`.
    fn within(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// An index into `weights`, drawn in proportion to them.
    fn weighted(&mut self, weights: &[usize]) -> usize {
        let mut roll = self.below(weights.iter().sum());
        for (i, &w) in weights.iter().enumerate() {
            if roll < w {
                return i;
            }
            roll -= w;
        }
        unreachable!("the roll is below the sum")
    }
}

fn sem_op(rng: &mut Rng) -> SemOp {
    let word = rng.below(WORDS.len());
    match rng.weighted(&[3, 1, 1, 1]) {
        0 => SemOp::Filter(word),
        1 => SemOp::Extract(word),
        2 => SemOp::Map(word),
        _ => SemOp::Agg(word),
    }
}

fn action(rng: &mut Rng, plans: usize) -> Action {
    match rng.weighted(&[6, 2, 1, 1]) {
        0 => Action::Optimize {
            plan: rng.below(plans),
            config: rng.below(2),
        },
        1 => Action::Execute {
            plan: rng.below(plans),
            model: rng.below(3),
        },
        2 => Action::Clear,
        _ => Action::SaveLoad,
    }
}

fn scenario(rng: &mut Rng) -> Scenario {
    let docs = (0..rng.within(1, 30))
        .map(|_| {
            let words = (0..rng.within(2, 9))
                .map(|_| rng.below(WORDS.len()))
                .collect();
            (words, rng.below(10) as u8)
        })
        .collect();
    let cache = match rng.weighted(&[1, 1, 2]) {
        0 => None,
        1 => Some(0),
        _ => Some(rng.within(8, 64)),
    };
    let configs = (0..2).map(|_| (rng.within(1, 11), rng.below(40))).collect();
    let mut plans: Vec<PlanSpec> = (0..rng.within(1, 3))
        .map(|_| PlanSpec {
            prefix: rng.below(3) as u8,
            ops: (0..rng.within(1, 3)).map(|_| sem_op(rng)).collect(),
        })
        .collect();
    // Plans that open alike sample the same first calls and differ only
    // in a later operator's.
    for i in 1..plans.len() {
        if rng.below(2) == 0 {
            plans[i].ops[0] = plans[0].ops[0].clone();
        }
    }
    let actions = (0..rng.within(4, 23))
        .map(|_| action(rng, plans.len()))
        .collect();
    Scenario {
        seed: rng.below(4) as u64,
        docs,
        cache,
        configs,
        plans,
        actions,
    }
}

fn lake(docs: &[(Vec<usize>, u8)]) -> DataLake {
    DataLake::from_docs(docs.iter().enumerate().map(|(i, (words, difficulty))| {
        let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
        Document::new(
            format!("doc{i}.txt"),
            format!("item {i}: {}", text.join(" ")),
        )
        .with_label("difficulty", f64::from(*difficulty) / 10.0)
    }))
}

fn dataset(lake: &DataLake, spec: &PlanSpec) -> Dataset {
    let mut ds = Dataset::scan(lake, "docs");
    ds = match spec.prefix {
        1 => ds.limit(1000),
        2 => ds.project(&["filename", "contents"]),
        _ => ds,
    };
    for op in &spec.ops {
        ds = match *op {
            SemOp::Filter(w) => ds.sem_filter(format!("mentions {}", WORDS[w])),
            SemOp::Extract(w) => ds.sem_extract(
                format!("find the {} figure", WORDS[w]),
                vec![Field::described(
                    "value",
                    format!("the {} number", WORDS[w]),
                )],
            ),
            SemOp::Map(w) => ds.sem_map(format!("summarize the {}", WORDS[w]), "summary", 30),
            SemOp::Agg(w) => ds.sem_agg(format!("total every {}", WORDS[w])),
        };
    }
    ds
}

fn env(seed: u64, cache: Option<usize>) -> ExecEnv {
    let llm = SimLlm::new(seed);
    ExecEnv::new(match cache {
        Some(capacity) => llm.with_cache(SemanticCache::with_capacity(capacity)),
        None => llm,
    })
}

/// Every float as bits, every count and label as is.
fn matrix_bits(m: &SampleMatrix) -> String {
    let mut out = format!(
        "avg {:x} cost {:x} time {:x} receipt {:?}\n",
        m.avg_record_tokens.to_bits(),
        m.sampling_cost.to_bits(),
        m.sampling_time.to_bits(),
        m.receipt
    );
    for op in &m.ops {
        out.push_str(&format!(
            "op {} sel {:x}",
            op.op_index,
            op.selectivity.to_bits()
        ));
        for (model, e) in &op.per_model {
            out.push_str(&format!(
                " {model}:{:x}/{:x}/{:x}/{}",
                e.quality.to_bits(),
                e.cost_per_record.to_bits(),
                e.time_per_record.to_bits(),
                e.observations
            ));
        }
        out.push('\n');
    }
    out
}

fn optimized_bits(o: &OptimizedPlan) -> String {
    format!(
        "{}plan {}\nestimate {:x}/{:x}/{:x} {:?} {:?}\ncandidates {}",
        matrix_bits(&o.matrix),
        o.physical.render(),
        o.estimate.cost.to_bits(),
        o.estimate.time.to_bits(),
        o.estimate.quality.to_bits(),
        o.estimate.order,
        o.estimate.models,
        o.candidates_considered
    )
}

/// The state both sides must agree on after every action.
fn env_bits(env: &ExecEnv) -> String {
    format!(
        "clock {:x} usage {:?} cache {:?}",
        env.clock.now().to_bits(),
        env.llm.usage(),
        env.llm.cache().map(|c| c.stats())
    )
}

fn scratch_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aida-sample-memo-{}-{case}", std::process::id()))
}

/// Saves `env`'s cache to `path` and returns the bytes written.
fn saved(env: &ExecEnv, path: &std::path::Path) -> Option<Vec<u8>> {
    let cache = env.llm.cache()?;
    cache.save(path).unwrap();
    Some(std::fs::read(path).unwrap())
}

/// Runs one scenario on both sides; returns how many runs side A replayed.
fn check(s: &Scenario) -> Result<u64, TestCaseError> {
    let lake = lake(&s.docs);
    let plans: Vec<Dataset> = s.plans.iter().map(|p| dataset(&lake, p)).collect();
    let (a, b) = (env(s.seed, s.cache), env(s.seed, s.cache));
    let memo = SampleMemo::new();
    let dir = scratch_dir();
    let policy = Policy::MaxQuality { cost_budget: None };
    let mut replays = 0;
    for (step, act) in s.actions.iter().enumerate() {
        match *act {
            Action::Optimize { plan, config } => {
                let (sample_records, bandit_pulls) = s.configs[config];
                let config = OptimizerConfig {
                    sampler: SamplerConfig {
                        sample_records,
                        bandit_pulls,
                    },
                    ..OptimizerConfig::default()
                };
                let plan = plans[plan].plan();
                let shared =
                    Optimizer::sharing(&a, config.clone(), memo.clone()).optimize(plan, &policy);
                let fresh = Optimizer::new(&b, config).optimize(plan, &policy);
                prop_assert!(!fresh.matrix.replayed, "a fresh memo is empty");
                replays += u64::from(shared.matrix.replayed);
                let (shared, fresh) = (optimized_bits(&shared), optimized_bits(&fresh));
                prop_assert!(shared == fresh, "step {step}:\n{shared}\nvs\n{fresh}");
            }
            Action::Execute { plan, model } => {
                let plan = plans[plan].plan();
                let models = vec![ModelId::ALL[model]; plan.len()];
                let physical = PhysicalPlan::with_models(plan, &models, 4);
                let ra = Executor::new(&a).execute(&physical);
                let rb = Executor::new(&b).execute(&physical);
                prop_assert_eq!(ra.receipt, rb.receipt);
                prop_assert_eq!(ra.records.len(), rb.records.len());
            }
            Action::Clear => {
                for side in [&a, &b] {
                    if let Some(cache) = side.llm.cache() {
                        cache.clear();
                    }
                }
            }
            Action::SaveLoad => {
                for (side, name) in [(&a, "a"), (&b, "b")] {
                    let path = dir.join(format!("{name}.cache"));
                    if saved(side, &path).is_some() {
                        side.llm.cache().unwrap().load(&path).unwrap();
                    }
                }
            }
        }
        let (bits_a, bits_b) = (env_bits(&a), env_bits(&b));
        prop_assert!(bits_a == bits_b, "step {step}:\n{bits_a}\nvs\n{bits_b}");
    }
    let snapshots = (
        saved(&a, &dir.join("a.cache")),
        saved(&b, &dir.join("b.cache")),
    );
    std::fs::remove_dir_all(&dir).ok();
    prop_assert_eq!(snapshots.0, snapshots.1, "final snapshots");
    Ok(replays)
}

#[test]
fn replayed_sampling_is_bit_identical_to_fresh_sampling() {
    let mut rng = Rng(0x5a3e_7e30);
    let mut replays = 0;
    for case in 0..CASES {
        let s = scenario(&mut rng);
        match check(&s) {
            Ok(n) => replays += n,
            Err(e) => panic!("case {case}: {e:?}\n  scenario: {s:?}"),
        }
    }
    assert!(
        2 * replays >= CASES,
        "only {replays} replays over {CASES} cases: the memo was barely exercised"
    );
}

/// Two plans whose semantic operators sample the same calls at different
/// indices: the index is part of the memo key, so neither replays the
/// other's estimates.
#[test]
fn operator_indices_key_the_memo() {
    let lake = lake(&[(vec![0, 5], 3), (vec![2, 3], 6), (vec![0, 9], 1)]);
    let bare = dataset(
        &lake,
        &PlanSpec {
            prefix: 0,
            ops: vec![SemOp::Filter(0)],
        },
    );
    let limited = dataset(
        &lake,
        &PlanSpec {
            prefix: 1,
            ops: vec![SemOp::Filter(0)],
        },
    );
    let env = env(1, Some(0));
    let memo = SampleMemo::new();
    let optimize = |ds: &Dataset| {
        Optimizer::sharing(&env, OptimizerConfig::default(), memo.clone())
            .optimize(ds.plan(), &Policy::MaxQuality { cost_budget: None })
            .matrix
    };
    for _ in 0..3 {
        optimize(&bare);
    }
    let replayed = optimize(&bare);
    assert!(replayed.replayed);
    assert_eq!(replayed.ops[0].op_index, 1);
    let other = optimize(&limited);
    assert!(
        !other.replayed,
        "a different operator index is a different run"
    );
    assert_eq!(other.ops[0].op_index, 2);
}

/// Two plans whose first operator samples the same calls and whose second
/// differs: the second operator's keys are part of the memo key, so
/// neither replays the other's run.
#[test]
fn every_operator_keys_the_memo() {
    let lake = lake(&[(vec![0, 5], 3), (vec![2, 3], 6), (vec![0, 9], 1)]);
    let spec = |second| PlanSpec {
        prefix: 0,
        ops: vec![SemOp::Filter(0), SemOp::Filter(second)],
    };
    let (one, other) = (dataset(&lake, &spec(1)), dataset(&lake, &spec(2)));
    let (shared, fresh) = (env(1, Some(0)), env(1, Some(0)));
    let memo = SampleMemo::new();
    let policy = Policy::MaxQuality { cost_budget: None };
    for ds in [&one, &one, &one, &other, &other] {
        let a = Optimizer::sharing(&shared, OptimizerConfig::default(), memo.clone())
            .optimize(ds.plan(), &policy);
        let b = Optimizer::new(&fresh, OptimizerConfig::default()).optimize(ds.plan(), &policy);
        assert_eq!(optimized_bits(&a), optimized_bits(&b));
        assert_eq!(env_bits(&shared), env_bits(&fresh));
    }
}
