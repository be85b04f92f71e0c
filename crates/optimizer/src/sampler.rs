//! The bandit-driven sampling phase.
//!
//! Before choosing a physical plan, the optimizer spends a small, real
//! budget of LLM calls estimating how each (operator, model) pair behaves
//! on *this* data: quality relative to the flagship reference model
//! (LOTUS-style proxy validation), dollars per record, seconds per record,
//! and operator selectivity. Sample calls are billed, and their receipts
//! summed into the matrix's — optimization is not free, exactly as in
//! Abacus.

use crate::bandit::Ucb1;
use crate::memo::{MemoKey, Replay, SampleMemo};
use aida_data::{DataLake, Value};
use aida_llm::cache::HIT_LATENCY_S;
use aida_llm::{
    CacheKey, LlmTask, ModelId, ReadingCell, SemanticCache, Subject, TaskHead, UsageSnapshot,
};
use aida_semops::plan::{LogicalOp, LogicalPlan};
use aida_semops::ExecEnv;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Estimated behaviour of one model on one operator.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEstimate {
    /// Agreement with the flagship reference in `[0, 1]`.
    pub quality: f64,
    /// Dollars per processed record.
    pub cost_per_record: f64,
    /// Seconds per processed record.
    pub time_per_record: f64,
    /// Number of sample observations behind the estimate (0 = prior only).
    pub observations: u64,
}

/// Estimates for one semantic operator.
#[derive(Debug, Clone)]
pub struct OpEstimate {
    /// Index of the operator in the logical plan.
    pub op_index: usize,
    /// Estimated selectivity (filters; 1.0 for non-filters).
    pub selectivity: f64,
    /// Per-model estimates.
    pub per_model: BTreeMap<ModelId, ModelEstimate>,
}

/// The full sampling result for a plan.
#[derive(Debug, Clone, Default)]
pub struct SampleMatrix {
    /// One entry per semantic operator, in plan order.
    pub ops: Vec<OpEstimate>,
    /// Mean input tokens per scanned record (drives coarse cost guesses).
    pub avg_record_tokens: f64,
    /// What sampling billed: the sum of its calls' receipts.
    pub receipt: UsageSnapshot,
    /// Dollars spent on sampling itself (the receipt's cost).
    pub sampling_cost: f64,
    /// Virtual seconds spent sampling.
    pub sampling_time: f64,
    /// Whether the run was replayed from a [`SampleMemo`] instead of
    /// computed; every other field is the same either way.
    pub replayed: bool,
}

impl SampleMatrix {
    /// The estimate for an operator index, if it was sampled.
    pub fn for_op(&self, op_index: usize) -> Option<&OpEstimate> {
        self.ops.iter().find(|o| o.op_index == op_index)
    }
}

/// Quality priors used for unsampled arms and unsampleable operators.
pub fn quality_prior(model: ModelId) -> f64 {
    match model {
        ModelId::Flagship => 0.98,
        ModelId::Mini => 0.88,
        ModelId::Nano => 0.76,
    }
}

/// Sampling configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SamplerConfig {
    /// Records drawn from the scan for sampling.
    pub sample_records: usize,
    /// Total bandit pulls across all non-reference arms.
    pub bandit_pulls: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            sample_records: 10,
            bandit_pulls: 36,
        }
    }
}

/// The share of a sample call's latency the clock is charged: sampling
/// overlaps with setup.
const SAMPLING_OVERLAP: f64 = 0.25;

/// The two non-reference tiers the bandit chooses between.
const CANDIDATES: [ModelId; 2] = [ModelId::Mini, ModelId::Nano];

/// What a sampling run computed, before it is priced and timed.
struct Run {
    ops: Vec<OpEstimate>,
    avg_record_tokens: f64,
    receipt: UsageSnapshot,
    /// The bandit's pulls in call order: (op index, model, sample index).
    pulls: Vec<(usize, ModelId, usize)>,
}

/// The readings of one sampling run's tasks, one per (operator index,
/// sample index): the flagship reference and every bandit pull on a pair
/// ask the same task, so the simulator reads it once
/// ([`aida_llm::SimLlm::invoke_shared`]).
type Readings = BTreeMap<usize, Vec<ReadingCell>>;

/// Runs the sampling phase for a logical plan.
pub struct Sampler<'a> {
    env: &'a ExecEnv,
    config: SamplerConfig,
    memo: &'a SampleMemo,
    /// Every call reads its task afresh, as [`aida_llm::SimLlm::invoke`]
    /// does: the reference the shared readings are tested against.
    #[cfg(test)]
    afresh: bool,
}

impl<'a> Sampler<'a> {
    /// Creates a sampler that replays repeated all-hit runs from `memo`
    /// (see [`SampleMemo`]); `memo` must serve only samplers over `env`.
    pub fn new(env: &'a ExecEnv, config: SamplerConfig, memo: &'a SampleMemo) -> Self {
        Sampler {
            env,
            config,
            memo,
            #[cfg(test)]
            afresh: false,
        }
    }

    /// Estimates the sample matrix for a plan. Returns a prior-only matrix
    /// when the plan has no scan or no semantic operators.
    pub fn sample(&self, plan: &LogicalPlan) -> SampleMatrix {
        let t0 = self.env.clock.now();
        let lake = plan.ops().iter().find_map(|op| match op {
            LogicalOp::Scan { lake, .. } => Some(&**lake),
            _ => None,
        });
        let subjects = self.draw(lake);
        // One head per operator, for every call the run makes about it.
        let heads: Vec<TaskHead<'_>> = plan.ops().iter().map(head).collect();
        let sem_indices = plan.semantic_indices();
        let makes_calls = !subjects.is_empty() && !sem_indices.is_empty();
        if let (true, Some(cache)) = (makes_calls, self.env.llm.cache()) {
            return self.sample_memoized(cache, plan, &heads, &subjects, sem_indices, t0);
        }
        let run = self.run(plan, &heads, &subjects, &sem_indices);
        self.matrix(run.ops, run.avg_record_tokens, run.receipt, t0)
    }

    /// [`Sampler::sample`] in front of the memo: a run whose reference
    /// keys, operators and configuration were seen before, all served from
    /// the cache, and whose cache entries are all still resident, is
    /// replayed; any other run is computed, and memoized if it was all
    /// hits.
    fn sample_memoized(
        &self,
        cache: &SemanticCache,
        plan: &LogicalPlan,
        heads: &[TaskHead<'_>],
        subjects: &[Subject<'_>],
        sem_indices: Vec<usize>,
        t0: f64,
    ) -> SampleMatrix {
        // The first operator's flagship keys over every sample record fix
        // every sampled subject, and the first record's flagship keys under
        // every other operator fix every operator's task: together they
        // fix every call the run makes.
        let first = &heads[sem_indices[0]];
        let flagship = |head, s: &Subject<'_>| self.key(head, ModelId::Flagship, s.clone());
        let references: Vec<CacheKey> = subjects
            .iter()
            .map(|s| flagship(first, s))
            .chain(
                sem_indices[1..]
                    .iter()
                    .map(|&op_idx| flagship(&heads[op_idx], &subjects[0])),
            )
            .collect();
        let key = MemoKey {
            references,
            sem_indices,
            config: self.config.clone(),
        };
        self.memo.0.report_to(&self.env.recorder);
        if let Some(replay) = self.memo.0.get(&key) {
            // The memo key fixes every call, so this plan's operators and
            // subjects key the recorded run's calls as that run did.
            let keys = replay.keys.get_or_init(|| {
                let reference_pass = key.sem_indices.iter().flat_map(|&op_idx| {
                    (0..subjects.len()).map(move |i| (op_idx, ModelId::Flagship, i))
                });
                reference_pass
                    .chain(replay.pulls.iter().copied())
                    .map(|(op_idx, model, i)| self.key(&heads[op_idx], model, subjects[i].clone()))
                    .collect()
            });
            if let Some(receipt) = self.env.llm.serve_hits(keys, replay.token) {
                let per_hit = HIT_LATENCY_S * SAMPLING_OVERLAP;
                self.env.clock.advance_each(per_hit, keys.len());
                let ops = replay.ops.clone();
                return SampleMatrix {
                    replayed: true,
                    ..self.matrix(ops, replay.avg_record_tokens, receipt, t0)
                };
            }
        }
        let token = cache.residency();
        let run = self.run(plan, heads, subjects, &key.sem_indices);
        let calls = key.sem_indices.len() * subjects.len() + run.pulls.len();
        let all_hits = run.receipt.cache_hits == calls as u64
            && run.receipt.cache_misses == 0
            && run.receipt.cache_coalesced == 0
            && run.receipt.total_calls() == 0;
        if all_hits && cache.residency() == token {
            let replay = Replay {
                pulls: run.pulls,
                keys: OnceLock::new(),
                token,
                ops: run.ops.clone(),
                avg_record_tokens: run.avg_record_tokens,
            };
            self.memo.0.insert(key, Arc::new(replay), 1);
        }
        self.matrix(run.ops, run.avg_record_tokens, run.receipt, t0)
    }

    /// The sample: `sample_records` documents at an even stride through
    /// the scanned lake, each read as a scan would emit it.
    fn draw<'l>(&self, lake: Option<&'l DataLake>) -> Vec<Subject<'l>> {
        match lake {
            Some(lake) if !lake.is_empty() => {
                let n = lake.len();
                let k = self.config.sample_records.clamp(1, n);
                let stride = n / k;
                (0..k)
                    .map(|i| Subject::doc(&lake.docs()[(i * stride).min(n - 1)]))
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    /// Computes a sampling run: the reference pass, the bandit pass and
    /// the per-operator estimates.
    fn run(
        &self,
        plan: &LogicalPlan,
        heads: &[TaskHead<'_>],
        subjects: &[Subject<'_>],
        sem_indices: &[usize],
    ) -> Run {
        let avg_record_tokens = if subjects.is_empty() {
            0.0
        } else {
            subjects.iter().map(|s| s.text_tokens() as f64).sum::<f64>() / subjects.len() as f64
        };
        let mut run = Run {
            ops: Vec::new(),
            avg_record_tokens,
            receipt: UsageSnapshot::default(),
            pulls: Vec::new(),
        };
        if subjects.is_empty() || sem_indices.is_empty() {
            return run;
        }
        // Arms: (op, candidate model) for the two non-reference tiers.
        let arms: Vec<(usize, ModelId)> = sem_indices
            .iter()
            .flat_map(|&op| CANDIDATES.iter().map(move |&m| (op, m)))
            .collect();
        let readings: Readings = sem_indices
            .iter()
            .map(|&op_idx| {
                (
                    op_idx,
                    subjects.iter().map(|_| ReadingCell::new()).collect(),
                )
            })
            .collect();
        let references =
            self.reference_pass(heads, subjects, sem_indices, &readings, &mut run.receipt);
        let (bandit, arm_obs) = self.bandit_pass(
            plan,
            heads,
            subjects,
            &readings,
            &arms,
            &references,
            &mut run,
        );
        run.ops = sem_indices
            .iter()
            .map(|&op_idx| {
                self.estimate(plan, op_idx, &references[&op_idx], &arms, &bandit, &arm_obs)
            })
            .collect();
        run
    }

    /// Flagship on every (op, sample record).
    fn reference_pass(
        &self,
        heads: &[TaskHead<'_>],
        subjects: &[Subject<'_>],
        sem_indices: &[usize],
        readings: &Readings,
        receipt: &mut UsageSnapshot,
    ) -> BTreeMap<usize, Vec<ReferenceObs>> {
        sem_indices
            .iter()
            .map(|&op_idx| {
                let head = &heads[op_idx];
                let obs = subjects
                    .iter()
                    .zip(&readings[&op_idx])
                    .map(|(s, cell)| {
                        self.observe(head, s.clone(), ModelId::Flagship, cell, receipt)
                    })
                    .collect();
                (op_idx, obs)
            })
            .collect()
    }

    /// UCB1 over the candidate arms, each pull scored by its agreement
    /// with the reference on the same record. Records the pulls on `run`.
    #[allow(clippy::too_many_arguments)]
    fn bandit_pass(
        &self,
        plan: &LogicalPlan,
        heads: &[TaskHead<'_>],
        subjects: &[Subject<'_>],
        readings: &Readings,
        arms: &[(usize, ModelId)],
        references: &BTreeMap<usize, Vec<ReferenceObs>>,
        run: &mut Run,
    ) -> (Ucb1, Vec<Vec<ReferenceObs>>) {
        // Per-op pull order: filter disagreements concentrate on the
        // records the reference judges *positive* (a model that never
        // sees a positive looks flawless), so visit those first.
        let pull_order: BTreeMap<usize, Vec<usize>> = references
            .iter()
            .map(|(&op_idx, refs)| {
                let mut order: Vec<usize> = Vec::with_capacity(refs.len());
                if matches!(plan.ops()[op_idx], LogicalOp::SemFilter { .. }) {
                    order.extend((0..refs.len()).filter(|&i| refs[i].value.truthy()));
                    order.extend((0..refs.len()).filter(|&i| !refs[i].value.truthy()));
                } else {
                    order.extend(0..refs.len());
                }
                (op_idx, order)
            })
            .collect();

        let mut bandit = Ucb1::new(arms.len());
        let mut arm_obs: Vec<Vec<ReferenceObs>> = vec![Vec::new(); arms.len()];
        let pulls = self.config.bandit_pulls.max(arms.len());
        run.pulls.reserve(pulls);
        for _ in 0..pulls {
            let arm = bandit.select();
            let (op_idx, model) = arms[arm];
            let pull_no = arm_obs[arm].len();
            let sample_idx = pull_order[&op_idx][pull_no % subjects.len()];
            let subject = subjects[sample_idx].clone();
            let reading = &readings[&op_idx][sample_idx];
            let obs = self.observe(&heads[op_idx], subject, model, reading, &mut run.receipt);
            run.pulls.push((op_idx, model, sample_idx));
            let reference = &references[&op_idx][sample_idx];
            let reward = agreement(&obs.value, &reference.value, self.env);
            bandit.update(arm, reward);
            arm_obs[arm].push(obs);
        }
        (bandit, arm_obs)
    }

    /// One operator's estimates: selectivity from the reference pass, the
    /// flagship from its observations, each candidate tier from its pulls
    /// blended with the tier prior.
    fn estimate(
        &self,
        plan: &LogicalPlan,
        op_idx: usize,
        refs: &[ReferenceObs],
        arms: &[(usize, ModelId)],
        bandit: &Ucb1,
        arm_obs: &[Vec<ReferenceObs>],
    ) -> OpEstimate {
        let selectivity = match &plan.ops()[op_idx] {
            LogicalOp::SemFilter { .. } => {
                let trues = refs.iter().filter(|o| o.value.truthy()).count();
                // Laplace smoothing keeps estimates off the walls.
                (trues as f64 + 0.5) / (refs.len() as f64 + 1.0)
            }
            _ => 1.0,
        };
        let mut per_model = BTreeMap::new();
        per_model.insert(
            ModelId::Flagship,
            ModelEstimate {
                quality: quality_prior(ModelId::Flagship),
                cost_per_record: mean(refs.iter().map(|o| o.cost)),
                time_per_record: mean(refs.iter().map(|o| o.latency)),
                observations: refs.len() as u64,
            },
        );
        for (arm, &(arm_op, model)) in arms.iter().enumerate() {
            if arm_op != op_idx {
                continue;
            }
            let stats = bandit.stats(arm);
            let obs = &arm_obs[arm];
            // Blend the (small-sample) measurement with the tier
            // prior so a handful of lucky pulls can't make a noisy
            // tier look flawless. PRIOR_WEIGHT pseudo-observations.
            const PRIOR_WEIGHT: f64 = 2.0;
            let blend = |mean: f64, pulls: u64| {
                (quality_prior(model) * PRIOR_WEIGHT + mean * pulls as f64)
                    / (PRIOR_WEIGHT + pulls as f64)
            };
            let (quality, cost, latency, n) = if stats.pulls == 0 {
                // Never pulled: prior quality, cost scaled from the
                // flagship observation by the price ratio.
                let ratio = self.price_ratio(model);
                (
                    quality_prior(model),
                    mean(refs.iter().map(|o| o.cost)) * ratio,
                    mean(refs.iter().map(|o| o.latency)) * 0.7,
                    0,
                )
            } else {
                (
                    blend(stats.mean(), stats.pulls),
                    mean(obs.iter().map(|o| o.cost)),
                    mean(obs.iter().map(|o| o.latency)),
                    stats.pulls,
                )
            };
            per_model.insert(
                model,
                ModelEstimate {
                    quality,
                    cost_per_record: cost,
                    time_per_record: latency,
                    observations: n,
                },
            );
        }
        OpEstimate {
            op_index: op_idx,
            selectivity,
            per_model,
        }
    }

    /// Prices and times a run: the receipt's cost, and the virtual
    /// seconds since `t0`.
    fn matrix(
        &self,
        ops: Vec<OpEstimate>,
        avg_record_tokens: f64,
        receipt: UsageSnapshot,
        t0: f64,
    ) -> SampleMatrix {
        SampleMatrix {
            ops,
            avg_record_tokens,
            sampling_cost: receipt.cost(self.env.llm.catalog()),
            receipt,
            sampling_time: self.env.clock.now() - t0,
            replayed: false,
        }
    }

    fn price_ratio(&self, model: ModelId) -> f64 {
        let catalog = self.env.llm.catalog();
        let f = catalog.spec(ModelId::Flagship).input_price;
        (catalog.spec(model).input_price / f).max(1e-3)
    }

    /// The content key [`Sampler::observe`] would look up.
    fn key(&self, head: &TaskHead<'_>, model: ModelId, subject: Subject<'_>) -> CacheKey {
        self.env
            .llm
            .content_key(model, &LlmTask::Prepared { head, subject })
    }

    fn observe(
        &self,
        head: &TaskHead<'_>,
        subject: Subject<'_>,
        model: ModelId,
        reading: &ReadingCell,
        receipt: &mut UsageSnapshot,
    ) -> ReferenceObs {
        #[cfg(test)]
        let fresh = ReadingCell::new();
        #[cfg(test)]
        let reading = if self.afresh { &fresh } else { reading };
        let resp = self
            .env
            .llm
            .invoke_shared(model, &LlmTask::Prepared { head, subject }, reading);
        self.env.clock.advance(resp.latency_s * SAMPLING_OVERLAP);
        receipt.add(&resp.receipt);
        let catalog = self.env.llm.catalog();
        let cost = catalog
            .spec(model)
            .cost(resp.input_tokens, resp.output_tokens);
        ReferenceObs {
            value: resp.value,
            cost,
            latency: resp.latency_s,
        }
    }
}

/// The head of the task a sample call asks of a model about one of `op`'s
/// records.
fn head(op: &LogicalOp) -> TaskHead<'_> {
    match op {
        LogicalOp::SemFilter { instruction } => TaskHead::filter(instruction),
        LogicalOp::SemExtract {
            instruction,
            fields,
        } => {
            let field = fields.first();
            TaskHead::extract(
                instruction,
                field.map(|f| f.name.as_str()).unwrap_or("value"),
                field.map(|f| f.desc.as_str()).unwrap_or(""),
            )
        }
        LogicalOp::SemMap {
            instruction,
            target_tokens,
            ..
        } => TaskHead::map(instruction, *target_tokens),
        // Agg/join are sampled like maps over the record.
        other => TaskHead::map(other.instruction().unwrap_or("process the item"), 60),
    }
}

#[derive(Clone)]
struct ReferenceObs {
    value: Value,
    cost: f64,
    latency: f64,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Agreement between a candidate answer and the flagship reference.
fn agreement(candidate: &Value, reference: &Value, env: &ExecEnv) -> f64 {
    match (candidate, reference) {
        (Value::Bool(a), Value::Bool(b)) => {
            if a == b {
                1.0
            } else {
                0.0
            }
        }
        (Value::Str(a), Value::Str(b)) => {
            let sim = aida_llm::embed::cosine(&env.embedder.embed(a), &env.embedder.embed(b));
            f64::from(sim).clamp(0.0, 1.0)
        }
        (a, b) => {
            if a.loose_eq(b) {
                1.0
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::{DataLake, Document};
    use aida_llm::oracle::FnRule;
    use aida_llm::OracleQuery;
    use aida_llm::{OracleAnswer, SimLlm};
    use aida_semops::Dataset;
    use std::sync::Arc;

    fn lake() -> DataLake {
        DataLake::from_docs((0..20).map(|i| {
            let relevant = i % 4 == 0;
            let content = if relevant {
                format!("report {i}: identity theft statistics for the year")
            } else {
                format!("report {i}: pipeline maintenance notes")
            };
            Document::new(format!("doc{i}.txt",), content).with_label("difficulty", 0.6)
        }))
    }

    fn sampled() -> SampleMatrix {
        let env = ExecEnv::new(SimLlm::new(3));
        let ds = Dataset::scan(&lake(), "docs").sem_filter("mentions identity theft");
        Sampler::new(&env, SamplerConfig::default(), &SampleMemo::new()).sample(ds.plan())
    }

    #[test]
    fn matrix_covers_every_model_tier() {
        let m = sampled();
        assert_eq!(m.ops.len(), 1);
        let op = &m.ops[0];
        for model in ModelId::ALL {
            assert!(op.per_model.contains_key(&model), "missing {model}");
        }
    }

    #[test]
    fn flagship_is_most_expensive_per_record() {
        let m = sampled();
        let op = &m.ops[0];
        let f = op.per_model[&ModelId::Flagship].cost_per_record;
        let n = op.per_model[&ModelId::Nano].cost_per_record;
        assert!(f > n, "flagship {f} vs nano {n}");
    }

    #[test]
    fn selectivity_reflects_data() {
        let m = sampled();
        // A quarter of documents are relevant; smoothing pulls toward 0.5.
        let s = m.ops[0].selectivity;
        assert!((0.05..=0.6).contains(&s), "selectivity {s}");
    }

    #[test]
    fn sampling_bills_the_meter() {
        let env = ExecEnv::new(SimLlm::new(3));
        let ds = Dataset::scan(&lake(), "docs").sem_filter("mentions identity theft");
        let m = Sampler::new(&env, SamplerConfig::default(), &SampleMemo::new()).sample(ds.plan());
        assert!(m.sampling_cost > 0.0);
        assert!(m.sampling_time > 0.0);
        assert!(env.llm.usage().total_calls() > 0);
        assert_eq!(m.receipt, env.llm.usage(), "the receipt is all it billed");
    }

    #[test]
    fn noisy_tier_scores_lower_quality_on_hard_data() {
        let m = sampled();
        let op = &m.ops[0];
        let nano = &op.per_model[&ModelId::Nano];
        let flagship = &op.per_model[&ModelId::Flagship];
        // Difficulty 0.6 data: nano disagrees with flagship noticeably.
        assert!(
            nano.quality <= flagship.quality + 1e-9,
            "nano {} vs flagship {}",
            nano.quality,
            flagship.quality
        );
    }

    #[test]
    fn empty_plan_yields_prior_only_matrix() {
        let env = ExecEnv::new(SimLlm::new(3));
        let empty_lake = DataLake::new();
        let ds = Dataset::scan(&empty_lake, "empty").sem_filter("anything");
        let m = Sampler::new(&env, SamplerConfig::default(), &SampleMemo::new()).sample(ds.plan());
        assert!(m.ops.is_empty());
        assert_eq!(m.avg_record_tokens, 0.0);
    }

    /// SplitMix64, so the cases depend on no crate under test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    const WORDS: [&str; 10] = [
        "theft", "fraud", "pipeline", "merger", "identity", "report", "2019", "1,204", "revenue",
        "Audit",
    ];

    /// A lake of `n` documents, a few lines each, every third a table.
    fn random_lake(rng: &mut Rng, n: usize) -> DataLake {
        DataLake::from_docs((0..n).map(|i| {
            let line = |rng: &mut Rng| -> String {
                let words: Vec<&str> = (0..1 + rng.below(6))
                    .map(|_| WORDS[rng.below(WORDS.len())])
                    .collect();
                words.join(" ")
            };
            let (name, text) = if i % 3 == 2 {
                let rows: Vec<String> = (0..3 + rng.below(3))
                    .map(|r| format!("{},{},{}", 2018 + r, rng.below(900), rng.below(9)))
                    .collect();
                (
                    format!("t{i}.csv"),
                    format!("year,theft,fraud\n{}", rows.join("\n")),
                )
            } else {
                let lines: Vec<String> = (0..1 + rng.below(5)).map(|_| line(rng)).collect();
                (format!("d{i}.txt"), lines.join("\n"))
            };
            Document::new(name, text).with_label("difficulty", rng.below(10) as f64 / 10.0)
        }))
    }

    fn random_plan(rng: &mut Rng, lake: &DataLake) -> Dataset {
        let mut ds = Dataset::scan(lake, "docs");
        for _ in 0..1 + rng.below(3) {
            let word = WORDS[rng.below(WORDS.len())];
            ds = match rng.below(4) {
                0 => ds.sem_filter(format!("mentions {word}")),
                1 => ds.sem_extract(
                    format!("find the {word} figure in 2019"),
                    vec![aida_data::Field::described(
                        "theft",
                        format!("{word} count"),
                    )],
                ),
                2 => ds.sem_map(format!("summarize the {word}"), "summary", 20),
                _ => ds.sem_agg(format!("total every {word}")),
            };
        }
        ds
    }

    /// The bits two sides must agree on: every matrix float, count and
    /// receipt, and the environment's clock, usage and cache stats.
    fn bits(m: &SampleMatrix, env: &ExecEnv) -> String {
        let mut out = format!(
            "avg {:x} cost {:x} time {:x} replayed {} receipt {:?}\nclock {:x} usage {:?} cache {:?}\n",
            m.avg_record_tokens.to_bits(),
            m.sampling_cost.to_bits(),
            m.sampling_time.to_bits(),
            m.replayed,
            m.receipt,
            env.clock.now().to_bits(),
            env.llm.usage(),
            env.llm.cache().map(|c| c.stats()),
        );
        for op in &m.ops {
            out.push_str(&format!(
                "op {} {:x}",
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

    /// Sharing one reading per (operator, sample record) is transparent:
    /// a sampler that does produces, run for run, the bits of one whose
    /// every call reads its task afresh, and leaves the clock, the usage
    /// fold and the cache alike. Cases vary the lake (text and table
    /// documents), the plan's operators, the sampler configuration, the
    /// seed, the fault rate, an oracle rule, the cache and its capacity,
    /// and interleave cache clears.
    #[test]
    fn shared_readings_sample_like_afresh_readings() {
        let cases = if cfg!(debug_assertions) { 32 } else { 2000 };
        let mut rng = Rng(0x5a3e_d7ea);
        for case in 0..cases {
            let docs = 1 + rng.below(24);
            let lake = random_lake(&mut rng, docs);
            let plans: Vec<Dataset> = (0..1 + rng.below(3))
                .map(|_| random_plan(&mut rng, &lake))
                .collect();
            let (seed, fault, oracle) = (rng.below(4) as u64, rng.below(3), rng.below(2) == 1);
            let cache = rng.below(3);
            let env = || {
                let mut llm = SimLlm::new(seed).with_fault_rate(0.2 * fault as f64);
                if cache > 0 {
                    llm = llm.with_cache(SemanticCache::with_capacity(16 * (cache - 1)));
                }
                if oracle {
                    llm.oracle().register(Arc::new(FnRule::new(
                        "reports",
                        |query: &OracleQuery<'_>, subject: &Subject<'_>| {
                            let instruction = query.text();
                            let hard = subject.difficulty();
                            let applies =
                                instruction.contains("report") && subject.name.ends_with(".txt");
                            applies.then_some(OracleAnswer::BoolWithDifficulty(hard > 0.4, hard))
                        },
                    )));
                }
                ExecEnv::new(llm)
            };
            let (shared, afresh) = (env(), env());
            let (memo_a, memo_b) = (SampleMemo::new(), SampleMemo::new());
            for step in 0..1 + rng.below(5) {
                let plan = plans[rng.below(plans.len())].plan();
                let config = SamplerConfig {
                    sample_records: 1 + rng.below(11),
                    bandit_pulls: rng.below(40),
                };
                if rng.below(4) == 0 {
                    for side in [&shared, &afresh] {
                        if let Some(cache) = side.llm.cache() {
                            cache.clear();
                        }
                    }
                }
                let a = Sampler::new(&shared, config.clone(), &memo_a).sample(plan);
                let mut reference = Sampler::new(&afresh, config, &memo_b);
                reference.afresh = true;
                let b = reference.sample(plan);
                let (a, b) = (bits(&a, &shared), bits(&b, &afresh));
                assert!(a == b, "case {case} step {step}:\n{a}\nvs\n{b}");
            }
        }
    }

    #[test]
    fn priors_are_tier_ordered() {
        assert!(quality_prior(ModelId::Flagship) > quality_prior(ModelId::Mini));
        assert!(quality_prior(ModelId::Mini) > quality_prior(ModelId::Nano));
    }
}
