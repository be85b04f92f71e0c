//! Experiment drivers: one per table/figure of the paper (plus ablations).

use crate::metrics::{self, f1_score, percent_error};
use crate::systems::{run_code_agent, run_pz_compute, run_semops_handcrafted, SystemAnswer};
use aida_core::{Context, Runtime};
use aida_obs::Json;
use aida_synth::{enron, legal, Workload};

/// One row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub system: String,
    /// `(metric name, value)` pairs in column order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Value of a metric by name.
    pub fn get(&self, metric: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| *v)
    }
}

/// A completed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `table1`.
    pub name: String,
    /// Human title.
    pub title: String,
    /// Column names (metrics).
    pub columns: Vec<String>,
    /// One row per system.
    pub rows: Vec<Row>,
    /// Paper-reported values for the same cells, where applicable.
    pub paper: Vec<Row>,
    /// Trials averaged.
    pub trials: usize,
}

impl ExperimentReport {
    /// Row lookup by system name.
    pub fn row(&self, system: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.system == system)
    }

    /// Renders an aligned ASCII table (measured, then paper reference).
    pub fn render(&self) -> String {
        let mut out = format!("## {} ({} trials)\n\n", self.title, self.trials);
        let render_rows = |out: &mut String, rows: &[Row]| {
            let mut widths = vec![12usize];
            for c in &self.columns {
                widths.push(c.len().max(9));
            }
            *out += &format!("{:<12}", "System");
            for (c, w) in self.columns.iter().zip(&widths[1..]) {
                *out += &format!(" | {c:>w$}", w = w);
            }
            out.push('\n');
            *out += &"-".repeat(
                13 + self
                    .columns
                    .iter()
                    .map(|c| c.len().max(9) + 3)
                    .sum::<usize>(),
            );
            out.push('\n');
            for row in rows {
                *out += &format!("{:<12}", row.system);
                for (c, w) in self.columns.iter().zip(&widths[1..]) {
                    match row.get(c) {
                        Some(v) => *out += &format!(" | {v:>w$.4}", w = w),
                        None => *out += &format!(" | {:>w$}", "-", w = w),
                    }
                }
                out.push('\n');
            }
        };
        out.push_str("Measured:\n");
        render_rows(&mut out, &self.rows);
        if !self.paper.is_empty() {
            out.push_str("\nPaper reported:\n");
            render_rows(&mut out, &self.paper);
        }
        out
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                let mut obj = Json::obj().field("system", r.system.clone());
                for (name, value) in &r.values {
                    obj = obj.field(name, *value);
                }
                obj
            })
            .collect();
        Json::obj()
            .field("name", self.name.clone())
            .field("title", self.title.clone())
            .field("trials", self.trials)
            .field("rows", Json::Arr(rows))
    }
}

/// Default trial seeds (the paper averages three runs).
pub const TRIAL_SEEDS: [u64; 3] = [1, 2, 3];

fn legal_error(answer: &SystemAnswer) -> f64 {
    let truth = legal::true_ratio();
    match answer {
        SystemAnswer::Numbers(ratios) if !ratios.is_empty() => metrics::mean(
            &ratios
                .iter()
                .map(|r| percent_error(Some(*r), truth))
                .collect::<Vec<_>>(),
        ),
        _ => 1.0,
    }
}

fn enron_prf(answer: &SystemAnswer, workload: &Workload) -> crate::metrics::Prf {
    let truth = workload.truth.as_doc_set().unwrap_or(&[]).to_vec();
    match answer {
        SystemAnswer::Docs(docs) => f1_score(docs, &truth),
        _ => f1_score(&Vec::<String>::new(), &truth),
    }
}

/// Per-system accumulators: `(name, metric trials, cost trials, time trials)`.
type ErrSlots<'a> = Vec<(&'a str, Vec<f64>, Vec<f64>, Vec<f64>)>;
/// Per-system accumulators with precision/recall/F1 metrics.
type PrfSlots<'a> = Vec<(&'a str, Vec<crate::metrics::Prf>, Vec<f64>, Vec<f64>)>;

/// **Table 1**: `compute` vs. handcrafted semantic operators vs. CodeAgent
/// on the Kramabench `legal-easy-3` ratio query. Columns: mean percent
/// error (fraction), dollars, virtual seconds.
pub fn table1(seeds: &[u64]) -> ExperimentReport {
    let mut systems: ErrSlots = vec![
        ("Sem. Ops", vec![], vec![], vec![]),
        ("CodeAgent", vec![], vec![], vec![]),
        ("PZ compute", vec![], vec![], vec![]),
    ];
    for &seed in seeds {
        let workload = legal::generate(seed);
        let runs = [
            run_semops_handcrafted(&workload, seed),
            run_code_agent(&workload, seed, false),
            run_pz_compute(&workload, seed),
        ];
        for (slot, run) in systems.iter_mut().zip(runs) {
            slot.1.push(legal_error(&run.answer));
            slot.2.push(run.cost);
            slot.3.push(run.time);
        }
    }
    let rows = systems
        .into_iter()
        .map(|(name, errs, costs, times)| Row {
            system: name.to_string(),
            values: vec![
                ("pct_err".into(), metrics::mean(&errs)),
                ("cost".into(), metrics::mean(&costs)),
                ("time_s".into(), metrics::mean(&times)),
            ],
        })
        .collect();
    ExperimentReport {
        name: "table1".into(),
        title: "Table 1: Kramabench legal-easy-3 (identity-theft ratio)".into(),
        columns: vec!["pct_err".into(), "cost".into(), "time_s".into()],
        rows,
        paper: vec![
            paper_row(
                "Sem. Ops",
                &[("pct_err", 0.17), ("cost", 1.66), ("time_s", 215.2)],
            ),
            paper_row(
                "CodeAgent",
                &[("pct_err", 0.2756), ("cost", 0.03), ("time_s", 77.0)],
            ),
            paper_row(
                "PZ compute",
                &[("pct_err", 0.0002), ("cost", 1.17), ("time_s", 583.0)],
            ),
        ],
        trials: seeds.len(),
    }
}

/// **Table 2**: `compute` vs. CodeAgent vs. CodeAgent+ on the Enron email
/// filtering task. Columns: F1/recall/precision (fractions), dollars,
/// virtual seconds.
pub fn table2(seeds: &[u64]) -> ExperimentReport {
    let mut systems: PrfSlots = vec![
        ("CodeAgent", vec![], vec![], vec![]),
        ("CodeAgent+", vec![], vec![], vec![]),
        ("PZ compute", vec![], vec![], vec![]),
    ];
    for &seed in seeds {
        let workload = enron::generate(seed);
        let runs = [
            run_code_agent(&workload, seed, false),
            run_code_agent(&workload, seed, true),
            run_pz_compute(&workload, seed),
        ];
        for (slot, run) in systems.iter_mut().zip(runs) {
            slot.1.push(enron_prf(&run.answer, &workload));
            slot.2.push(run.cost);
            slot.3.push(run.time);
        }
    }
    let rows = systems
        .into_iter()
        .map(|(name, prfs, costs, times)| {
            let f1s: Vec<f64> = prfs.iter().map(|p| p.f1).collect();
            let recalls: Vec<f64> = prfs.iter().map(|p| p.recall).collect();
            let precisions: Vec<f64> = prfs.iter().map(|p| p.precision).collect();
            Row {
                system: name.to_string(),
                values: vec![
                    ("f1".into(), metrics::mean(&f1s)),
                    ("recall".into(), metrics::mean(&recalls)),
                    ("precision".into(), metrics::mean(&precisions)),
                    ("cost".into(), metrics::mean(&costs)),
                    ("time_s".into(), metrics::mean(&times)),
                ],
            }
        })
        .collect();
    ExperimentReport {
        name: "table2".into(),
        title: "Table 2: Enron email filtering (two NL predicates)".into(),
        columns: vec![
            "f1".into(),
            "recall".into(),
            "precision".into(),
            "cost".into(),
            "time_s".into(),
        ],
        rows,
        paper: vec![
            paper_row(
                "CodeAgent",
                &[
                    ("f1", 0.5053),
                    ("recall", 0.4615),
                    ("precision", 0.8889),
                    ("cost", 0.08),
                    ("time_s", 37.0),
                ],
            ),
            paper_row(
                "CodeAgent+",
                &[
                    ("f1", 0.9867),
                    ("recall", 0.9744),
                    ("precision", 1.0),
                    ("cost", 3.76),
                    ("time_s", 1999.9),
                ],
            ),
            paper_row(
                "PZ compute",
                &[
                    ("f1", 0.9867),
                    ("recall", 0.9744),
                    ("precision", 1.0),
                    ("cost", 0.87),
                    ("time_s", 546.2),
                ],
            ),
        ],
        trials: seeds.len(),
    }
}

/// **Ablation A** (§3 physical optimization): the ContextManager's
/// materialized-Context reuse. Runs "thefts in 2001" then "thefts in 2024"
/// with reuse on vs. off; reports the second query's cost/time.
pub fn ablation_reuse(seeds: &[u64]) -> ExperimentReport {
    let mut on = (Vec::new(), Vec::new());
    let mut off = (Vec::new(), Vec::new());
    for &seed in seeds {
        for (enable, slot) in [(true, &mut on), (false, &mut off)] {
            let rt = Runtime::builder().seed(seed).context_reuse(enable).build();
            let workload = legal::generate(seed);
            workload.install_oracle(&rt.env().llm);
            let ctx = Context::builder("legal", workload.lake.clone())
                .description(workload.description.clone())
                .with_vector_index()
                .build(&rt);
            let _ = rt
                .query(&ctx)
                .compute("find the number of identity theft reports in 2001")
                .run();
            let second = rt
                .query(&ctx)
                .compute("find the number of identity theft reports in 2024")
                .run();
            slot.0.push(second.cost);
            slot.1.push(second.time);
        }
    }
    ExperimentReport {
        name: "ablation_reuse".into(),
        title: "Ablation A: ContextManager reuse (second query cost/time)".into(),
        columns: vec!["cost".into(), "time_s".into()],
        rows: vec![
            Row {
                system: "reuse on".into(),
                values: vec![
                    ("cost".into(), metrics::mean(&on.0)),
                    ("time_s".into(), metrics::mean(&on.1)),
                ],
            },
            Row {
                system: "reuse off".into(),
                values: vec![
                    ("cost".into(), metrics::mean(&off.0)),
                    ("time_s".into(), metrics::mean(&off.1)),
                ],
            },
        ],
        paper: Vec::new(),
        trials: seeds.len(),
    }
}

/// **Ablation B** (§3 physical optimization): what the cost-based model
/// selection buys. Executes the synthesized Enron program under three
/// configurations — optimizer-chosen models, all-flagship, all-nano — and
/// reports F1/cost/time of each.
pub fn ablation_optimizer(seeds: &[u64]) -> ExperimentReport {
    use aida_llm::ModelId;
    use aida_optimizer::{Optimizer, Policy};
    use aida_semops::{ExecEnv, Executor, PhysicalPlan};

    let mut slots: PrfSlots = vec![
        ("optimized", vec![], vec![], vec![]),
        ("flagship", vec![], vec![], vec![]),
        ("nano", vec![], vec![], vec![]),
    ];
    for &seed in seeds {
        let workload = enron::generate(seed);
        let ds = aida_core::ProgramSynthesizer::synthesize(&workload.query, &workload.lake);
        for (i, slot) in slots.iter_mut().enumerate() {
            let env = ExecEnv::new(aida_llm::SimLlm::new(seed));
            workload.install_oracle(&env.llm);
            let plan = match i {
                0 => {
                    let optimizer =
                        Optimizer::new(&env, aida_optimizer::OptimizerConfig::default());
                    optimizer
                        .optimize(
                            ds.plan(),
                            &Policy::MinCost {
                                quality_floor: 0.85,
                            },
                        )
                        .physical
                }
                1 => PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 8),
                _ => PhysicalPlan::uniform(ds.plan(), ModelId::Nano, 8),
            };
            let before = env.llm.meter().snapshot();
            let t0 = env.clock.now();
            let report = Executor::new(&env).execute(&plan);
            let delta = env.llm.meter().snapshot().since(&before);
            let docs: Vec<String> = report.records.iter().map(|r| r.source.clone()).collect();
            slot.1.push(enron_prf(&SystemAnswer::Docs(docs), &workload));
            slot.2.push(delta.cost(env.llm.catalog()));
            slot.3.push(env.clock.now() - t0);
        }
    }
    let rows = slots
        .into_iter()
        .map(|(name, prfs, costs, times)| Row {
            system: name.to_string(),
            values: vec![
                (
                    "f1".into(),
                    metrics::mean(&prfs.iter().map(|p| p.f1).collect::<Vec<_>>()),
                ),
                ("cost".into(), metrics::mean(&costs)),
                ("time_s".into(), metrics::mean(&times)),
            ],
        })
        .collect();
    ExperimentReport {
        name: "ablation_optimizer".into(),
        title: "Ablation B: cost-based model selection (Enron program)".into(),
        columns: vec!["f1".into(), "cost".into(), "time_s".into()],
        rows,
        paper: Vec::new(),
        trials: seeds.len(),
    }
}

/// **Ablation E** (Abacus §): how much sampling the optimizer needs.
/// Sweeps the bandit pull budget (0 = priors only) on the Enron program and
/// reports quality and total cost (sampling included).
pub fn ablation_sampling(seeds: &[u64], budgets: &[usize]) -> ExperimentReport {
    use aida_optimizer::{Optimizer, OptimizerConfig, Policy, SamplerConfig};
    use aida_semops::{ExecEnv, Executor};

    let mut rows = Vec::new();
    for &pulls in budgets {
        let mut prfs = Vec::new();
        let mut costs = Vec::new();
        let mut sampling_costs = Vec::new();
        for &seed in seeds {
            let workload = enron::generate(seed);
            let ds = aida_core::ProgramSynthesizer::synthesize(&workload.query, &workload.lake);
            let env = ExecEnv::new(aida_llm::SimLlm::new(seed));
            workload.install_oracle(&env.llm);
            let config = OptimizerConfig {
                sampler: SamplerConfig {
                    sample_records: 10,
                    bandit_pulls: pulls,
                },
                skip_sampling: pulls == 0,
                ..OptimizerConfig::default()
            };
            let optimizer = Optimizer::new(&env, config);
            let optimized = optimizer.optimize(
                ds.plan(),
                &Policy::MinCost {
                    quality_floor: 0.85,
                },
            );
            let before = env.llm.meter().snapshot();
            let report = Executor::new(&env).execute(&optimized.physical);
            let exec_cost = env
                .llm
                .meter()
                .snapshot()
                .since(&before)
                .cost(env.llm.catalog());
            let docs: Vec<String> = report.records.iter().map(|r| r.source.clone()).collect();
            prfs.push(enron_prf(&SystemAnswer::Docs(docs), &workload));
            costs.push(exec_cost + optimized.matrix.sampling_cost);
            sampling_costs.push(optimized.matrix.sampling_cost);
        }
        rows.push(Row {
            system: format!("pulls={pulls}"),
            values: vec![
                (
                    "f1".into(),
                    metrics::mean(&prfs.iter().map(|p| p.f1).collect::<Vec<_>>()),
                ),
                ("cost".into(), metrics::mean(&costs)),
                ("sampling_cost".into(), metrics::mean(&sampling_costs)),
            ],
        });
    }
    ExperimentReport {
        name: "ablation_sampling".into(),
        title: "Ablation E: optimizer sampling budget (Enron program)".into(),
        columns: vec!["f1".into(), "cost".into(), "sampling_cost".into()],
        rows,
        paper: Vec::new(),
        trials: seeds.len(),
    }
}

/// **Ablation C** (§2.1 motivation): iterator semantics vs. indexed access
/// as the lake grows. Compares a full semantic-filter scan against
/// vector-search narrowing + filter on the shortlist, at several lake
/// sizes. Rows are `scan@N` / `index@N`.
pub fn ablation_access(sizes: &[usize], seed: u64) -> ExperimentReport {
    use aida_llm::ModelId;
    use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};

    let mut rows = Vec::new();
    for &n_states in sizes {
        let workload = legal::generate_scaled(seed, n_states);
        let n_files = workload.lake.len();
        // Full scan.
        let env = ExecEnv::new(aida_llm::SimLlm::new(seed));
        workload.install_oracle(&env.llm);
        let ds = Dataset::scan(&workload.lake, "legal").sem_filter(
            "the file contains national statistics on the number of identity theft reports, \
             covering both the years 2001 and 2024",
        );
        let report =
            Executor::new(&env).execute(&PhysicalPlan::uniform(ds.plan(), ModelId::Flagship, 8));
        rows.push(Row {
            system: format!("scan@{n_files}"),
            values: vec![
                ("cost".into(), report.cost()),
                ("time_s".into(), report.time()),
                ("llm_calls".into(), report.stats.total_calls() as f64),
            ],
        });
        // Index-narrowed access through a Context.
        let rt = Runtime::builder().seed(seed).build();
        workload.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", workload.lake.clone())
            .with_vector_index()
            .build(&rt);
        let before = rt.usage();
        let t0 = rt.elapsed();
        let shortlist = ctx.vector_search(&rt, "national identity theft reports by year", 8);
        let docs: Vec<_> = shortlist
            .iter()
            .filter_map(|name| workload.lake.get(name))
            .map(|d| d.as_ref().clone())
            .collect();
        let narrowed = aida_data::DataLake::from_docs(docs);
        let ds = Dataset::scan(&narrowed, "shortlist").sem_filter(
            "the file contains national statistics on the number of identity theft reports, \
             covering both the years 2001 and 2024",
        );
        let report = Executor::new(rt.env()).execute(&PhysicalPlan::uniform(
            ds.plan(),
            ModelId::Flagship,
            8,
        ));
        let delta = rt.usage().since(&before);
        rows.push(Row {
            system: format!("index@{n_files}"),
            values: vec![
                ("cost".into(), delta.cost(rt.env().llm.catalog())),
                ("time_s".into(), rt.elapsed() - t0),
                ("llm_calls".into(), report.stats.total_calls() as f64),
            ],
        });
    }
    ExperimentReport {
        name: "ablation_access".into(),
        title: "Ablation C: full-scan vs. index-narrowed access by lake size".into(),
        columns: vec!["cost".into(), "time_s".into(), "llm_calls".into()],
        rows,
        paper: Vec::new(),
        trials: 1,
    }
}

/// **Ablation D** (§3 logical optimization): directive splitting. Runs the
/// legal ratio compute with and without the split/merge rewrites.
pub fn ablation_rewrite(seeds: &[u64]) -> ExperimentReport {
    let mut on = (Vec::new(), Vec::new(), Vec::new());
    let mut off = (Vec::new(), Vec::new(), Vec::new());
    for &seed in seeds {
        for (enable, slot) in [(true, &mut on), (false, &mut off)] {
            let rt = Runtime::builder().seed(seed).build();
            let workload = legal::generate(seed);
            workload.install_oracle(&rt.env().llm);
            let ctx = Context::builder("legal", workload.lake.clone())
                .description(workload.description.clone())
                .with_vector_index()
                .build(&rt);
            let outcome = rt
                .query(&ctx)
                .compute(&workload.query)
                .with_rewrites(enable)
                .run();
            let err = legal_error(&SystemAnswer::from_value(outcome.answer));
            slot.0.push(err);
            slot.1.push(outcome.cost);
            slot.2.push(outcome.time);
        }
    }
    let row = |name: &str, s: &(Vec<f64>, Vec<f64>, Vec<f64>)| Row {
        system: name.to_string(),
        values: vec![
            ("pct_err".into(), metrics::mean(&s.0)),
            ("cost".into(), metrics::mean(&s.1)),
            ("time_s".into(), metrics::mean(&s.2)),
        ],
    };
    ExperimentReport {
        name: "ablation_rewrite".into(),
        title: "Ablation D: split/merge rewrites on the legal ratio query".into(),
        columns: vec!["pct_err".into(), "cost".into(), "time_s".into()],
        rows: vec![row("rewrites on", &on), row("rewrites off", &off)],
        paper: Vec::new(),
        trials: seeds.len(),
    }
}

/// **Figure 1**: qualitative per-system traces on both workloads.
pub fn figure1(seed: u64) -> String {
    let mut out = String::from(
        "# Figure 1 — execution traces\n\n\
         ## Left: Kramabench legal-easy-3 (ratio of identity theft reports 2024/2001)\n\n",
    );
    let legal_w = legal::generate(seed);
    let semops = run_semops_handcrafted(&legal_w, seed);
    out += &format!(
        "### Handcrafted semantic-operator program (err {:.1}%, ${:.2}, {:.0}s)\n{}\n",
        legal_error(&semops.answer) * 100.0,
        semops.cost,
        semops.time,
        semops.detail
    );
    let compute = run_pz_compute(&legal_w, seed);
    out += &format!(
        "### Prototype compute operator (err {:.2}%, ${:.2}, {:.0}s)\n{}\n",
        legal_error(&compute.answer) * 100.0,
        compute.cost,
        compute.time,
        compute.detail
    );
    out += "\n## Right: Enron email filtering (firsthand transaction discussion)\n\n";
    let enron_w = enron::generate(seed);
    let agent = run_code_agent(&enron_w, seed, false);
    let prf = enron_prf(&agent.answer, &enron_w);
    out += &format!(
        "### Open Deep Research CodeAgent (F1 {:.1}%, recall {:.1}%, ${:.2}, {:.0}s)\n{}\n",
        prf.f1 * 100.0,
        prf.recall * 100.0,
        agent.cost,
        agent.time,
        agent.detail
    );
    let compute = run_pz_compute(&enron_w, seed);
    let prf = enron_prf(&compute.answer, &enron_w);
    out += &format!(
        "### Prototype compute operator (F1 {:.1}%, recall {:.1}%, ${:.2}, {:.0}s)\n{}\n",
        prf.f1 * 100.0,
        prf.recall * 100.0,
        compute.cost,
        compute.time,
        compute.detail
    );
    out
}

/// **Figure 2**: the search → compute pipeline over a Context, with the
/// Context description before/after each operator.
pub fn figure2(seed: u64) -> String {
    figure2_traced(seed).0
}

/// Like [`figure2`], but with span tracing enabled; returns the recorder
/// alongside the rendered figure. Recording never touches the clock or
/// meter, so the rendered text is identical to the untraced run.
pub fn figure2_traced(seed: u64) -> (String, aida_obs::Recorder) {
    let rt = Runtime::builder().seed(seed).tracing(true).build();
    let workload = legal::generate(seed);
    workload.install_oracle(&rt.env().llm);
    let ctx = Context::builder("legal", workload.lake.clone())
        .description(workload.description.clone())
        .with_vector_index()
        .build(&rt);
    let mut out = String::from("# Figure 2 — a PZ program and its physical plan\n\n");
    out += &format!(
        "Initial Context: {} docs\ndescription: {}\n\n",
        ctx.len(),
        ctx.description
    );
    out += "Logical pipeline:\n  ctx = Context(legal_lake, desc=..., index=vector)\n  \
            ctx = ctx.search(\"look for information on identity thefts\")\n  \
            out = ctx.compute(\"compute the number of identity theft reports in 2024\")\n\n";
    let outcome = rt
        .query(&ctx)
        .search("look for information on identity thefts")
        .compute("compute the number of identity theft reports in 2024")
        .run();
    for t in &outcome.trace {
        out += &format!(
            "== {} \"{}\" (reused={}, {} agent steps, ${:.3}, {:.0}s)\n",
            t.op, t.instruction, t.reused, t.agent_steps, t.cost, t.time
        );
        for p in &t.programs {
            out += &format!("  synthesized program for {:?}:\n", p.instruction);
            for line in p.plan.lines() {
                out += &format!("    {line}\n");
            }
            out += &format!("  -> {} records\n", p.records.len());
        }
    }
    out += &format!(
        "\nFinal Context: {} docs\ndescription (enriched): {}\n",
        outcome.context.len(),
        outcome.context.description
    );
    out += &format!(
        "\nanswer: {}   (total ${:.3}, {:.0}s)\n",
        outcome
            .answer
            .map(|v| v.to_string())
            .unwrap_or_else(|| "<none>".into()),
        outcome.cost,
        outcome.time
    );
    (out, rt.recorder().clone())
}

fn paper_row(system: &str, values: &[(&str, f64)]) -> Row {
    Row {
        system: system.to_string(),
        values: values.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_lookup() {
        let row = paper_row("x", &[("a", 1.0)]);
        assert_eq!(row.get("a"), Some(1.0));
        assert_eq!(row.get("b"), None);
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = ExperimentReport {
            name: "t".into(),
            title: "Test".into(),
            columns: vec!["m".into()],
            rows: vec![paper_row("sys", &[("m", 0.5)])],
            paper: vec![paper_row("sys", &[("m", 0.6)])],
            trials: 3,
        };
        let text = report.render();
        assert!(text.contains("sys"));
        assert!(text.contains("0.5"));
        assert!(text.contains("Paper reported"));
        let json = report.to_json().render();
        assert!(json.contains("\"system\":\"sys\""));
    }

    // Single-trial smoke runs of the table experiments (the full 3-trial
    // versions run in aida-bench binaries).
    #[test]
    fn table1_single_trial_shape_holds() {
        let report = table1(&[1]);
        let semops = report.row("Sem. Ops").unwrap();
        let agent = report.row("CodeAgent").unwrap();
        let compute = report.row("PZ compute").unwrap();
        // Quality: compute best.
        assert!(
            compute.get("pct_err").unwrap() <= semops.get("pct_err").unwrap() + 1e-9,
            "compute {} vs semops {}",
            compute.get("pct_err").unwrap(),
            semops.get("pct_err").unwrap()
        );
        // Cost: agent cheapest.
        assert!(agent.get("cost").unwrap() < compute.get("cost").unwrap());
        assert!(agent.get("cost").unwrap() < semops.get("cost").unwrap());
        // Time: agent fastest.
        assert!(agent.get("time_s").unwrap() < compute.get("time_s").unwrap());
    }

    #[test]
    fn table2_single_trial_shape_holds() {
        let report = table2(&[1]);
        let agent = report.row("CodeAgent").unwrap();
        let plus = report.row("CodeAgent+").unwrap();
        let compute = report.row("PZ compute").unwrap();
        // Quality: compute and CodeAgent+ far above plain CodeAgent.
        assert!(compute.get("f1").unwrap() > agent.get("f1").unwrap() + 0.2);
        assert!(plus.get("f1").unwrap() > agent.get("f1").unwrap() + 0.2);
        // Cost/time: compute much cheaper and faster than CodeAgent+.
        assert!(compute.get("cost").unwrap() < plus.get("cost").unwrap() * 0.6);
        assert!(compute.get("time_s").unwrap() < plus.get("time_s").unwrap() * 0.6);
    }

    #[test]
    fn ablation_reuse_single_trial_saves() {
        let report = ablation_reuse(&[1]);
        let on = report.row("reuse on").unwrap().get("cost").unwrap();
        let off = report.row("reuse off").unwrap().get("cost").unwrap();
        assert!(on < off, "reuse on ${on} vs off ${off}");
    }
}

#[cfg(test)]
mod figure_tests {
    #[test]
    fn figure1_trace_contains_all_four_systems() {
        let text = super::figure1(1);
        assert!(text.contains("Handcrafted semantic-operator program"));
        assert!(text.contains("Open Deep Research CodeAgent"));
        assert!(text.contains("Prototype compute operator"));
        assert!(text.contains("physical plan"));
        assert!(text.contains("final_answer"));
        assert!(
            text.len() > 2_000,
            "trace should be substantial: {}",
            text.len()
        );
    }

    #[test]
    fn figure2_shows_pipeline_and_enrichment() {
        let text = super::figure2(1);
        assert!(text.contains("search"));
        assert!(text.contains("compute"));
        assert!(text.contains("FINDINGS"));
        assert!(text.contains("1135291"), "the answer appears in the trace");
        assert!(text.contains("synthesized program"));
    }
}
