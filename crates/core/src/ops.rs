//! The agentic `search` and `compute` operators.
//!
//! Both are logical operators over a [`Context`], physically implemented
//! with a CodeAgent whose toolbox contains the Context's access methods
//! (iteration via `read_file`/`list_files`, vector search, key lookups,
//! user tools) **plus** [`run_semantic_program`] — the bridge to optimized
//! semantic-operator execution.
//!
//! * `search(instruction)` hunts for information and materializes a new
//!   Context: a narrowed lake plus a description enriched with a summary
//!   of what it found.
//! * `compute(instruction)` produces a concrete answer, also materializing
//!   its findings (records become a SQL table; the Context is registered
//!   with the ContextManager for reuse).
//!
//! [`run_semantic_program`]: crate::program::run_semantic_program_tool

use crate::context::Context;
use crate::program::{self, ProgramRun, ProgramTrace};
use crate::runtime::Runtime;
use aida_agents::policy::{task_years, PolicyAction, PolicyContext};
use aida_agents::{
    AgentConfig, AgentPolicy, AgentRuntime, CodeAgent, FnTool, ToolRegistry, ToolSpec,
};
use aida_data::{DataLake, Record, Value};
use aida_llm::{noise, ModelId, UsageSnapshot};
use aida_obs::{clip, clipped, Event, SpanKind};
use aida_script::ScriptValue;
use std::collections::HashSet;
use std::sync::Arc;

/// The model the agentic operators plan (and the rewriter chooses) with.
pub(crate) const AGENT_MODEL: ModelId = ModelId::Flagship;

/// Max steps per agentic operator.
const AGENT_MAX_STEPS: usize = 8;

/// Similarity threshold for Context reuse.
const REUSE_THRESHOLD: f32 = 0.80;

/// A logical agentic operator.
#[derive(Debug, Clone, PartialEq)]
pub enum AgenticOp {
    /// Find information and enrich the Context.
    Search(String),
    /// Produce a concrete output.
    Compute(String),
}

impl AgenticOp {
    /// The operator's instruction.
    pub fn instruction(&self) -> &str {
        match self {
            AgenticOp::Search(i) | AgenticOp::Compute(i) => i,
        }
    }

    /// Operator name.
    pub fn name(&self) -> &'static str {
        match self {
            AgenticOp::Search(_) => "search",
            AgenticOp::Compute(_) => "compute",
        }
    }
}

/// A pipeline's operator names joined by `+`: its query span's name.
struct PipelineName<'a>(&'a [AgenticOp]);

impl std::fmt::Display for PipelineName<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, op) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            f.write_str(op.name())?;
        }
        Ok(())
    }
}

/// Trace of one executed agentic operator.
#[derive(Debug, Clone)]
pub struct OpTrace {
    /// `search` or `compute`.
    pub op: String,
    /// The instruction.
    pub instruction: String,
    /// Whether a materialized Context satisfied/narrowed the operator.
    pub reused: bool,
    /// Programs the agent ran through `run_semantic_program`.
    pub programs: Vec<ProgramRun>,
    /// Steps the agent took.
    pub agent_steps: usize,
    /// What this operator billed.
    pub receipt: UsageSnapshot,
    /// Dollars this operator spent (the receipt's cost).
    pub cost: f64,
    /// Virtual seconds this operator took.
    pub time: f64,
}

/// The result of running an agentic pipeline.
#[derive(Debug, Clone)]
pub struct ComputeOutcome {
    /// The final compute answer, if any.
    pub answer: Option<Value>,
    /// The final materialized Context.
    pub context: Context,
    /// Everything the run billed: the operators' receipts plus the
    /// rewrite judge's, when rewrites are on.
    pub receipt: UsageSnapshot,
    /// Total dollars the operators spent (the rewrite judge's call is
    /// not among them).
    pub cost: f64,
    /// Total virtual seconds.
    pub time: f64,
    /// Per-operator traces.
    pub trace: Vec<OpTrace>,
}

/// A pipeline of agentic operators over a Context.
#[derive(Clone)]
pub struct Query {
    runtime: Runtime,
    ctx: Context,
    ops: Vec<AgenticOp>,
    apply_rewrites: bool,
}

impl Query {
    pub(crate) fn new(runtime: Runtime, ctx: Context) -> Self {
        Query {
            runtime,
            ctx,
            ops: Vec::new(),
            apply_rewrites: false,
        }
    }

    /// Appends a `search` operator.
    pub fn search(mut self, instruction: impl Into<String>) -> Self {
        self.ops.push(AgenticOp::Search(instruction.into()));
        self
    }

    /// Appends a `compute` operator.
    pub fn compute(mut self, instruction: impl Into<String>) -> Self {
        self.ops.push(AgenticOp::Compute(instruction.into()));
        self
    }

    /// Enables the logical rewrites (split/merge) before execution.
    pub fn with_rewrites(mut self, enable: bool) -> Self {
        self.apply_rewrites = enable;
        self
    }

    /// The pipeline's operators.
    pub fn ops(&self) -> &[AgenticOp] {
        &self.ops
    }

    /// Runs the pipeline.
    pub fn run(self) -> ComputeOutcome {
        // The query span opens before the rewrites so the rewrite judge's
        // LLM calls land inside it (as its own direct events).
        let span = self.runtime.env().recorder.span(
            SpanKind::Query,
            PipelineName(&self.ops),
            self.runtime.env().clock.now(),
        );
        let mut receipt = UsageSnapshot::default();
        let ops = if self.apply_rewrites {
            span.attr("rewrites", "on");
            crate::rewrite::optimize_pipeline(&self.runtime, self.ops.clone(), &mut receipt)
        } else {
            self.ops.clone()
        };
        let t0 = self.runtime.env().clock.now();

        let mut ctx = self.ctx.clone();
        let mut answer: Option<Value> = None;
        let mut trace: Vec<OpTrace> = Vec::new();
        for (idx, op) in ops.iter().enumerate() {
            let (next_ctx, op_answer, op_trace) = run_op(&self.runtime, &ctx, op, idx as u64);
            ctx = next_ctx;
            if let AgenticOp::Compute(_) = op {
                answer = op_answer;
            }
            trace.push(op_trace);
        }

        // Dynamic adaptation (§3): a compute that produced nothing (no
        // answer, or an explicit null) gets a search inserted in front of
        // it and one retry.
        let failed = answer.as_ref().is_none_or(|v| v.is_null());
        if failed && !ops.is_empty() {
            if let Some(AgenticOp::Compute(instr)) = ops.last() {
                let (searched_ctx, _, search_trace) = run_op(
                    &self.runtime,
                    &ctx,
                    &AgenticOp::Search(instr.clone()),
                    1_000,
                );
                trace.push(search_trace);
                let (final_ctx, retry_answer, retry_trace) = run_op(
                    &self.runtime,
                    &searched_ctx,
                    &AgenticOp::Compute(instr.clone()),
                    1_001,
                );
                ctx = final_ctx;
                answer = retry_answer;
                trace.push(retry_trace);
            }
        }

        let mut ops_receipt = UsageSnapshot::default();
        for op_trace in &trace {
            ops_receipt.add(&op_trace.receipt);
        }
        receipt.add(&ops_receipt);
        span.finish(self.runtime.env().clock.now());
        ComputeOutcome {
            answer,
            context: ctx,
            receipt,
            cost: ops_receipt.cost(self.runtime.env().llm.catalog()),
            time: self.runtime.env().clock.now() - t0,
            trace,
        }
    }
}

/// What the ContextManager offers an operator (§3 physical optimization).
enum Reuse {
    /// No usable materialized Context.
    Miss,
    /// A search hit: the reused Context is the operator's output.
    Skip(Context),
    /// A compute hit: the narrower reused Context becomes its input.
    Narrow(Context),
}

/// Looks `instruction` up among the materialized Contexts and reports the
/// verdict to the recorder.
fn lookup_reuse(runtime: &Runtime, op: &AgenticOp, instruction: &str, ctx: &Context) -> Reuse {
    if !runtime.config().enable_context_reuse {
        return Reuse::Miss;
    }
    let recorder = &runtime.env().recorder;
    let (hit, similarity) = runtime.manager().reuse_scored(instruction, REUSE_THRESHOLD);
    if recorder.is_enabled() {
        match &hit {
            Some(_) => {
                recorder.event(Event::ReuseHit {
                    instruction: clip(instruction, 120),
                    similarity: similarity as f64,
                });
                recorder.counter_add(aida_obs::registry::CONTEXT_REUSE_HITS, 1);
            }
            None => {
                recorder.event(Event::ReuseMiss {
                    instruction: clip(instruction, 120),
                    best_similarity: similarity as f64,
                });
                recorder.counter_add(aida_obs::registry::CONTEXT_REUSE_MISSES, 1);
            }
        }
    }
    match (hit, op) {
        (None, _) => Reuse::Miss,
        (Some(hit), AgenticOp::Search(_)) => Reuse::Skip(hit.context),
        (Some(hit), AgenticOp::Compute(_))
            if !hit.context.is_empty() && hit.context.len() < ctx.len() =>
        {
            Reuse::Narrow(hit.context)
        }
        (Some(_), AgenticOp::Compute(_)) => Reuse::Miss,
    }
}

fn run_op(
    runtime: &Runtime,
    input_ctx: &Context,
    op: &AgenticOp,
    idx: u64,
) -> (Context, Option<Value>, OpTrace) {
    let instruction = op.instruction().to_string();
    let t0 = runtime.env().clock.now();
    let span = runtime
        .env()
        .recorder
        .span(SpanKind::AgenticOp, op.name(), t0);
    span.attr("instruction", clipped(&instruction, 80));

    // A search hit is a full skip; a compute hit narrows the input Context.
    let (ctx, reused) = match lookup_reuse(runtime, op, &instruction, input_ctx) {
        Reuse::Skip(context) => {
            let trace = OpTrace {
                op: op.name().into(),
                instruction,
                reused: true,
                programs: Vec::new(),
                agent_steps: 0,
                receipt: UsageSnapshot::default(),
                cost: 0.0,
                time: runtime.env().clock.now() - t0,
            };
            span.attr("reused", "true");
            span.rows(input_ctx.len(), context.len());
            span.finish(runtime.env().clock.now());
            return (context, None, trace);
        }
        Reuse::Narrow(context) => (context, true),
        Reuse::Miss => (input_ctx.clone(), false),
    };

    // Assemble the toolbox: Context access methods + program synthesis.
    let program_trace = ProgramTrace::new();
    let mut registry = ToolRegistry::new();
    for tool in ctx.lake_tools().tools() {
        registry.register(Arc::clone(tool));
    }
    for tool in context_access_tools(runtime, &ctx) {
        registry.register(tool);
    }
    for spec_tool in ctx.tools().specs() {
        if let Some(tool) = ctx.tools().get(&spec_tool.name) {
            registry.register(Arc::clone(tool));
        }
    }
    registry.register(program::run_semantic_program_tool(
        runtime,
        ctx.lake(),
        &program_trace,
    ));

    let mode = match op {
        AgenticOp::Search(_) => OpMode::Search,
        AgenticOp::Compute(_) => OpMode::Compute,
    };
    let agent = CodeAgent::with_policy(
        AgentConfig {
            model: AGENT_MODEL,
            max_steps: AGENT_MAX_STEPS,
            persona: aida_agents::Persona {
                // The agentic operators are disciplined: their exhaustive
                // work is delegated to optimized programs.
                shortcut_bias: 0.0,
                premature_stop: 0.0,
                verify_budget: 4,
            },
            seed: noise::combine(&[runtime.config().seed, idx, noise::hash_str(&instruction)]),
        },
        Box::new(AgenticOpPolicy {
            instruction: instruction.clone(),
            mode,
        }),
    );
    let agent_runtime = AgentRuntime::sharing(
        runtime.env(),
        registry,
        Some(ctx.lake().clone()),
        runtime.step_cache().clone(),
    );
    let outcome = agent_runtime.run(&agent, &instruction);

    // Materialize: narrowed lake + enriched description + findings table.
    let programs = program_trace.take();
    let records: Vec<&Record> = programs.iter().flat_map(|run| &run.records).collect();
    let narrowed = narrowed_lake(ctx.lake(), &records);
    let summary = findings_summary(&instruction, &records);
    let new_id = format!("{}/{}", ctx.id, runtime.manager().len() + 1);
    let findings = if records.is_empty() {
        None
    } else {
        Some(program::findings_table(&records))
    };
    if let Some(table) = &findings {
        runtime.register_table(&runtime.next_table_name(), table.clone());
    }
    let description = if summary.is_empty() {
        ctx.description.clone()
    } else {
        format!("{}\n{summary}", ctx.description)
    };
    let new_ctx = ctx.materialize(new_id, description, narrowed, findings.clone());

    let receipt = outcome.receipt;
    let cost = receipt.cost(runtime.env().llm.catalog());
    runtime
        .manager()
        .register(&instruction, new_ctx.clone(), cost);
    runtime.note_agentic_op();

    if reused {
        span.attr("reused", "true");
    }
    span.rows(input_ctx.len(), new_ctx.len());
    span.finish(runtime.env().clock.now());

    let trace = OpTrace {
        op: op.name().into(),
        instruction,
        reused,
        programs,
        agent_steps: outcome.steps.len(),
        receipt,
        cost,
        time: runtime.env().clock.now() - t0,
    };
    (new_ctx, outcome.answer, trace)
}

/// The documents of `lake` that are origins of `records` (the same
/// document, not one of the same name), in name order.
fn narrowed_lake(lake: &DataLake, records: &[&Record]) -> Option<DataLake> {
    let origins: HashSet<_> = records
        .iter()
        .filter_map(|r| r.origin().map(Arc::as_ptr))
        .collect();
    let mut docs: Vec<_> = lake
        .docs()
        .iter()
        .filter(|d| origins.contains(&Arc::as_ptr(d)))
        .collect();
    docs.sort_unstable_by(|a, b| a.name.cmp(&b.name));
    (!docs.is_empty()).then(|| DataLake::from_arcs(docs.into_iter().cloned()))
}

fn findings_summary(instruction: &str, records: &[&Record]) -> String {
    if records.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "FINDINGS for \"{instruction}\" ({} records):",
        records.len()
    );
    for rec in records.iter().take(6) {
        let mut line = format!("\n- {}: ", rec.source());
        let fields: Vec<String> = rec
            .iter()
            .filter(|(n, _)| *n != "contents")
            .map(|(n, v)| {
                let rendered: String = v.to_string().chars().take(80).collect();
                format!("{n}={rendered}")
            })
            .collect();
        line.push_str(&fields.join(", "));
        out.push_str(&line);
    }
    if records.len() > 6 {
        out.push_str(&format!("\n- … and {} more", records.len() - 6));
    }
    out
}

/// Access-method tools derived from the Context (vector search + lookups).
fn context_access_tools(runtime: &Runtime, ctx: &Context) -> Vec<Arc<dyn aida_agents::Tool>> {
    let mut tools: Vec<Arc<dyn aida_agents::Tool>> = Vec::new();
    let rt = runtime.clone();
    let vctx = ctx.clone();
    tools.push(Arc::new(FnTool::new(
        ToolSpec::new(
            "vector_search",
            "vector_search(query: str, k: int) -> list[str]",
            "embedding similarity search over the context; returns top-k file names",
        ),
        move |args| {
            let query = args
                .first()
                .ok_or_else(|| aida_script::ScriptError::host("vector_search needs a query"))?
                .as_str()?;
            let k = args
                .get(1)
                .map(|v| v.as_int())
                .transpose()?
                .unwrap_or(5)
                .max(1) as usize;
            Ok(ScriptValue::list(
                vctx.vector_search(&rt, query, k)
                    .into_iter()
                    .map(ScriptValue::str)
                    .collect(),
            ))
        },
    )));
    let kctx = ctx.clone();
    tools.push(Arc::new(FnTool::new(
        ToolSpec::new(
            "lookup",
            "lookup(key: str) -> list[str]",
            "exact key-based point lookup registered on the context",
        ),
        move |args| {
            let key = args
                .first()
                .ok_or_else(|| aida_script::ScriptError::host("lookup needs a key"))?
                .as_str()?;
            Ok(ScriptValue::list(
                kctx.lookup(key)
                    .iter()
                    .map(|n| ScriptValue::str(n.clone()))
                    .collect(),
            ))
        },
    )));
    tools
}

// --------------------------------------------------------------------
// The operators' planning policy
// --------------------------------------------------------------------

enum OpMode {
    Search,
    Compute,
}

struct AgenticOpPolicy {
    instruction: String,
    mode: OpMode,
}

fn sanitize(text: &str) -> String {
    text.replace(['"', '\n'], " ")
}

impl AgentPolicy for AgenticOpPolicy {
    fn next_step(&self, ctx: &PolicyContext<'_>) -> PolicyAction {
        let instr = sanitize(&self.instruction);
        match self.mode {
            OpMode::Search => match ctx.step {
                0 => {
                    let explore = if ctx.has_tool("vector_search") {
                        format!("cands = vector_search(\"{instr}\", 8)\nprint(cands)")
                    } else {
                        format!("cands = search_keywords(\"{instr}\", 8)\nprint(cands)")
                    };
                    PolicyAction::Code(explore)
                }
                1 => {
                    PolicyAction::Code(format!("rs = run_semantic_program(\"{instr}\")\nprint(rs)"))
                }
                2 => PolicyAction::Code("final_answer(len(rs))".to_string()),
                _ => PolicyAction::Done,
            },
            OpMode::Compute => self.compute_step(ctx, &instr),
        }
    }
}

impl AgenticOpPolicy {
    fn compute_step(&self, ctx: &PolicyContext<'_>, instr: &str) -> PolicyAction {
        let lower = instr.to_ascii_lowercase();
        let years = task_years(instr);
        if lower.contains("ratio") && years.len() >= 2 {
            let (hi, lo) = {
                let mut ys = years.clone();
                ys.sort_unstable();
                (ys[ys.len() - 1], ys[0])
            };
            let phrase = crate::program::number_of_phrase(instr)
                .unwrap_or_else(|| "relevant reports".to_string());
            return match ctx.step {
                0 => PolicyAction::Code(format!(
                    "r_hi = run_semantic_program(\"find the number of {phrase} in {hi}\")\nprint(r_hi)"
                )),
                1 => PolicyAction::Code(format!(
                    "r_lo = run_semantic_program(\"find the number of {phrase} in {lo}\")\nprint(r_lo)"
                )),
                2 => PolicyAction::Code(
                    r#"def pick(rs):
    for r in rs:
        v = r.get('value')
        if v != None:
            return float(v)
    return 0.0
a = pick(r_hi)
b = pick(r_lo)
if b != 0:
    final_answer(a / b)
"#
                    .to_string(),
                ),
                _ => PolicyAction::Done,
            };
        }
        if lower.contains("filter") || lower.contains("email") {
            return match ctx.step {
                0 => PolicyAction::Code(format!(
                    "rs = run_semantic_program(\"{instr}\")\nnames = []\nfor r in rs:\n    names.append(r[\"source\"])\nprint(names)"
                )),
                1 => PolicyAction::Code("final_answer(names)".to_string()),
                _ => PolicyAction::Done,
            };
        }
        match ctx.step {
            0 => PolicyAction::Code(format!("rs = run_semantic_program(\"{instr}\")\nprint(rs)")),
            1 => PolicyAction::Code(
                // Prefer a concrete extracted value; fall back to the
                // matching sources, then to the raw records.
                r#"if len(rs) > 0:
    v = rs[0].get('value')
    if v != None and len(str(v)) > 0:
        final_answer(v)
    else:
        names = []
        for r in rs:
            names.append(r['source'])
        final_answer(names)
else:
    final_answer(None)
"#
                .to_string(),
            ),
            _ => PolicyAction::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_synth::{enron, legal};

    fn legal_runtime(seed: u64) -> (Runtime, Context) {
        let rt = Runtime::builder().seed(seed).build();
        let w = legal::generate(seed);
        w.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", w.lake.clone())
            .description(w.description.clone())
            .with_vector_index()
            .build(&rt);
        (rt, ctx)
    }

    #[test]
    fn compute_answers_the_legal_ratio_query() {
        let (rt, ctx) = legal_runtime(11);
        let outcome = rt.query(&ctx).compute(legal::QUERY).run();
        let answer = outcome.answer.expect("compute should produce an answer");
        let ratio = answer.as_float().unwrap();
        let truth = legal::true_ratio();
        let err = (ratio - truth).abs() / truth;
        assert!(err < 0.05, "ratio {ratio} vs truth {truth} (err {err})");
        assert!(outcome.cost > 0.0);
        assert!(outcome.time > 0.0);
        // Two synthesized programs: one per year.
        assert!(outcome.trace[0].programs.len() >= 2);
    }

    #[test]
    fn search_then_compute_narrows_the_context() {
        let (rt, ctx) = legal_runtime(13);
        let outcome = rt
            .query(&ctx)
            .search("look for information on identity theft reports")
            .compute(legal::QUERY)
            .run();
        assert!(outcome.answer.is_some());
        // The search's materialized context is much smaller than the lake.
        let search_trace = &outcome.trace[0];
        assert_eq!(search_trace.op, "search");
        assert!(!search_trace.programs.is_empty());
        assert!(outcome.context.description.contains("FINDINGS"));
        assert!(outcome.context.len() < 132);
        // Narrowing keeps the input's own documents (and their memoized
        // text, token counts and hashes), never a copy or a namesake: the
        // search's Context narrows `ctx`, and the compute's narrows that.
        let searched = rt.manager().find_similar(&search_trace.instruction);
        let searched = searched.unwrap().0.context;
        for narrowed in [&searched, &outcome.context] {
            assert!(!narrowed.lake().is_empty());
            for doc in narrowed.lake().docs() {
                assert!(ctx.lake().docs().iter().any(|d| Arc::ptr_eq(doc, d)));
            }
        }
    }

    #[test]
    fn operators_build_no_keyword_index() {
        // Neither operator's policy calls `search_keywords` on a Context
        // with a vector index, so no query may pay for a BM25 build —
        // not on the input Context, not on what it materializes.
        let (rt, ctx) = legal_runtime(13);
        assert_eq!(ctx.len(), 132);
        let computed = rt.query(&ctx).compute(legal::QUERY).run();
        let search = "look for information on identity theft reports";
        let searched = rt.query(&ctx).search(search).compute(legal::QUERY).run();
        let narrowed = rt.manager().find_similar(search).unwrap().0.context;
        assert!(narrowed.len() < ctx.len());
        for c in [&ctx, &computed.context, &searched.context, &narrowed] {
            assert!(c.lake_tools().keyword_index().is_none(), "{c:?}");
        }
    }

    #[test]
    fn compute_answers_the_enron_filter_query() {
        let rt = Runtime::builder().seed(1).build();
        let w = enron::generate(1);
        w.install_oracle(&rt.env().llm);
        let ctx = Context::builder("enron", w.lake.clone())
            .description(w.description.clone())
            .build(&rt);
        let outcome = rt.query(&ctx).compute(&w.query).run();
        let answer = outcome.answer.expect("filter compute answers");
        let names: Vec<String> = answer
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap().to_string())
            .collect();
        let truth: std::collections::HashSet<&str> = w
            .truth
            .as_doc_set()
            .unwrap()
            .iter()
            .map(String::as_str)
            .collect();
        let hits = names.iter().filter(|n| truth.contains(n.as_str())).count();
        let recall = hits as f64 / truth.len() as f64;
        let precision = if names.is_empty() {
            0.0
        } else {
            hits as f64 / names.len() as f64
        };
        assert!(recall > 0.9, "recall {recall}");
        assert!(precision > 0.9, "precision {precision}");
    }

    #[test]
    fn context_reuse_makes_second_query_cheaper() {
        let (rt, ctx) = legal_runtime(17);
        let first = rt
            .query(&ctx)
            .compute("find the number of identity theft reports in 2001")
            .run();
        let cost_before = rt.cost();
        let second = rt
            .query(&ctx)
            .compute("find the number of identity theft reports in 2024")
            .run();
        let second_cost = rt.cost() - cost_before;
        assert!(second.answer.is_some());
        assert!(
            second_cost < first.cost,
            "reuse should cut cost: first ${:.4}, second ${second_cost:.4}",
            first.cost
        );
        assert!(
            second.trace.iter().any(|t| t.reused),
            "compute should reuse"
        );
    }

    #[test]
    fn findings_become_sql_tables() {
        let (rt, ctx) = legal_runtime(19);
        let _ = rt.query(&ctx).compute(legal::QUERY).run();
        let tables = rt.table_names();
        assert!(!tables.is_empty(), "compute materializes tables");
        let out = rt
            .sql(&format!("SELECT COUNT(*) AS n FROM {}", tables[0]))
            .unwrap();
        assert!(out.cell(0, "n").unwrap().as_int().unwrap() >= 1);
    }

    #[test]
    fn failing_compute_triggers_search_retry() {
        // A small lake that cannot answer the question, judged with the
        // flagship everywhere so noise FPs don't sneak an answer through:
        // the programs return nothing, the divide guard withholds the
        // answer, and the runtime inserts a search + retry (§3 dynamic
        // adaptation).
        let rt = Runtime::builder()
            .seed(23)
            .policy(aida_optimizer::Policy::MaxQuality { cost_budget: None })
            .build();
        let lake = aida_data::DataLake::from_docs((0..5).map(|i| {
            aida_data::Document::new(format!("memo{i}.txt"), "cafeteria menu for the week")
                .with_label("difficulty", 0.0)
        }));
        let ctx = Context::builder("memos", lake).build(&rt);
        let query = "What is the ratio between the number of unicorn sightings in 2024 and \
                     the number of unicorn sightings in 2001?";
        let outcome = rt.query(&ctx).compute(query).run();
        let ops: Vec<&str> = outcome.trace.iter().map(|t| t.op.as_str()).collect();
        assert!(
            ops.windows(2).any(|w| w == ["search", "compute"]),
            "retry inserts a search before the compute: {ops:?}"
        );
    }

    #[test]
    fn reuse_can_be_disabled() {
        let rt = Runtime::builder().seed(17).context_reuse(false).build();
        let w = legal::generate(17);
        w.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", w.lake.clone())
            .description(w.description.clone())
            .build(&rt);
        let _ = rt
            .query(&ctx)
            .compute("find the number of identity theft reports in 2001")
            .run();
        let second = rt
            .query(&ctx)
            .compute("find the number of identity theft reports in 2024")
            .run();
        assert!(second.trace.iter().all(|t| !t.reused));
    }

    #[test]
    fn agentic_operators_share_the_runtimes_step_cache() {
        let rt = Runtime::builder().seed(17).context_reuse(false).build();
        let w = legal::generate(17);
        w.install_oracle(&rt.env().llm);
        let ctx = Context::builder("legal", w.lake.clone())
            .description(w.description.clone())
            .build(&rt);
        let first = rt.query(&ctx).compute(legal::QUERY).run();
        let compiled = rt.step_cache().len();
        assert!(
            compiled > 0,
            "the operator's agent compiled through the cache"
        );
        // A clone is the same runtime: the repeated question's agent finds
        // every step compiled and adds nothing.
        let second = rt.clone().query(&ctx).compute(legal::QUERY).run();
        assert_eq!(rt.step_cache().len(), compiled);
        assert_eq!(first.answer, second.answer);
    }
}
