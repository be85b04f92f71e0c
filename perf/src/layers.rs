//! The per-layer rung ladder: each layer's public functions called
//! directly on fixed work cut from the same seeded data the workloads
//! use. A rung is warmed up, sized so one batch takes a few
//! milliseconds, then timed over at least thirty batches; it reports
//! the median and MAD per unit of work.
//!
//! Rungs say what one unit of a layer's work costs; the traced run says
//! how many units a workload did. Neither is gated: they exist so a
//! later change can show *where* an end-to-end number moved.

use crate::live_point::{point_context, point_instruction, point_lake};
use crate::report;
use crate::served::{register_tenants, serve_config, TENANTS};
use crate::stats::{mad, median};
use crate::trial::{Scratch, Sizes};
use aida_agents::policy::{AgentPolicy, PolicyAction, PolicyContext};
use aida_agents::{
    tools::lake_tools, AgentConfig, AgentRuntime, CodeAgent, FnTool, ToolRegistry, ToolSpec,
};
use aida_core::{Context, ContextManager, ProgramSynthesizer, Runtime};
use aida_data::{csv, html, DataLake, Document};
use aida_index::{FlatIndex, KeywordIndex, VectorIndex};
use aida_llm::cache::Lookup;
use aida_llm::{snapshot, CacheKey, Embedder, LlmTask, ModelId, SemanticCache, SimLlm, Subject};
use aida_obs::{Json, Recorder, SpanKind};
use aida_optimizer::{Optimizer, OptimizerConfig, Policy};
use aida_script::{Interpreter, ScriptValue};
use aida_semops::exec::parallel_map;
use aida_semops::{Dataset, ExecEnv, Executor, PhysicalPlan};
use aida_serve::{
    encode_frame, AdmissionQueue, Frame, FrameReader, LedgerRecord, LedgerWal, Listener, Priority,
    QueryRequest, QueryService, TenantConfig, TenantLedger, WireBody, WireRequest,
};
use aida_synth::{enron, legal};
use aida_testkit::NetSim;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One rung of the ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The end-to-end metric this rung should move, and where.
    pub moves: &'static str,
}

const fn cost(name: &'static str, unit: &'static str, moves: &'static str) -> Rung {
    Rung {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const fn rate(name: &'static str, unit: &'static str, moves: &'static str) -> Rung {
    Rung {
        name,
        unit,
        higher_is_better: true,
        moves,
    }
}

const COLD_CPU: &str = "cpu_ms_per_query, host_qps on cold_scan";
const WARM_HIT: &str = "cpu_ms_per_query, host_ms_p50 on warm_serve";
const DURABLE_TAIL: &str = "restart_s, host_ms_p95 on durable_serve";
const WARM_P50: &str = "host_ms_p50 on warm_serve";
const LIVE_P50: &str = "host_ms_p50, host_qps on live_point";
const DURABLE_WAL: &str = "host_qps, host_ms_p95, durable_bytes_per_query on durable_serve";

/// Every rung, in the order `layers` runs and prints them.
pub const RUNGS: [Rung; 49] = [
    rate("semops.filter_rec_per_s", "rec/s", COLD_CPU),
    rate("semops.map_rec_per_s", "rec/s", COLD_CPU),
    cost("semops.agg_ms", "ms", COLD_CPU),
    rate("semops.filter_cached_rec_per_s", "rec/s", WARM_HIT),
    cost("semops.parallel_map_spawn_us", "us", COLD_CPU),
    cost("llm.invoke_miss_ns", "ns", COLD_CPU),
    cost("llm.invoke_hit_ns", "ns", WARM_HIT),
    cost("llm.content_key_ns", "ns", WARM_HIT),
    cost("llm.cache.begin_admit_ns", "ns", WARM_HIT),
    rate("llm.tokens_mb_per_s", "MB/s", COLD_CPU),
    cost(
        "llm.embed_us_per_kb",
        "us",
        "setup_s everywhere; host_ms_p50 on warm_serve",
    ),
    cost("llm.snapshot.commit_atomic_us", "us", DURABLE_TAIL),
    cost("llm.cache.save_ms", "ms", DURABLE_TAIL),
    cost("llm.cache.load_ms", "ms", "restart_s on durable_serve"),
    cost("core.manager.reuse_us_at_256", "us", WARM_P50),
    cost("core.manager.register_us", "us", WARM_P50),
    cost("core.context.build_ms_250", "ms", "setup_s everywhere"),
    cost("core.context.vector_search_us", "us", COLD_CPU),
    cost("core.synthesize_us", "us", WARM_P50),
    cost(
        "core.checkpoint.full_ms_at_256",
        "ms",
        "host_ms_p95, durable_bytes_per_query on durable_serve",
    ),
    cost(
        "core.checkpoint.delta_ms",
        "ms",
        "host_ms_p95, durable_bytes_per_query on durable_serve",
    ),
    cost("core.restore_ms_at_256", "ms", "restart_s on durable_serve"),
    cost("agents.run_us_per_step", "us", LIVE_P50),
    cost("script.parse_us", "us", LIVE_P50),
    cost("script.check_us", "us", LIVE_P50),
    cost("script.typecheck_us", "us", LIVE_P50),
    cost("script.compile_us", "us", LIVE_P50),
    cost("script.bounds_us", "us", LIVE_P50),
    cost("script.vm_cold_us", "us", LIVE_P50),
    rate("script.vm_insn_per_s", "insn/s", LIVE_P50),
    cost("script.artifact_roundtrip_us", "us", LIVE_P50),
    cost("serve.codec.encode_ns_per_frame", "ns", LIVE_P50),
    cost("serve.codec.decode_ns_per_frame", "ns", LIVE_P50),
    cost("serve.listener.turn_us_per_frame", "us", LIVE_P50),
    cost("serve.queue.push_pop_ns", "ns", LIVE_P50),
    cost("serve.dispatch.us_per_query_point", "us", LIVE_P50),
    cost("serve.wal.append_us", "us", DURABLE_WAL),
    cost("serve.wal.append_batch8_us_per_record", "us", DURABLE_WAL),
    cost(
        "serve.wal.recover_us_per_record",
        "us",
        "restart_s on durable_serve",
    ),
    rate("data.csv_parse_mb_per_s", "MB/s", COLD_CPU),
    rate("data.html_to_text_mb_per_s", "MB/s", COLD_CPU),
    cost("index.build_ms_250", "ms", "setup_s everywhere"),
    cost("index.flat_search_us_250", "us", COLD_CPU),
    cost("index.bm25_search_us_250", "us", COLD_CPU),
    cost("sql.group_by_us_2k", "us", COLD_CPU),
    cost("optimizer.optimize_ms", "ms", COLD_CPU),
    cost(
        "obs.span_ns",
        "ns",
        "nothing end-to-end: those run with tracing off",
    ),
    cost(
        "obs.disabled_span_ns",
        "ns",
        "every host metric, everywhere",
    ),
    cost(
        "obs.export_jsonl_ms",
        "ms",
        "nothing end-to-end: those run with tracing off",
    ),
];

/// A rung's measured value.
#[derive(Debug, Clone)]
pub struct RungResult {
    pub rung: Rung,
    pub median: f64,
    pub mad: f64,
    pub batches: usize,
}

/// Times batches of calls. Every batch runs the same number of calls,
/// chosen so a batch lasts at least `MIN_BATCH_S`.
struct Ladder {
    batches: usize,
    results: Vec<RungResult>,
}

const MIN_BATCH_S: f64 = 0.003;

impl Ladder {
    /// Seconds per call, one sample per batch.
    fn seconds_per_call(&self, mut call: impl FnMut()) -> Vec<f64> {
        // Warm up, and size the batch from the warm call.
        call();
        let start = Instant::now();
        call();
        let one = start.elapsed().as_secs_f64().max(1e-9);
        let per_batch = ((MIN_BATCH_S / one).ceil() as usize).clamp(1, 1_000_000);
        (0..self.batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..per_batch {
                    call();
                }
                start.elapsed().as_secs_f64() / per_batch as f64
            })
            .collect()
    }

    fn push(&mut self, name: &str, samples: Vec<f64>) {
        let rung = self.results.len();
        assert_eq!(RUNGS[rung].name, name, "rungs run in catalogue order");
        self.results.push(RungResult {
            rung: RUNGS[rung],
            median: median(&samples),
            mad: mad(&samples),
            batches: samples.len(),
        });
    }

    /// A cost rung: `scale` converts seconds to the rung's unit, `ops`
    /// is how many units of work one call does.
    fn cost(&mut self, name: &str, scale: f64, ops: f64, call: impl FnMut()) {
        let samples = self.seconds_per_call(call);
        self.push(name, samples.iter().map(|s| s * scale / ops).collect());
    }

    /// A rate rung: `work` units (records, megabytes) per call.
    fn rate(&mut self, name: &str, work: f64, call: impl FnMut()) {
        let samples = self.seconds_per_call(call);
        self.push(name, samples.iter().map(|s| work / s).collect());
    }
}

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

const TRANSACTIONS: [&str; 5] = ["Raptor", "Chewco", "LJM", "Talon", "Condor"];

const FILTER: &str =
    "the email contains firsthand discussion of one or more of the Raptor, Chewco, \
                      LJM, Talon, or Condor business transactions";

/// A one-step policy with a trivial tool: what is left of an agent run
/// is the plan → check → typecheck → compile → bounds → VM machinery.
struct OneStep;

impl AgentPolicy for OneStep {
    fn next_step(&self, ctx: &PolicyContext<'_>) -> PolicyAction {
        match ctx.step {
            0 => PolicyAction::Code("n = count_files()\nfinal_answer(n + 1)".to_string()),
            _ => PolicyAction::Done,
        }
    }
}

fn one_step_registry() -> ToolRegistry {
    let mut registry = ToolRegistry::new();
    registry.register(Arc::new(FnTool::new(
        ToolSpec::new(
            "count_files",
            "count_files() -> int",
            "number of files in the lake",
        ),
        |_args| Ok(ScriptValue::Int(8)),
    )));
    registry
}

/// The programs a Deep Research agent wrote against the legal lake,
/// captured from its `StepTrace.code`.
fn captured_programs(seed: u64, lake: &DataLake, query: &str) -> (Vec<String>, ToolRegistry) {
    let env = ExecEnv::new(SimLlm::new(seed));
    legal::register_oracle(&env.llm);
    let mut registry = ToolRegistry::new();
    for tool in lake_tools(lake) {
        registry.register(tool);
    }
    let agent = CodeAgent::deep_research(AgentConfig {
        seed,
        ..AgentConfig::default()
    });
    let outcome = AgentRuntime::new(&env, registry.clone(), Some(lake.clone())).run(&agent, query);
    let mut programs: Vec<String> = outcome
        .steps
        .into_iter()
        .filter(|s| s.bound.is_some())
        .map(|s| s.code)
        .collect();
    programs.sort();
    programs.dedup();
    (programs, registry)
}

fn point_request(seq: u64) -> QueryRequest {
    let mut r = QueryRequest::new(
        TENANTS[seq as usize % TENANTS.len()],
        "reports",
        point_instruction(seq),
    )
    .at(seq as f64);
    r.seq = seq;
    r
}

fn spend_record(i: u64) -> LedgerRecord {
    LedgerRecord::Spend {
        tenant: TENANTS[i as usize % TENANTS.len()].into(),
        usd: 0.0125 + i as f64 * 1e-6,
        tokens: 4_000 + i,
        calls: 12,
        cache_hits: 80,
        cache_coalesced: 0,
    }
}

/// Runs every rung on data generated from `seed`.
pub fn run_all(seed: u64, sizes: Sizes) -> Vec<RungResult> {
    let mut ladder = Ladder {
        batches: sizes.rung_batches,
        results: Vec::new(),
    };
    let mut scratch = Scratch::new("layers");
    let enron = enron::generate(seed);
    let legal = legal::generate(seed);
    let emails = enron.lake.docs().to_vec();
    let n_emails = emails.len() as f64;
    let email_mb = emails.iter().map(|d| d.content.len()).sum::<usize>() as f64 / 1e6;

    // ---- semops -----------------------------------------------------------
    let cold_env = ExecEnv::new(SimLlm::new(seed));
    enron::register_oracle(&cold_env.llm);
    let scan = Dataset::scan(&enron.lake, "emails");
    let execute = |env: &ExecEnv, ds: &Dataset| {
        let plan = PhysicalPlan::uniform(ds.plan(), ModelId::Mini, 4);
        black_box(Executor::new(env).execute(&plan));
    };
    let filter = scan.sem_filter(FILTER);
    ladder.rate("semops.filter_rec_per_s", n_emails, || {
        execute(&cold_env, &filter)
    });
    let map = scan.sem_map("write a one-sentence summary of the email", "summary", 60);
    ladder.rate("semops.map_rec_per_s", n_emails, || {
        execute(&cold_env, &map)
    });
    let agg = scan
        .limit(40)
        .sem_agg("summarize what these emails discuss");
    ladder.cost("semops.agg_ms", MS, 1.0, || execute(&cold_env, &agg));
    let warm_env = ExecEnv::new(SimLlm::new(seed).with_cache(SemanticCache::with_capacity(4096)));
    enron::register_oracle(&warm_env.llm);
    ladder.rate("semops.filter_cached_rec_per_s", n_emails, || {
        execute(&warm_env, &filter)
    });
    let items: Vec<u64> = (0..n_emails as u64).collect();
    ladder.cost("semops.parallel_map_spawn_us", US, 1.0, || {
        black_box(parallel_map(&items, 4, |x| x + 1));
    });

    // ---- llm --------------------------------------------------------------
    fn task(doc: &Document) -> LlmTask<'_> {
        LlmTask::Filter {
            instruction: FILTER,
            subject: Subject::doc(doc),
        }
    }
    let mut next = 0usize;
    let mut each_email = |f: &mut dyn FnMut(&Arc<Document>)| {
        f(&emails[next % emails.len()]);
        next += 1;
    };
    ladder.cost("llm.invoke_miss_ns", NS, 1.0, || {
        each_email(&mut |doc| {
            black_box(cold_env.llm.invoke(ModelId::Mini, &task(doc)));
        })
    });
    ladder.cost("llm.invoke_hit_ns", NS, 1.0, || {
        each_email(&mut |doc| {
            black_box(warm_env.llm.invoke(ModelId::Mini, &task(doc)));
        })
    });
    ladder.cost("llm.content_key_ns", NS, 1.0, || {
        each_email(&mut |doc| {
            black_box(warm_env.llm.content_key(ModelId::Mini, &task(doc)));
        })
    });
    let cache = SemanticCache::with_capacity(4096);
    let response = cold_env.llm.invoke(ModelId::Mini, &task(&emails[0]));
    let mut fresh = 0u64;
    ladder.cost("llm.cache.begin_admit_ns", NS, 1.0, || {
        fresh += 1;
        if let Lookup::Compute(pending) = cache.begin(CacheKey::from_parts(&[seed, fresh])) {
            cache.admit(pending, response.clone());
        }
    });
    ladder.rate("llm.tokens_mb_per_s", email_mb, || {
        for doc in &emails {
            black_box(aida_llm::tokens::count(&doc.content));
        }
    });
    let embedder = Embedder::default();
    ladder.cost("llm.embed_us_per_kb", US, email_mb * 1e3, || {
        for doc in &emails {
            black_box(embedder.embed(&doc.content));
        }
    });
    let dir = scratch.fresh();
    let page = "x".repeat(4096);
    ladder.cost("llm.snapshot.commit_atomic_us", US, 1.0, || {
        snapshot::commit_atomic(&dir.join("page.bin"), &page, None).expect("commit_atomic");
    });
    let cache_file = dir.join("semcache.bin");
    let warm_cache = warm_env.llm.cache().expect("warm env has a cache");
    ladder.cost("llm.cache.save_ms", MS, 1.0, || {
        warm_cache.save(&cache_file).expect("cache save");
    });
    ladder.cost("llm.cache.load_ms", MS, 1.0, || {
        let into = SemanticCache::with_capacity(4096);
        black_box(into.load(&cache_file).expect("cache load"));
    });

    // ---- core -------------------------------------------------------------
    let state_dir = scratch.fresh();
    let durable_rt = |delta: bool| {
        let rt = Runtime::builder()
            .seed(seed)
            .context_capacity(256)
            .state_path(state_dir.join(if delta { "delta.bin" } else { "full.bin" }))
            .delta_checkpoints(delta)
            .full_snapshot_every(u64::MAX)
            .build();
        let base = Context::builder("enron", enron.lake.clone())
            .description(enron.description.clone())
            .build(&rt);
        (rt, base)
    };
    let instruction_n = |i: u64| {
        format!(
            "find emails with firsthand discussion of the {} transaction, batch {i}",
            TRANSACTIONS[i as usize % TRANSACTIONS.len()]
        )
    };
    // Four emails per materialized Context keeps a 256-entry snapshot
    // near 7 MB, so thirty full checkpoints fit in a second or two.
    let narrowed = DataLake::from_docs(emails.iter().take(4).map(|d| d.as_ref().clone()));
    let materialized = |base: &Context, i: u64| {
        base.materialize(
            format!("enron/{i}"),
            base.description.clone(),
            Some(narrowed.clone()),
            None,
        )
    };
    let (full_rt, full_base) = durable_rt(false);
    for i in 0..256 {
        full_rt
            .manager()
            .register(&instruction_n(i), materialized(&full_base, i), 0.1);
    }
    let manager: &ContextManager = full_rt.manager();
    let mut probe = 0u64;
    ladder.cost("core.manager.reuse_us_at_256", US, 1.0, || {
        probe += 1;
        black_box(manager.reuse_scored(&instruction_n(probe % 256), 0.8));
    });
    let mut added = 256u64;
    ladder.cost("core.manager.register_us", US, 1.0, || {
        added += 1;
        manager.register(&instruction_n(added), materialized(&full_base, added), 0.1);
    });
    let build_rt = Runtime::builder().seed(seed).build();
    ladder.cost("core.context.build_ms_250", MS, 1.0, || {
        black_box(
            Context::builder("enron", enron.lake.clone())
                .description(enron.description.clone())
                .with_vector_index()
                .build(&build_rt),
        );
    });
    let indexed = Context::builder("enron", enron.lake.clone())
        .with_vector_index()
        .build(&build_rt);
    ladder.cost("core.context.vector_search_us", US, 1.0, || {
        black_box(indexed.vector_search(&build_rt, "Raptor hedge restructuring", 8));
    });
    ladder.cost("core.synthesize_us", US, 1.0, || {
        black_box(ProgramSynthesizer::synthesize(
            &instruction_n(3),
            &enron.lake,
        ));
    });
    ladder.cost("core.checkpoint.full_ms_at_256", MS, 1.0, || {
        full_rt.save_state().expect("full checkpoint");
    });
    let (delta_rt, delta_base) = durable_rt(true);
    for i in 0..256 {
        delta_rt
            .manager()
            .register(&instruction_n(i), materialized(&delta_base, i), 0.1);
    }
    delta_rt.save_state().expect("base snapshot");
    ladder.cost("core.checkpoint.delta_ms", MS, 1.0, || {
        added += 1;
        delta_rt
            .manager()
            .register(&instruction_n(added), materialized(&delta_base, added), 0.1);
        delta_rt.save_state().expect("delta frame");
    });
    ladder.cost("core.restore_ms_at_256", MS, 1.0, || {
        black_box(full_rt.load_state().expect("restore"));
    });

    // ---- agents -----------------------------------------------------------
    let agent_env = ExecEnv::new(SimLlm::new(seed));
    let agent_rt = AgentRuntime::new(&agent_env, one_step_registry(), None);
    let agent = CodeAgent::with_policy(AgentConfig::default(), Box::new(OneStep));
    ladder.cost("agents.run_us_per_step", US, 1.0, || {
        black_box(agent_rt.run(&agent, "count the files"));
    });

    // ---- script -----------------------------------------------------------
    let (programs, registry) = captured_programs(seed, &legal.lake, &legal.query);
    assert!(!programs.is_empty(), "the agent wrote no program");
    let n_programs = programs.len() as f64;
    let new_interp = || {
        let mut interp = Interpreter::new().with_fuel(5_000_000);
        registry.bind_into(&mut interp);
        interp
    };
    let mut type_env = aida_script::TypeEnv::new();
    for spec in registry.specs() {
        type_env.add_tool_signature(&spec.name, &spec.signature);
    }
    let parsed: Vec<_> = programs
        .iter()
        .map(|p| aida_script::parser::parse(p).expect("captured program parses"))
        .collect();
    let compiled: Vec<_> = parsed
        .iter()
        .map(|p| aida_script::compile(p).expect("captured program compiles"))
        .collect();
    ladder.cost("script.parse_us", US, n_programs, || {
        for p in &programs {
            black_box(aida_script::parser::parse(p).expect("parse"));
        }
    });
    let checker = new_interp();
    ladder.cost("script.check_us", US, n_programs, || {
        for p in &programs {
            black_box(checker.check_source(p));
        }
    });
    ladder.cost("script.typecheck_us", US, n_programs, || {
        for p in &parsed {
            // A step may read a global an earlier step bound; that is a
            // verdict, not a fault, and costs the same to reach.
            let _ = black_box(aida_script::typecheck(p, &type_env));
        }
    });
    ladder.cost("script.compile_us", US, n_programs, || {
        for p in &parsed {
            black_box(aida_script::compile(p).expect("compile"));
        }
    });
    ladder.cost("script.bounds_us", US, n_programs, || {
        for c in &compiled {
            black_box(aida_script::analyze(c));
        }
    });
    ladder.cost("script.vm_cold_us", US, n_programs, || {
        for c in &compiled {
            let _ = black_box(new_interp().run_compiled(c));
        }
    });
    let mut vm = new_interp();
    let fuel_per_pass: u64 = compiled
        .iter()
        .map(|c| {
            let _ = vm.run_compiled(c);
            5_000_000 - vm.fuel_remaining()
        })
        .sum();
    ladder.rate("script.vm_insn_per_s", fuel_per_pass as f64, || {
        for c in &compiled {
            let _ = black_box(vm.run_compiled(c));
        }
    });
    ladder.cost("script.artifact_roundtrip_us", US, n_programs, || {
        for c in &compiled {
            black_box(aida_script::CompiledProgram::decode(&c.encode()).expect("decode"));
        }
    });

    // ---- serve ------------------------------------------------------------
    let wire_request = |client_seq: u64| {
        Frame::Request(WireRequest {
            client_seq,
            sent_s: client_seq as f64,
            tenant: "acme".to_string(),
            context: "reports".to_string(),
            priority: Priority::Normal,
            deadline_s: None,
            body: WireBody::Source(point_instruction(0)),
        })
    };
    let frame = wire_request(7);
    ladder.cost("serve.codec.encode_ns_per_frame", NS, 1.0, || {
        black_box(encode_frame(&frame));
    });
    let bytes = encode_frame(&frame);
    let mut reader = FrameReader::new();
    ladder.cost("serve.codec.decode_ns_per_frame", NS, 1.0, || {
        reader.push(&bytes);
        black_box(reader.next_frame().expect("decode"));
    });
    // A no-op service behind the listener: every decoded request is
    // answered `Completed` at once, so the turn is all that is timed.
    const CONNS: usize = 64;
    let mut listener = Listener::new(NetSim::seeded(seed));
    let conns: Vec<usize> = (0..CONNS)
        .map(|_| listener.fabric_mut().connect(0.0))
        .collect();
    let mut now_s = 1.0;
    let mut sent = 0u64;
    ladder.cost("serve.listener.turn_us_per_frame", US, CONNS as f64, || {
        for &conn in &conns {
            sent += 1;
            listener
                .fabric_mut()
                .client_send(conn, &encode_frame(&wire_request(sent)));
        }
        let mut answered = 0;
        while answered < CONNS {
            now_s += 1.0;
            listener.fabric_mut().advance(now_s);
            for inbound in listener.turn() {
                let done = Frame::Completed {
                    client_seq: inbound.request.client_seq,
                    seq: inbound.request.client_seq,
                    latency_s: 0.25,
                    cost_usd: 0.0,
                    answered: true,
                };
                listener.respond(inbound.conn, &done);
                answered += 1;
            }
        }
        now_s += 1.0;
        listener.fabric_mut().advance(now_s);
        listener.turn();
        for &conn in &conns {
            black_box(listener.fabric_mut().client_recv(conn));
        }
    });
    let mut queue = AdmissionQueue::new(64);
    for (i, tenant) in TENANTS.iter().enumerate() {
        queue.set_weight(
            (*tenant).into(),
            &TenantConfig::weighted(1 + (i == 0) as u32),
        );
    }
    ladder.cost("serve.queue.push_pop_ns", NS, 32.0, || {
        for seq in 0..32 {
            queue.push(point_request(seq)).expect("queue has room");
        }
        while let Some(request) = queue.pop() {
            black_box(request);
        }
    });
    let point_rt = Runtime::builder()
        .seed(seed)
        .context_capacity(256)
        .semantic_cache(4096)
        .context_reuse(false)
        .build();
    let point_ctx = point_context(&point_rt, &point_lake(seed));
    let mut point_svc = QueryService::new(point_rt, serve_config());
    point_svc.register_context("reports", point_ctx);
    register_tenants(&mut point_svc);
    ladder.cost("serve.dispatch.us_per_query_point", US, 32.0, || {
        black_box(point_svc.run((0..32).map(point_request).collect()));
    });
    let wal_dir = scratch.fresh();
    let mut ledger = TenantLedger::new();
    for tenant in TENANTS {
        ledger.register(tenant.into(), TenantConfig::default());
    }
    let mut wal = LedgerWal::open(wal_dir.join("ledger.wal")).segment_records(32);
    wal.recover(&mut ledger).expect("fresh WAL recovers");
    let mut logged = 0u64;
    ladder.cost("serve.wal.append_us", US, 1.0, || {
        logged += 1;
        wal.append(&spend_record(logged)).expect("wal append");
    });
    ladder.cost("serve.wal.append_batch8_us_per_record", US, 8.0, || {
        let batch: Vec<LedgerRecord> = (0..8).map(|i| spend_record(logged + i)).collect();
        logged += 8;
        wal.append_batch(&batch).expect("wal batch append");
    });
    drop(wal);
    let replay_dir = scratch.fresh();
    let mut replay_wal = LedgerWal::open(replay_dir.join("ledger.wal")).segment_records(32);
    replay_wal.recover(&mut ledger).expect("fresh WAL recovers");
    const REPLAYED: u64 = 400;
    for chunk in 0..REPLAYED / 8 {
        let batch: Vec<LedgerRecord> = (0..8).map(|i| spend_record(chunk * 8 + i)).collect();
        replay_wal.append_batch(&batch).expect("wal batch append");
    }
    drop(replay_wal);
    ladder.cost(
        "serve.wal.recover_us_per_record",
        US,
        REPLAYED as f64,
        || {
            let mut ledger = TenantLedger::new();
            let mut wal = LedgerWal::open(replay_dir.join("ledger.wal")).segment_records(32);
            black_box(wal.recover(&mut ledger).expect("wal recovery"));
        },
    );

    // ---- data / index / sql / optimizer -----------------------------------
    let of_kind = |suffix: &str| -> Vec<Arc<Document>> {
        legal
            .lake
            .docs()
            .iter()
            .filter(|d| d.name.ends_with(suffix))
            .cloned()
            .collect()
    };
    let megabytes =
        |docs: &[Arc<Document>]| docs.iter().map(|d| d.content.len()).sum::<usize>() as f64 / 1e6;
    let csvs = of_kind(".csv");
    ladder.rate("data.csv_parse_mb_per_s", megabytes(&csvs), || {
        for doc in &csvs {
            black_box(csv::parse_table(&doc.content).expect("legal CSVs parse"));
        }
    });
    let pages = of_kind(".html");
    ladder.rate("data.html_to_text_mb_per_s", megabytes(&pages), || {
        for doc in &pages {
            black_box(html::to_text(&doc.content));
        }
    });
    let vectors: Vec<(String, Vec<f32>)> = emails
        .iter()
        .map(|d| (d.name.clone(), embedder.embed(&d.content)))
        .collect();
    // The index crate's own share of a Context build: the vectors are
    // already embedded (that is `llm.embed_us_per_kb`).
    ladder.cost("index.build_ms_250", MS, 1.0, || {
        let mut flat = FlatIndex::new();
        let mut keywords = KeywordIndex::new();
        for (doc, (name, vector)) in emails.iter().zip(&vectors) {
            flat.add(name, vector.clone());
            keywords.add(name, &doc.content);
        }
        black_box((flat.len(), keywords.len()));
    });
    let flat = FlatIndex::from_items(vectors);
    let query = embedder.embed("firsthand discussion of the Raptor hedge restructuring");
    ladder.cost("index.flat_search_us_250", US, 1.0, || {
        black_box(flat.search(&query, 8));
    });
    let mut keywords = KeywordIndex::new();
    for doc in &emails {
        keywords.add(&doc.name, &doc.content);
    }
    ladder.cost("index.bm25_search_us_250", US, 1.0, || {
        black_box(keywords.search("Raptor hedge restructuring", 8));
    });
    let mut rows = String::from("year,category,reports,rank\n");
    for i in 0..2_000 {
        rows.push_str(&format!(
            "{},category {},{},{}\n",
            2001 + i % 24,
            i % 20,
            i * 137,
            i % 50
        ));
    }
    let mut catalog = aida_sql::Catalog::new();
    catalog.register(
        "reports",
        csv::parse_table(&rows).expect("generated CSV parses"),
    );
    let group_by = "SELECT category, SUM(reports) AS total FROM reports WHERE year >= 2010 \
                    GROUP BY category ORDER BY total DESC LIMIT 5";
    ladder.cost("sql.group_by_us_2k", US, 1.0, || {
        black_box(aida_sql::execute(group_by, &catalog).expect("group-by runs"));
    });
    let program = ProgramSynthesizer::synthesize(&instruction_n(0), &enron.lake);
    let policy = Policy::MinCost {
        quality_floor: 0.85,
    };
    ladder.cost("optimizer.optimize_ms", MS, 1.0, || {
        let optimizer = Optimizer::new(&cold_env, OptimizerConfig::default());
        black_box(optimizer.optimize(program.plan(), &policy));
    });

    // ---- obs --------------------------------------------------------------
    let span_on = |recorder: &Recorder| {
        let span = recorder.span(SpanKind::PhysicalOp, "sem_filter", 1.0);
        span.rows(250, 39);
        span.finish(2.0);
    };
    let mut recorder = Recorder::new();
    let mut spans = 0u32;
    ladder.cost("obs.span_ns", NS, 1.0, || {
        // Keep the span table bounded so the rung times recording, not
        // an ever-growing vector.
        spans += 1;
        if spans.is_multiple_of(100_000) {
            recorder = Recorder::new();
        }
        span_on(&recorder);
    });
    let disabled = Recorder::disabled();
    ladder.cost("obs.disabled_span_ns", NS, 1.0, || span_on(&disabled));
    let exported = Recorder::new();
    for _ in 0..2_000 {
        span_on(&exported);
    }
    ladder.cost("obs.export_jsonl_ms", MS, 1.0, || {
        black_box(exported.export_jsonl());
    });

    assert_eq!(ladder.results.len(), RUNGS.len(), "every rung ran");
    ladder.results
}

/// `PERF_layers.json`: every rung with median, MAD and batch count.
fn layers_json(seed: u64, results: &[RungResult]) -> Json {
    let rungs: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj()
                .field("name", r.rung.name)
                .field("median", r.median)
                .field("unit", r.rung.unit)
                .field("mad", r.mad)
                .field("batches", r.batches)
                .field(
                    "better",
                    if r.rung.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                )
                .field("moves", r.rung.moves)
        })
        .collect();
    Json::obj()
        .field("environment", report::environment(seed))
        .field("rungs", rungs)
}

fn print(results: &[RungResult]) {
    for r in results {
        println!(
            "rung {:<40} {:>16.3} {:<7} (mad {:.3}, {} batches) -> {}",
            r.rung.name, r.median, r.rung.unit, r.mad, r.batches, r.rung.moves
        );
    }
}

/// `layers`: runs the ladder, prints it, and (at full size) commits it.
pub fn command(seed: u64, sizes: Sizes, write: bool) -> Result<(), String> {
    let results = run_all(seed, sizes);
    print(&results);
    if write {
        let path = report::results_dir().join("PERF_layers.json");
        report::write_json(&path, &layers_json(seed, &results))?;
    }
    Ok(())
}
