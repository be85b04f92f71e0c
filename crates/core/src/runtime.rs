//! The runtime: shared services every query uses.

use crate::chain::{open_log, DeltaState};
use crate::manager::ContextManager;
use aida_agents::StepCache;
use aida_data::Table;
use aida_llm::snapshot::{self, FailPlan, SharedLog, SnapshotError};
use aida_llm::{SimLlm, UsageSnapshot};
use aida_obs::{registry, Event, Recorder, SpanKind};
use aida_optimizer::{Policy, SampleMemo};
use aida_semops::ExecEnv;
use aida_sql::{Catalog, SqlError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tunables for the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Seed for all stochastic simulation.
    pub seed: u64,
    /// Optimization policy for synthesized programs.
    pub policy: Policy,
    /// Whether the ContextManager may reuse materialized Contexts.
    pub enable_context_reuse: bool,
    /// Transient-fault rate injected into every simulated LLM call (each
    /// fault bills a failed attempt and retry backoff; results never
    /// change).
    pub fault_rate: f64,
    /// Whether to record a hierarchical span trace of every query
    /// (spans, events, counters — rendered by `EXPLAIN ANALYZE` and the
    /// JSONL exporter). Off by default: the disabled recorder is a no-op.
    pub tracing: bool,
    /// Capacity bound on the ContextManager's materialized-Context store
    /// (0 = unbounded). Long-running services set this so the store stays
    /// bounded; over capacity the cheapest-to-recreate entry is evicted
    /// (ties broken by least-recent use).
    pub context_capacity: usize,
    /// Entry capacity of the semantic call cache (0 = disabled). When
    /// enabled, every simulated LLM call is memoized by content key:
    /// repeats cost zero dollars/tokens and a small hit latency.
    pub semantic_cache: usize,
    /// Snapshot path for the semantic cache: loaded (best-effort, with
    /// the log in delta mode) at build so a restart keeps a warm cache,
    /// written on [`Runtime::save_cache`] and at the ops-interval
    /// checkpoint. A corrupt snapshot starts cold. In delta mode the
    /// snapshots are `<cache_path>.<generation>`, and without a state
    /// path the runtime's log lives here.
    pub cache_path: Option<std::path::PathBuf>,
    /// Snapshot path for the ContextManager store: loaded (best-effort)
    /// at build so a restart keeps every materialized Context, written on
    /// [`Runtime::save_state`] and at the ops-interval checkpoint. A
    /// corrupt snapshot starts cold. In delta mode the snapshots are
    /// `<state_path>.<generation>` and the runtime's log lives here:
    /// the manifest `<state_path>.manifest` and the segments
    /// `<state_path>.<first seq>.log`.
    pub state_path: Option<std::path::PathBuf>,
    /// Checkpoint the durable state (ContextManager snapshot + semantic
    /// cache) every N agentic operator completions (0 = only on explicit
    /// [`Runtime::save_state`] / [`Runtime::save_cache`]).
    pub checkpoint_interval: u64,
    /// Incremental checkpoints: when set, a checkpoint
    /// ([`Runtime::save_state`], and the ops-interval one) commits one
    /// checksummed frame to the runtime's log ([`Runtime::log`]) between
    /// full snapshots — the ContextManager's mutation journal and what
    /// the semantic cache used since the last checkpoint, together — so
    /// checkpoint cost tracks what changed instead of total store size.
    pub delta_checkpoints: bool,
    /// In delta mode, rewrite both full snapshots after this many delta
    /// frames (default 16). Bounds recovery replay length; 0 acts as 1,
    /// a full snapshot every other save.
    pub full_snapshot_every: u64,
    /// Where the flight recorder dumps its ring of recent events when a
    /// crash seam fires, a recovery path runs, or an SLO alert trips
    /// (`None` = no automatic dumps). Only meaningful with `tracing`.
    pub flight_path: Option<std::path::PathBuf>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            seed: 0,
            policy: Policy::MinCost {
                quality_floor: 0.85,
            },
            enable_context_reuse: true,
            fault_rate: 0.0,
            tracing: false,
            context_capacity: 0,
            semantic_cache: 0,
            cache_path: None,
            state_path: None,
            checkpoint_interval: 0,
            delta_checkpoints: false,
            full_snapshot_every: 16,
            flight_path: None,
        }
    }
}

/// The shared runtime: simulated LLM + clock, context manager, and the SQL
/// catalog of materialized tables.
#[derive(Clone)]
pub struct Runtime {
    env: ExecEnv,
    config: RuntimeConfig,
    manager: ContextManager,
    catalog: Arc<Mutex<Catalog>>,
    /// Agentic operator completions, driving the ops-interval checkpoint.
    ops_done: Arc<AtomicU64>,
    /// The log the durable stores share (delta mode only).
    log: Option<SharedLog>,
    /// Where the checkpointer stands in the log (delta mode only).
    pub(crate) delta: Arc<Mutex<DeltaState>>,
    /// Compiled agent steps, shared by every agentic operator's agents.
    steps: StepCache,
    /// All-hit sampling runs, shared by every synthesized program's
    /// optimizer.
    samples: SampleMemo,
}

impl Runtime {
    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// The execution environment (LLM, clock, embedder).
    pub fn env(&self) -> &ExecEnv {
        &self.env
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The materialized-context manager.
    pub fn manager(&self) -> &ContextManager {
        &self.manager
    }

    /// The compiled-step cache the agents of every agentic operator
    /// share: a program any of them compiled in the same environment
    /// goes straight to the VM.
    pub(crate) fn step_cache(&self) -> &StepCache {
        &self.steps
    }

    /// The sampling memo every `run_semantic_program` optimizer shares:
    /// a repeated program whose sampling run the semantic cache would
    /// serve entirely replays it.
    pub(crate) fn sample_memo(&self) -> &SampleMemo {
        &self.samples
    }

    /// The trace recorder (disabled unless the runtime was built with
    /// `.tracing(true)`).
    pub fn recorder(&self) -> &Recorder {
        &self.env.recorder
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &aida_llm::SimClock {
        &self.env.clock
    }

    /// Context-reuse `(hits, misses)` observed so far.
    pub fn reuse_stats(&self) -> (u64, u64) {
        self.manager.reuse_stats()
    }

    /// The semantic call cache, when enabled via
    /// [`RuntimeBuilder::semantic_cache`].
    pub fn semantic_cache(&self) -> Option<&aida_llm::SemanticCache> {
        self.env.llm.cache()
    }

    /// Counter snapshot of the semantic cache (`None` when disabled).
    pub fn cache_stats(&self) -> Option<aida_llm::CacheStats> {
        self.env.llm.cache().map(|c| c.stats())
    }

    /// Spills the semantic cache to the configured `cache_path`. In delta
    /// mode the cache's snapshot is one of the log's, so this is a full
    /// rewrite of every snapshot, under one manifest commit.
    /// Returns whether a snapshot was written (false when the cache or
    /// the path is not configured).
    pub fn save_cache(&self) -> std::io::Result<bool> {
        let (Some(cache), Some(path)) = (self.env.llm.cache(), &self.config.cache_path) else {
            return Ok(false);
        };
        if self.config.delta_checkpoints {
            return self.checkpoint_chain(true, None);
        }
        cache.save(path)?;
        Ok(true)
    }

    /// Persists the ContextManager store (materialized Contexts with
    /// lineage, cost, and LRU state) to the configured `state_path` via
    /// an atomic temp-file-and-rename commit. Returns whether a snapshot
    /// was written (false when no path is configured).
    pub fn save_state(&self) -> std::io::Result<bool> {
        self.save_state_with(None)
    }

    /// The log the durable stores share in delta mode, at the state
    /// path or, for a runtime whose only durable store is the semantic
    /// cache, at the cache path. A service's tenant ledger joins it.
    pub fn log(&self) -> Option<&SharedLog> {
        self.log.as_ref()
    }

    /// Where [`Runtime::log`] is in delta mode, whether or not it is on:
    /// a service refuses a ledger on its own log while the runtime's
    /// holds one from a delta-mode run.
    pub fn log_path(&self) -> Option<&std::path::Path> {
        crate::chain::log_path(&self.config)
    }

    /// [`Runtime::save_state`] with an optional crash-injection plan
    /// (threaded through by the durability suite). In delta mode
    /// ([`RuntimeConfig::delta_checkpoints`]) this is the checkpoint of
    /// every durable store, the semantic cache's too: it commits one
    /// checksummed frame to the log, carrying the Context store's journal
    /// of mutations and the cache's uses since the previous checkpoint;
    /// on the first checkpoint, every
    /// [`RuntimeConfig::full_snapshot_every`] frames, after any restore
    /// and once an entry has left the cache it rewrites every snapshot
    /// under one manifest commit.
    pub fn save_state_with(&self, plan: Option<&FailPlan>) -> std::io::Result<bool> {
        if self.config.delta_checkpoints {
            return self.checkpoint_chain(false, plan);
        }
        let Some(path) = &self.config.state_path else {
            return Ok(false);
        };
        let text = self.manager.encode_snapshot();
        snapshot::commit_atomic(path, &text, plan)?;
        self.recorder().counter_add(registry::CHECKPOINT_SAVES, 1);
        self.recorder()
            .counter_add(registry::CHECKPOINT_BYTES, text.len() as u64);
        Ok(true)
    }

    /// Restores the ContextManager store from the configured
    /// `state_path` (in delta mode, the snapshot the manifest names and
    /// the log), replacing the current store. Returns how many Contexts were restored (0 when no
    /// path is configured or the snapshot file does not exist yet — a
    /// normal cold start). A corrupt or truncated snapshot is rejected as
    /// [`SnapshotError`] and the store is left untouched. After a
    /// restore, the next checkpoint rewrites the full snapshots, so no
    /// frame is written against a base it didn't come from.
    pub fn load_state(&self) -> Result<usize, SnapshotError> {
        self.recover_stores(false)
    }

    /// The ops-interval checkpoint: in delta mode one frame for both
    /// stores (or a full rewrite, see [`Runtime::save_state_with`]),
    /// otherwise both full snapshots. Either way it counts as one save,
    /// and every byte it writes is counted.
    fn checkpoint(&self) -> std::io::Result<()> {
        let saved = self.save_state();
        if self.config.delta_checkpoints {
            return saved.map(drop);
        }
        // A failed state save does not keep the cache from saving.
        if let (Some(cache), Some(path)) = (self.env.llm.cache(), &self.config.cache_path) {
            let text = cache.encode_snapshot().0;
            snapshot::commit_atomic(path, &text, None)?;
            if !matches!(saved, Ok(true)) {
                self.recorder().counter_add(registry::CHECKPOINT_SAVES, 1);
            }
            self.recorder()
                .counter_add(registry::CHECKPOINT_BYTES, text.len() as u64);
        }
        saved.map(drop)
    }

    /// Notes one completed agentic operator; every `checkpoint_interval`
    /// completions the durable state (Context snapshot + semantic cache)
    /// is checkpointed best-effort — a failed checkpoint is counted
    /// (`checkpoint.errors`), never fatal to the query that triggered it.
    pub(crate) fn note_agentic_op(&self) {
        let interval = self.config.checkpoint_interval;
        if interval == 0 {
            return;
        }
        let done = self.ops_done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(interval) {
            // Error counters always travel with a typed event: the
            // counter feeds dashboards, the event feeds the trace and
            // the flight recorder's forensic tail.
            if let Err(e) = self.checkpoint() {
                self.recorder().counter_add(registry::CHECKPOINT_ERRORS, 1);
                self.recorder().event(Event::Error {
                    counter: registry::CHECKPOINT_ERRORS.to_string(),
                    detail: format!("checkpoint failed: {e}"),
                });
            }
        }
    }

    /// Registers a materialized table for SQL reuse.
    pub fn register_table(&self, name: &str, table: Table) {
        self.catalog.lock().register(name, table);
    }

    /// The next free `mat_<n>` table name. Computed under the catalog lock
    /// and skipping existing names, so concurrent queries (or dropped
    /// tables) never silently overwrite an earlier materialization.
    pub fn next_table_name(&self) -> String {
        let catalog = self.catalog.lock();
        let mut n = catalog.len();
        loop {
            let name = format!("mat_{n}");
            if !catalog.contains(&name) {
                return name;
            }
            n += 1;
        }
    }

    /// Names of the materialized tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog
            .lock()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Runs a SQL query over the materialized tables.
    pub fn sql(&self, query: &str) -> Result<Table, SqlError> {
        let span = self.env.recorder.span(
            SpanKind::Sql,
            aida_obs::clipped(query, 60),
            self.env.clock.now(),
        );
        let result = aida_sql::execute(query, &self.catalog.lock());
        if self.env.recorder.is_enabled() {
            let rows_out = result.as_ref().map(|t| t.len()).unwrap_or(0);
            span.rows(0, rows_out);
            self.env.recorder.event(Event::Sql {
                statement: aida_obs::clip(query, 200),
                rows_out,
            });
            self.env.recorder.counter_add(registry::SQL_STATEMENTS, 1);
        }
        span.finish(self.env.clock.now());
        result
    }

    /// Runs a general SQL statement (`SELECT`, `CREATE TABLE … AS`,
    /// `DROP TABLE`, `EXPLAIN`) over the materialized tables.
    pub fn sql_statement(&self, sql: &str) -> Result<aida_sql::StatementResult, SqlError> {
        let span = self.env.recorder.span(
            SpanKind::Sql,
            aida_obs::clipped(sql, 60),
            self.env.clock.now(),
        );
        let result = aida_sql::execute_statement(sql, &mut self.catalog.lock());
        if self.env.recorder.is_enabled() {
            let rows_out = match &result {
                Ok(aida_sql::StatementResult::Rows(t)) => t.len(),
                _ => 0,
            };
            span.rows(0, rows_out);
            self.env.recorder.event(Event::Sql {
                statement: aida_obs::clip(sql, 200),
                rows_out,
            });
            self.env.recorder.counter_add(registry::SQL_STATEMENTS, 1);
        }
        span.finish(self.env.clock.now());
        result
    }

    /// Starts an agentic query pipeline over a context.
    pub fn query(&self, ctx: &crate::Context) -> crate::ops::Query {
        crate::ops::Query::new(self.clone(), ctx.clone())
    }

    /// Total LLM usage so far: the fold of every receipt issued.
    pub fn usage(&self) -> UsageSnapshot {
        self.env.llm.usage()
    }

    /// Dollars spent so far.
    pub fn cost(&self) -> f64 {
        self.usage().cost(self.env.llm.catalog())
    }

    /// Virtual seconds elapsed so far.
    pub fn elapsed(&self) -> f64 {
        self.env.clock.now()
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Runtime(seed={}, reuse={}, tables={})",
            self.config.seed,
            self.config.enable_context_reuse,
            self.catalog.lock().len()
        )
    }
}

/// Builder for [`Runtime`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    config: RuntimeConfig,
}

impl RuntimeBuilder {
    /// Sets the simulation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the optimization policy for synthesized programs.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Enables/disables materialized-Context reuse.
    pub fn context_reuse(mut self, enable: bool) -> Self {
        self.config.enable_context_reuse = enable;
        self
    }

    /// Injects transient LLM faults at the given per-call rate.
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.config.fault_rate = rate;
        self
    }

    /// Enables span-trace recording (`EXPLAIN ANALYZE` + JSONL export).
    pub fn tracing(mut self, enable: bool) -> Self {
        self.config.tracing = enable;
        self
    }

    /// Bounds the ContextManager's materialized-Context store (0 =
    /// unbounded; see [`crate::ContextManager::with_capacity`]).
    pub fn context_capacity(mut self, capacity: usize) -> Self {
        self.config.context_capacity = capacity;
        self
    }

    /// Enables the semantic call cache with an entry capacity (0
    /// disables). Repeated LLM calls with identical content keys are
    /// served from the store at zero dollars/tokens.
    pub fn semantic_cache(mut self, capacity: usize) -> Self {
        self.config.semantic_cache = capacity;
        self
    }

    /// Snapshot path for the semantic cache (loaded best-effort at
    /// build; written by [`Runtime::save_cache`] and the ops-interval
    /// checkpoint).
    pub fn cache_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.cache_path = Some(path.into());
        self
    }

    /// Snapshot path for the ContextManager store (loaded best-effort at
    /// build; written by [`Runtime::save_state`] and the ops-interval
    /// checkpoint).
    pub fn state_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.state_path = Some(path.into());
        self
    }

    /// Checkpoints durable state every N agentic operator completions
    /// (0 = explicit saves only).
    pub fn checkpoint_interval(mut self, every_n_ops: u64) -> Self {
        self.config.checkpoint_interval = every_n_ops;
        self
    }

    /// Enables incremental (delta-frame) checkpoints: checkpoints
    /// between full snapshots commit only what the Context store and the
    /// semantic cache changed, as one frame, to the runtime's log
    /// ([`Runtime::log`]).
    pub fn delta_checkpoints(mut self, enable: bool) -> Self {
        self.config.delta_checkpoints = enable;
        self
    }

    /// In delta mode, rewrite a full snapshot after this many delta
    /// frames (bounds recovery replay length). 0 acts as 1: a full
    /// snapshot every other save.
    pub fn full_snapshot_every(mut self, frames: u64) -> Self {
        self.config.full_snapshot_every = frames;
        self
    }

    /// Sets the flight-recorder dump path: when a crash seam fires, a
    /// recovery path runs, or an SLO alert trips, the recorder's ring of
    /// recent events is written there. Requires `.tracing(true)`.
    pub fn flight_dump(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.flight_path = Some(path.into());
        self
    }

    /// Sets the full configuration at once.
    pub fn config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the runtime.
    pub fn build(self) -> Runtime {
        let mut llm = SimLlm::new(self.config.seed).with_fault_rate(self.config.fault_rate);
        if self.config.semantic_cache > 0 {
            llm = llm.with_cache(aida_llm::SemanticCache::with_capacity(
                self.config.semantic_cache,
            ));
        }
        let mut env = ExecEnv::new(llm);
        if self.config.tracing {
            let recorder = Recorder::new();
            // Configure the autodump before load_state below: a restore
            // that runs at build time is already a recovery path worth
            // capturing.
            if let Some(path) = &self.config.flight_path {
                recorder.set_flight_autodump(path);
            }
            env = env.with_recorder(recorder);
        }
        let runtime = Runtime {
            log: open_log(&self.config),
            env,
            manager: ContextManager::with_capacity(self.config.context_capacity),
            catalog: Arc::new(Mutex::new(Catalog::new())),
            config: self.config,
            ops_done: Arc::new(AtomicU64::new(0)),
            delta: Arc::new(Mutex::new(DeltaState::default())),
            steps: StepCache::new(),
            samples: SampleMemo::new(),
        };
        if runtime.config.delta_checkpoints {
            // The journal must observe every mutation from the start,
            // or the first delta frame would silently miss changes.
            runtime.manager.set_journal(true);
        }
        // Best-effort warm start: a missing or corrupt snapshot simply
        // starts that store empty (a cache snapshot of a different seed
        // is never hit — keys include the seed).
        let _ = runtime.recover_stores(true);
        runtime
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::builder().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::{Schema, Value};

    #[test]
    fn builder_applies_settings() {
        let rt = Runtime::builder().seed(9).context_reuse(false).build();
        assert_eq!(rt.config().seed, 9);
        assert!(!rt.config().enable_context_reuse);
    }

    #[test]
    fn sql_over_registered_tables() {
        let rt = Runtime::builder().build();
        let mut t = Table::new(Schema::of(["year", "thefts"]));
        t.push_row(vec![Value::Int(2024), Value::Int(10)]).unwrap();
        rt.register_table("thefts", t);
        assert_eq!(rt.table_names(), vec!["thefts".to_string()]);
        let out = rt
            .sql("SELECT thefts FROM thefts WHERE year = 2024")
            .unwrap();
        assert_eq!(out.cell(0, "thefts"), Some(&Value::Int(10)));
    }

    #[test]
    fn next_table_name_never_collides() {
        let rt = Runtime::builder().build();
        assert_eq!(rt.next_table_name(), "mat_0");
        rt.register_table("mat_0", Table::new(Schema::empty()));
        // A foreign table shifts the counter; existing names are skipped.
        rt.register_table("mat_2", Table::new(Schema::empty()));
        let next = rt.next_table_name();
        assert_ne!(next, "mat_0");
        assert_ne!(next, "mat_2");
        rt.register_table(&next, Table::new(Schema::empty()));
        assert_eq!(rt.table_names().len(), 3);
    }

    #[test]
    fn cost_and_elapsed_start_at_zero() {
        let rt = Runtime::builder().build();
        assert_eq!(rt.cost(), 0.0);
        assert_eq!(rt.elapsed(), 0.0);
    }

    #[test]
    fn clones_share_state() {
        let rt = Runtime::builder().build();
        let rt2 = rt.clone();
        rt.register_table("t", Table::new(Schema::empty()));
        assert_eq!(rt2.table_names().len(), 1);
    }

    #[test]
    fn context_capacity_flows_to_manager() {
        let rt = Runtime::builder().context_capacity(3).build();
        assert_eq!(rt.manager().capacity(), 3);
        assert_eq!(Runtime::builder().build().manager().capacity(), 0);
    }

    #[test]
    fn semantic_cache_flows_to_llm_and_spills() {
        let dir = std::env::temp_dir().join("aida-runtime-cache-test");
        let path = dir.join("sem.cache");
        let rt = Runtime::builder()
            .seed(5)
            .semantic_cache(64)
            .cache_path(path.clone())
            .build();
        assert!(rt.semantic_cache().is_some());
        assert_eq!(rt.cache_stats().unwrap().entries, 0);
        assert!(rt.save_cache().unwrap(), "cache + path configured");
        assert!(path.exists());
        // A rebuilt runtime loads the snapshot without error; default
        // builds keep the cache off entirely.
        let rt2 = Runtime::builder()
            .seed(5)
            .semantic_cache(64)
            .cache_path(path.clone())
            .build();
        assert!(rt2.semantic_cache().is_some());
        let rt3 = Runtime::builder().build();
        assert!(rt3.cache_stats().is_none());
        assert!(!rt3.save_cache().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_mode_checkpoints_the_cache_as_frames() {
        let dir =
            std::env::temp_dir().join(format!("aida-runtime-cache-chain-{}", std::process::id()));
        let path = dir.join("sem.cache");
        let build = |delta| {
            Runtime::builder()
                .semantic_cache(64)
                .cache_path(path.clone())
                .delta_checkpoints(delta)
                .tracing(true)
                .build()
        };
        let use_key = |rt: &Runtime, k: u64| {
            let cache = rt.semantic_cache().unwrap();
            if let aida_llm::cache::Lookup::Compute(pending) =
                cache.begin(aida_llm::CacheKey::from_parts(&[k]))
            {
                let resp = aida_llm::LlmResponse {
                    value: Value::Int(k as i64),
                    text: format!("r{k}"),
                    input_tokens: 1,
                    output_tokens: 1,
                    latency_s: 0.5,
                    corrupted: false,
                    receipt: UsageSnapshot::default(),
                };
                cache.admit(pending, resp);
            }
        };
        let written = |rt: &Runtime| {
            let counters = rt.recorder().trace().counters;
            let get = |name| counters.get(name).copied().unwrap_or(0);
            (
                get(registry::CHECKPOINT_SAVES),
                get(registry::CHECKPOINT_BYTES),
            )
        };
        let len = |path: &std::path::Path| std::fs::metadata(path).unwrap().len();
        let rt = build(true);
        let log = rt.log().expect("the cache's log");
        let segments = || log.lock().segment_paths();
        use_key(&rt, 1);
        rt.checkpoint().unwrap(); // the first: full
        let snapshot = log.lock().snapshot_path(snapshot::StoreId::Cache).unwrap();
        let manifest = dir.join("sem.cache.manifest");
        assert!(snapshot.exists() && segments().is_empty());
        assert_eq!(written(&rt), (1, len(&snapshot) + len(&manifest)));
        use_key(&rt, 2);
        rt.checkpoint().unwrap();
        let frame = len(&segments()[0]);
        assert_eq!(written(&rt).1, len(&snapshot) + len(&manifest) + frame);
        assert!(rt.save_cache().unwrap());
        assert!(segments().is_empty(), "an explicit save covers the log");
        use_key(&rt, 3);
        rt.checkpoint().unwrap();
        assert_eq!(build(true).cache_stats().unwrap().entries, 3);
        // Without delta mode every checkpoint is a full save, counted, and
        // no log is read or written.
        std::fs::remove_dir_all(&dir).unwrap();
        let rt = build(false);
        assert!(rt.log().is_none());
        use_key(&rt, 4);
        rt.checkpoint().unwrap();
        assert_eq!(written(&rt), (1, len(&path)));
        assert_eq!(build(false).cache_stats().unwrap().entries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runtime_is_shareable_across_scoped_threads() {
        // Clones share all state and a Runtime is Send + Sync, so threads
        // may share one by reference; this is a compile-time check plus a
        // smoke of shared state across real threads.
        let rt = Runtime::builder().build();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let rt = &rt;
                scope.spawn(move || {
                    rt.register_table(&format!("t{i}"), Table::new(Schema::empty()));
                });
            }
        });
        assert_eq!(rt.table_names().len(), 4);
    }
}
