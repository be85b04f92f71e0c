//! The runtime: shared services every query uses.

use crate::manager::{encode_delta_frame, ContextManager, DocPool};
use aida_agents::StepCache;
use aida_data::{DataLake, Table};
use aida_llm::snapshot::{self, FailPlan, SnapshotError};
use aida_llm::{ModelId, SimLlm, UsageSnapshot};
use aida_obs::{registry, Event, Recorder, SpanKind};
use aida_optimizer::{OptimizerConfig, Policy};
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
    /// Model the agentic operators plan with.
    pub agent_model: ModelId,
    /// Optimizer configuration used by `run_semantic_program`.
    pub optimizer: OptimizerConfig,
    /// Optimization policy for synthesized programs.
    pub policy: Policy,
    /// Whether the ContextManager may reuse materialized Contexts.
    pub enable_context_reuse: bool,
    /// Similarity threshold for Context reuse.
    pub reuse_threshold: f32,
    /// Max steps per agentic operator.
    pub agent_max_steps: usize,
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
    /// Snapshot path for the semantic cache: loaded (best-effort) at
    /// build so a restart keeps a warm cache, written on
    /// [`Runtime::save_cache`]. A corrupt snapshot starts cold.
    pub cache_path: Option<std::path::PathBuf>,
    /// Snapshot path for the ContextManager store: loaded (best-effort)
    /// at build so a restart keeps every materialized Context, written on
    /// [`Runtime::save_state`] and at the ops-interval checkpoint. A
    /// corrupt snapshot starts cold.
    pub state_path: Option<std::path::PathBuf>,
    /// Checkpoint the durable state (ContextManager snapshot + semantic
    /// cache) every N agentic operator completions (0 = only on explicit
    /// [`Runtime::save_state`] / [`Runtime::save_cache`]).
    pub checkpoint_interval: u64,
    /// Incremental checkpoints: when set, [`Runtime::save_state`] emits
    /// checksummed delta frames (the ContextManager's mutation journal)
    /// to `<state_path>.delta` between full snapshots, so checkpoint
    /// cost tracks what changed instead of total store size.
    pub delta_checkpoints: bool,
    /// In delta mode, rewrite a full snapshot (and reset the delta
    /// chain) after this many delta frames (default 16). Bounds recovery
    /// replay length; 0 acts as 1, a full snapshot every other save.
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
            agent_model: ModelId::Flagship,
            optimizer: OptimizerConfig::default(),
            policy: Policy::MinCost {
                quality_floor: 0.85,
            },
            enable_context_reuse: true,
            reuse_threshold: 0.80,
            agent_max_steps: 8,
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

/// Where the incremental checkpointer stands in the current delta
/// chain. `base_sum` is the FNV-64 of the full snapshot the chain
/// extends; frames are stamped with it so a stale chain (from a crash
/// between a full-snapshot commit and the chain reset) can never be
/// applied to the wrong base. `None` forces the next save to write a
/// full snapshot. The checkpointer owns the chain: `frames` is also the
/// next frame's sequence number, `chain_len` the bytes of the chain file
/// it has made durable, and `pool` the documents the base snapshot and
/// those frames defined — a frame's documents join it only once the
/// frame's `fsync` has returned.
#[derive(Default)]
struct DeltaState {
    frames: u64,
    base_sum: Option<u64>,
    chain_len: u64,
    pool: DocPool,
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
    /// Incremental-checkpoint chain position (delta mode only).
    delta: Arc<Mutex<DeltaState>>,
    /// Compiled agent steps, shared by every agentic operator's agents.
    steps: StepCache,
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

    /// The trace recorder (disabled unless the runtime was built with
    /// `.tracing(true)`).
    pub fn recorder(&self) -> &Recorder {
        &self.env.recorder
    }

    /// The shared usage ledger (every simulated LLM call lands here).
    /// Service layers snapshot it around a query and difference the
    /// snapshots to attribute spend to a tenant.
    pub fn meter(&self) -> &aida_llm::UsageMeter {
        self.env.llm.meter()
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

    /// Spills the semantic cache to the configured `cache_path`.
    /// Returns whether a snapshot was written (false when the cache or
    /// the path is not configured).
    pub fn save_cache(&self) -> std::io::Result<bool> {
        match (self.env.llm.cache(), &self.config.cache_path) {
            (Some(cache), Some(path)) => {
                cache.save(path)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Persists the ContextManager store (materialized Contexts with
    /// lineage, cost, and LRU state) to the configured `state_path` via
    /// an atomic temp-file-and-rename commit. Returns whether a snapshot
    /// was written (false when no path is configured).
    pub fn save_state(&self) -> std::io::Result<bool> {
        self.save_state_with(None)
    }

    /// The delta-chain path for the configured `state_path` (delta
    /// checkpoints land in `<state_path>.delta`).
    pub fn delta_path(&self) -> Option<std::path::PathBuf> {
        self.config.state_path.as_ref().map(|p| delta_path_for(p))
    }

    /// [`Runtime::save_state`] with an optional crash-injection plan
    /// (threaded through by the durability suite). In delta mode
    /// ([`RuntimeConfig::delta_checkpoints`]) this appends one
    /// checksummed delta frame carrying the journal of mutations since
    /// the previous checkpoint; every
    /// [`RuntimeConfig::full_snapshot_every`] frames (and on the first
    /// save, or after any restore) it rewrites the full snapshot and
    /// resets the chain.
    pub fn save_state_with(&self, plan: Option<&FailPlan>) -> std::io::Result<bool> {
        let Some(path) = &self.config.state_path else {
            return Ok(false);
        };
        if !self.config.delta_checkpoints {
            let text = self.manager.encode_snapshot();
            snapshot::commit_atomic(path, &text, plan)?;
            self.recorder().counter_add(registry::CHECKPOINT_SAVES, 1);
            self.recorder()
                .counter_add(registry::CHECKPOINT_BYTES, text.len() as u64);
            return Ok(true);
        }
        let full_every = self.config.full_snapshot_every.max(1);
        let mut delta = self.delta.lock();
        let Some(base) = delta.base_sum.filter(|_| delta.frames < full_every) else {
            // Full rewrite: the journal's mutations are folded into the
            // snapshot, so the chain (and the journal) reset. The chain
            // file is removed only after the snapshot commits — a crash
            // in between leaves a stale chain whose base stamp no longer
            // matches, which recovery discards.
            let (text, pool) = self.manager.encode_snapshot_pooled();
            snapshot::commit_atomic(path, &text, plan)?;
            let _ = self.manager.drain_journal();
            match std::fs::remove_file(delta_path_for(path)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            *delta = DeltaState {
                base_sum: Some(snapshot::fnv64(text.as_bytes())),
                pool,
                ..DeltaState::default()
            };
            self.recorder().counter_add(registry::CHECKPOINT_SAVES, 1);
            self.recorder()
                .counter_add(registry::CHECKPOINT_BYTES, text.len() as u64);
            return Ok(true);
        };
        let ops = self.manager.drain_journal();
        if ops.is_empty() {
            // Nothing changed since the last frame: the checkpoint is a
            // durable no-op, not an error.
            return Ok(true);
        }
        let defined = delta.pool.defined();
        let payload = encode_delta_frame(base, &ops, &mut delta.pool);
        let chain = delta_path_for(path);
        let appended =
            snapshot::delta_append(&chain, delta.chain_len, delta.frames, &payload, plan);
        // Nothing of a failed frame is durable: its documents leave the
        // pool and its mutations go back to the journal, so the retried
        // frame defines and carries them again.
        let bytes = appended.inspect_err(|_| {
            delta.pool.truncate(defined);
            self.manager.restore_journal(ops);
        })?;
        delta.chain_len += bytes;
        delta.frames += 1;
        self.recorder().counter_add(registry::CHECKPOINT_SAVES, 1);
        self.recorder()
            .counter_add(registry::CHECKPOINT_DELTA_FRAMES, 1);
        self.recorder()
            .counter_add(registry::CHECKPOINT_BYTES, bytes);
        Ok(true)
    }

    /// Restores the ContextManager store from the configured
    /// `state_path`, replacing the current store. Returns how many
    /// Contexts were restored (0 when no path is configured or the
    /// snapshot file does not exist yet — a normal cold start). A
    /// corrupt or truncated snapshot is rejected as [`SnapshotError`]
    /// and the store is left untouched.
    pub fn load_state(&self) -> Result<usize, SnapshotError> {
        let Some(path) = &self.config.state_path else {
            return Ok(0);
        };
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e.into()),
        };
        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            crate::Context::builder(id, lake)
                .description(desc)
                .build(self)
        };
        // In delta mode, replay the chain on top of the snapshot. Frames
        // are trusted up to the first violation — torn tail, bad
        // checksum, out-of-order seq (all caught by the WAL replay), a
        // stamp that doesn't match this snapshot and pool, or a record
        // the store rejects — exactly the suffix-truncation semantics of
        // the ledger WAL. After a restore, the next save rewrites a full
        // snapshot, so the chain on disk is never extended against a
        // base it didn't come from.
        let chain = if self.config.delta_checkpoints {
            snapshot::wal_replay(&delta_path_for(path))
                .map_err(SnapshotError::Io)?
                .records
        } else {
            Vec::new()
        };
        let (n, frames) = self.manager.load_chain(&text, &chain, &rebuild)?;
        if frames > 0 {
            self.recorder().flight(
                "core.state",
                "delta_replayed",
                format!("{frames} delta frames on top of the snapshot"),
            );
        }
        *self.delta.lock() = DeltaState::default();
        self.recorder()
            .counter_add(registry::STATE_RESTORED_CONTEXTS, n as u64);
        if n > 0 {
            // A recovery path ran: note it in the flight ring so the
            // forensic tail shows the restart.
            self.recorder().flight(
                "core.state",
                "restored",
                format!("{n} contexts from snapshot"),
            );
        }
        Ok(n)
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
            if let Err(e) = self.save_state() {
                self.recorder().counter_add(registry::CHECKPOINT_ERRORS, 1);
                self.recorder().event(Event::Error {
                    counter: registry::CHECKPOINT_ERRORS.to_string(),
                    detail: format!("state checkpoint failed: {e}"),
                });
            }
            if let Err(e) = self.save_cache() {
                self.recorder().counter_add(registry::CHECKPOINT_ERRORS, 1);
                self.recorder().event(Event::Error {
                    counter: registry::CHECKPOINT_ERRORS.to_string(),
                    detail: format!("cache checkpoint failed: {e}"),
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
            aida_obs::clip(query, 60),
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
        let span =
            self.env
                .recorder
                .span(SpanKind::Sql, aida_obs::clip(sql, 60), self.env.clock.now());
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

    /// Snapshot of total LLM usage so far.
    pub fn usage(&self) -> UsageSnapshot {
        self.env.llm.meter().snapshot()
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

/// The delta-chain sibling of a state snapshot path.
fn delta_path_for(path: &std::path::Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".delta");
    std::path::PathBuf::from(os)
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

    /// Sets the planning model for agentic operators.
    pub fn agent_model(mut self, model: ModelId) -> Self {
        self.config.agent_model = model;
        self
    }

    /// Sets the optimization policy for synthesized programs.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the optimizer configuration.
    pub fn optimizer(mut self, optimizer: OptimizerConfig) -> Self {
        self.config.optimizer = optimizer;
        self
    }

    /// Enables/disables materialized-Context reuse.
    pub fn context_reuse(mut self, enable: bool) -> Self {
        self.config.enable_context_reuse = enable;
        self
    }

    /// Sets the reuse similarity threshold.
    pub fn reuse_threshold(mut self, threshold: f32) -> Self {
        self.config.reuse_threshold = threshold;
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
    /// build; written by [`Runtime::save_cache`]).
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

    /// Enables incremental (delta-frame) checkpoints: saves between
    /// full snapshots append only what changed to `<state_path>.delta`.
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
            let cache = aida_llm::SemanticCache::with_capacity(self.config.semantic_cache);
            if let Some(path) = &self.config.cache_path {
                // Best-effort warm start: a missing or corrupt snapshot
                // (or one from a different seed — keys include the seed)
                // simply starts cold.
                let _ = cache.load(path);
            }
            llm = llm.with_cache(cache);
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
            env,
            manager: ContextManager::with_capacity(self.config.context_capacity),
            catalog: Arc::new(Mutex::new(Catalog::new())),
            config: self.config,
            ops_done: Arc::new(AtomicU64::new(0)),
            delta: Arc::new(Mutex::new(DeltaState::default())),
            steps: StepCache::new(),
        };
        if runtime.config.delta_checkpoints {
            // The journal must observe every mutation from the start,
            // or the first delta frame would silently miss changes.
            runtime.manager.set_journal(true);
        }
        if runtime.config.state_path.is_some() {
            // Best-effort warm start: a missing or corrupt snapshot
            // simply starts with an empty store.
            let _ = runtime.load_state();
        }
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
        let rt = Runtime::builder()
            .seed(9)
            .agent_model(ModelId::Mini)
            .context_reuse(false)
            .reuse_threshold(0.5)
            .build();
        assert_eq!(rt.config().seed, 9);
        assert_eq!(rt.config().agent_model, ModelId::Mini);
        assert!(!rt.config().enable_context_reuse);
        assert_eq!(rt.config().reuse_threshold, 0.5);
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
