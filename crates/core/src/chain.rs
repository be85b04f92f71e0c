//! The runtime's checkpoints: the Context store and the semantic cache
//! write to the service's one log and commit together.
//!
//! In delta mode the runtime opens one [`Log`] at its state path (or its
//! cache path without one), which a service's tenant ledger joins. A
//! checkpoint stages one unit — the Context store's record
//! ([`encode_delta_frame`]) linked to the cache's
//! ([`SemanticCache::encode_section`]) — and commits everything staged,
//! ledger records included, with one write and one `fsync`. A unit lands
//! whole or not at all, so a crash leaves both stores at one checkpoint.
//! A full rewrite makes new snapshots of both stores current with one
//! manifest rename (the ledger rewrites its own): on the first
//! checkpoint, after `full_snapshot_every` frames, after a restore, and
//! when an entry left the cache.

use crate::manager::{encode_delta_frame, DocPool, StoreReplica};
use crate::runtime::{Runtime, RuntimeConfig};
use aida_data::DataLake;
use aida_llm::cache::{CacheMark, CacheReplica};
use aida_llm::snapshot::{FailPlan, Log, LogRecord, SharedLog, SnapshotError, StoreId};
use aida_llm::SemanticCache;
use aida_obs::registry;
use std::path::Path;
use std::sync::Arc;

/// Where the runtime's checkpointer stands: whether the current
/// snapshots are its own (`based`), how many frames extend them, `pool`,
/// the items the state snapshot and the frames defined (a frame's items
/// join it only once its commit has returned), and how far the last
/// checkpoint read the cache.
#[derive(Default)]
pub(crate) struct DeltaState {
    based: bool,
    frames: u64,
    pool: DocPool,
    cache_mark: CacheMark,
}

/// The stores a runtime keeps durable: the Context store when it has a
/// state path, the semantic cache when it has one and a cache path.
struct Stores<'a> {
    state: Option<&'a Path>,
    cache: Option<(&'a SemanticCache, &'a Path)>,
}

/// Where a runtime's log is in delta mode: at the state path, else at
/// the cache path of a runtime with a semantic cache.
pub(crate) fn log_path(config: &RuntimeConfig) -> Option<&Path> {
    let cache = (config.cache_path.as_deref()).filter(|_| config.semantic_cache > 0);
    config.state_path.as_deref().or(cache)
}

/// The log of a delta-mode runtime with a durable store.
pub(crate) fn open_log(config: &RuntimeConfig) -> Option<SharedLog> {
    let state = config.state_path.as_ref();
    let cache = (config.cache_path.as_ref()).filter(|_| config.semantic_cache > 0);
    let mut log = Log::open(log_path(config).filter(|_| config.delta_checkpoints)?);
    let paths = [(StoreId::State, state), (StoreId::Cache, cache)];
    for (store, path) in paths.into_iter().flat_map(|(s, p)| p.map(|p| (s, p))) {
        log.set_store_path(store, path);
    }
    Some(Arc::new(parking_lot::Mutex::new(log)))
}

impl Runtime {
    fn stores(&self) -> Stores<'_> {
        Stores {
            state: self.config().state_path.as_deref(),
            cache: self
                .semantic_cache()
                .zip(self.config().cache_path.as_deref()),
        }
    }

    /// The delta-mode checkpoint: one frame, or a full rewrite of both
    /// snapshots. Returns whether a store is durable at all.
    pub(crate) fn checkpoint_chain(
        &self,
        full: bool,
        plan: Option<&FailPlan>,
    ) -> std::io::Result<bool> {
        let Some(log) = self.log() else {
            return Ok(false);
        };
        let stores = self.stores();
        let mut guard = self.delta.lock();
        let delta = &mut *guard;
        let extends = delta.based && delta.frames < self.config().full_snapshot_every.max(1);
        if full || !extends || !self.append_frame(&stores, log, delta, plan)? {
            self.rewrite(&stores, log, delta, plan)?;
        }
        Ok(true)
    }

    /// Stages one unit carrying what both stores did since the last
    /// checkpoint and commits it with whatever the ledger staged before
    /// it. Returns false, writing nothing, when the cache lost an entry
    /// since (the caller rewrites in full instead); with nothing to
    /// carry, only the ledger's staged records are committed.
    fn append_frame(
        &self,
        stores: &Stores,
        log: &SharedLog,
        delta: &mut DeltaState,
        plan: Option<&FailPlan>,
    ) -> std::io::Result<bool> {
        let ops = match stores.state {
            Some(_) => self.manager().drain_journal(),
            None => Vec::new(),
        };
        let defined = delta.pool.defined();
        let mut log = log.lock();
        let mark = log.mark();
        let (mut used, mut cache_mark, mut bytes) = (!ops.is_empty(), None, 0);
        let pool = &mut delta.pool;
        let mut staged = Ok(());
        if stores.state.is_some() {
            let linked = stores.cache.is_some();
            staged = (log.stage(StoreId::State, linked, |out| {
                encode_delta_frame(&ops, pool, out)
            }))
            .map(|n| bytes += n);
        }
        if let (Ok(()), Some((cache, _))) = (&staged, stores.cache) {
            let since = delta.cache_mark;
            staged = log
                .stage(StoreId::Cache, false, |out| {
                    if let Some((mark, cache_used)) = cache.encode_section(since, out) {
                        (cache_mark, used) = (Some(mark), used | cache_used);
                    }
                })
                .map(|n| bytes += n);
        }
        let moved = stores.cache.is_some() && cache_mark.is_none();
        let outcome = match staged {
            Ok(()) if moved => Ok(()),
            // Nothing to carry: the ledger records staged before it land
            // all the same.
            Ok(()) if !used => {
                log.rewind(mark);
                log.commit(plan).map(drop)
            }
            Ok(()) => log.commit(plan).map(drop),
            Err(e) => Err(e),
        };
        if log.rewind(mark) {
            // Nothing of an unwritten frame is durable: its pool items
            // leave the pool and its mutations go back to the journal, so
            // the next frame (or the full rewrite) carries them again.
            delta.pool.truncate(defined);
            self.manager().restore_journal(ops);
            return outcome.map(|()| !moved);
        }
        if let Some(mark) = cache_mark {
            delta.cache_mark = mark;
        }
        delta.frames += 1;
        let recorder = self.recorder();
        recorder.counter_add(registry::CHECKPOINT_SAVES, 1);
        recorder.counter_add(registry::CHECKPOINT_DELTA_FRAMES, 1);
        recorder.counter_add(registry::CHECKPOINT_BYTES, bytes);
        outcome.map(|()| true)
    }

    /// Writes both snapshots as the log's next generation: one manifest
    /// commit makes them current together (the ledger's entry stays).
    /// Until it returns the checkpointer has no base, so a failure leaves
    /// the next checkpoint a full rewrite again.
    fn rewrite(
        &self,
        stores: &Stores,
        log: &SharedLog,
        delta: &mut DeltaState,
        plan: Option<&FailPlan>,
    ) -> std::io::Result<()> {
        delta.based = false;
        let mut next = DeltaState {
            based: true,
            ..DeltaState::default()
        };
        let mut snapshots = Vec::new();
        if stores.state.is_some() {
            let text;
            (text, next.pool) = self.manager().checkpoint_snapshot();
            snapshots.push((StoreId::State, text));
        }
        if let Some((cache, _)) = stores.cache {
            let text;
            (text, next.cache_mark) = cache.encode_snapshot();
            snapshots.push((StoreId::Cache, text));
        }
        let bytes = log.lock().rewrite(snapshots, plan)?;
        *delta = next;
        self.recorder().counter_add(registry::CHECKPOINT_SAVES, 1);
        self.recorder()
            .counter_add(registry::CHECKPOINT_BYTES, bytes);
        Ok(())
    }

    /// Restores the durable stores: in delta mode from the snapshots the
    /// manifest names and the log, read once; otherwise from the
    /// snapshot files. The semantic cache is restored only with `cache`,
    /// at build, which also recovers the log: [`Runtime::load_state`]
    /// replaces the Context store alone and reads the log's committed
    /// records again, leaving its writer and the ledger's staged records
    /// as they are. Returns how many Contexts were restored.
    ///
    /// A store replays the units of the log its snapshot does not cover,
    /// up to the first that one of them cannot decode or apply: a unit
    /// applies to every replaying store or to none. (The next checkpoint
    /// after a restore rewrites in full, past such a unit.) A state
    /// snapshot that does not decode is a [`SnapshotError`] and leaves
    /// the Context store untouched; a cache snapshot that does not
    /// decode leaves the cache as it is.
    pub(crate) fn recover_stores(&self, cache: bool) -> Result<usize, SnapshotError> {
        let stores = self.stores();
        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            crate::Context::builder(id, lake)
                .description(desc)
                .build(self)
        };
        let mut delta = self.delta.lock();
        let mut log = self.log().map(|log| log.lock());
        const OWN: [StoreId; 2] = [StoreId::State, StoreId::Cache];
        let (mut records, mut failed) = (Vec::new(), None);
        let [state_path, cache_path] = match log.as_deref_mut() {
            Some(log) => {
                let read = match cache {
                    true => log.recover().map(|()| log.take_records(&OWN)),
                    false => log.read_back(&OWN),
                };
                match read {
                    Ok(read) => records = read,
                    Err(e) => failed = Some(e),
                }
                OWN.map(|store| log.snapshot_path(store))
            }
            None => {
                [stores.state, stores.cache.map(|(_, path)| path)].map(|p| p.map(Path::to_path_buf))
            }
        };
        let mut state = match state_path.map(std::fs::read_to_string) {
            Some(Ok(text)) => match self.manager().decode_replica(&text, &rebuild) {
                Ok(replica) => Some(replica),
                Err(e) => {
                    failed = Some(e);
                    None
                }
            },
            Some(Err(e)) if e.kind() != std::io::ErrorKind::NotFound || log.is_some() => {
                failed = Some(e.into());
                None
            }
            _ => None,
        };
        // Decoded even when only the Context store is restored: a unit
        // the cache's section rejects applies to neither store.
        let mut cached = cache_path
            .and_then(|path| std::fs::read_to_string(path).ok())
            .and_then(|text| CacheReplica::decode(&text).ok());
        if let Some(log) = log.as_deref() {
            let applied = self.replay(log, &records, (state.as_mut(), cached.as_mut()), &rebuild);
            if applied > 0 {
                self.recorder().flight(
                    "core.state",
                    "delta_replayed",
                    format!("{applied} delta frames on top of the snapshot"),
                );
            }
        }
        *delta = DeltaState::default();
        if let (Some(replica), Some((live, _)), true) = (cached, stores.cache, cache) {
            live.restore(replica);
        }
        match (state, failed) {
            (Some(replica), _) => Ok(self.install_state(replica)),
            (None, Some(e)) => Err(e),
            (None, None) => Ok(0),
        }
    }

    /// Replays the units of `records` past each replica's snapshot onto
    /// it, up to the first unit one of them rejects. Returns the units
    /// applied.
    fn replay(
        &self,
        log: &Log,
        records: &[LogRecord],
        (mut state, mut cache): (Option<&mut StoreReplica>, Option<&mut CacheReplica>),
        rebuild: &dyn Fn(&str, DataLake, &str) -> crate::Context,
    ) -> usize {
        let (mut applied, mut state_step, mut cache_step) = (0, None, None);
        for record in records {
            let ok = match (record.store, &state, &cache) {
                _ if record.seq < log.covered(record.store) => Ok(()),
                (StoreId::State, Some(replica), _) => (self.manager())
                    .decode_section(replica, &record.payload, rebuild)
                    .map(|step| state_step = Some(step)),
                (StoreId::Cache, _, Some(replica)) => {
                    (replica.decode_section(&record.payload)).map(|step| cache_step = Some(step))
                }
                _ => Ok(()),
            };
            if ok.is_err() {
                break;
            }
            if record.linked {
                continue;
            }
            if let (Some(replica), Some(step)) = (state.as_deref_mut(), state_step.take()) {
                replica.apply(step);
            }
            if let (Some(replica), Some(step)) = (cache.as_deref_mut(), cache_step.take()) {
                replica.apply(step);
            }
            applied += 1;
        }
        applied
    }

    fn install_state(&self, replica: StoreReplica) -> usize {
        let n = self.manager().install(replica);
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
        n
    }
}
