//! One delta chain per runtime: the Context store and the semantic cache
//! checkpoint together.
//!
//! In delta mode ([`crate::RuntimeConfig::delta_checkpoints`]) each
//! checkpoint appends ONE checksummed frame to one chain file —
//! `<state_path>.delta`, or `<cache_path>.delta` when there is no state
//! path — with one write and one `fsync`. The frame carries a section
//! per durable store, each stamped with the FNV-64 of the snapshot it
//! extends:
//!
//! ```text
//! both stores:  <state section length> \t <state section> \t <cache section>
//! one store:    <its section>
//! ```
//!
//! The state section is [`encode_delta_frame`]'s journal of Context-store
//! mutations, the cache section [`SemanticCache::encode_section`]'s
//! admitted entries and re-ticked keys. A frame lands whole or not at
//! all, so a crash leaves both stores at the same checkpoint.
//!
//! A full rewrite commits both snapshots, then removes the chain and
//! starts it over. It happens on the first checkpoint, after
//! `full_snapshot_every` frames, after a restore, and when an entry left
//! the cache (a section has no record for a removal).

use crate::manager::{encode_delta_frame, DocPool, StoreReplica};
use crate::runtime::Runtime;
use aida_data::DataLake;
use aida_llm::cache::{CacheMark, CacheReplica};
use aida_llm::snapshot::{self, DeltaChain, FailPlan, SnapshotError};
use aida_llm::SemanticCache;
use aida_obs::registry;
use std::path::{Path, PathBuf};

/// Where the runtime's checkpointer stands: its position in the chain,
/// the stamps of the snapshots the chain extends, `pool`, the items the
/// state snapshot and the chain's frames defined (a frame's items join
/// it only once the frame's `fsync` has returned), and
/// how far the last checkpoint read the cache.
#[derive(Default)]
pub(crate) struct DeltaState {
    chain: DeltaChain,
    state_base: u64,
    cache_base: u64,
    pool: DocPool,
    cache_mark: CacheMark,
}

/// The stores a runtime keeps durable: the Context store when it has a
/// state path, the semantic cache when it has one and a cache path.
struct Stores<'a> {
    state: Option<&'a Path>,
    cache: Option<(&'a SemanticCache, &'a Path)>,
}

impl Stores<'_> {
    /// The chain file the stores share.
    fn chain(&self) -> Option<PathBuf> {
        self.state
            .or(self.cache.map(|(_, path)| path))
            .map(snapshot::delta_path)
    }

    /// A frame payload's sections, in the layout these stores write.
    fn split<'p>(&self, payload: &'p str) -> Option<(Option<&'p str>, Option<&'p str>)> {
        match (self.state.is_some(), self.cache.is_some()) {
            (true, true) => {
                let (len, rest) = payload.split_once('\t')?;
                let len: usize = len.parse().ok()?;
                let cache = rest.get(len..)?.strip_prefix('\t')?;
                Some((Some(rest.get(..len)?), Some(cache)))
            }
            (true, false) => Some((Some(payload), None)),
            (false, true) => Some((None, Some(payload))),
            (false, false) => None,
        }
    }
}

/// The stamp a section starts with.
fn stamp(section: &str) -> Option<u64> {
    let head = section.split('\t').next()?;
    u64::from_str_radix(head, 16).ok()
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

    /// The chain the durable stores share (delta mode writes it).
    pub(crate) fn chain_path(&self) -> Option<PathBuf> {
        self.stores().chain()
    }

    /// The delta-mode checkpoint: one frame, or a full rewrite of both
    /// snapshots. Returns whether a store is durable at all.
    pub(crate) fn checkpoint_chain(
        &self,
        full: bool,
        plan: Option<&FailPlan>,
    ) -> std::io::Result<bool> {
        let stores = self.stores();
        let Some(chain) = stores.chain() else {
            return Ok(false);
        };
        let mut guard = self.delta.lock();
        let delta = &mut *guard;
        let extends = delta.chain.extends(self.config().full_snapshot_every);
        if full || !extends || !self.append_frame(&stores, &chain, delta, plan)? {
            self.rewrite(&stores, &chain, delta, plan)?;
        }
        Ok(true)
    }

    /// Appends one frame carrying what both stores did since the last
    /// checkpoint. Returns false, writing nothing, when the cache lost an
    /// entry since (the caller rewrites in full instead); nothing to
    /// carry is a durable no-op.
    fn append_frame(
        &self,
        stores: &Stores,
        chain: &Path,
        delta: &mut DeltaState,
        plan: Option<&FailPlan>,
    ) -> std::io::Result<bool> {
        let ops = match stores.state {
            Some(_) => self.manager().drain_journal(),
            None => Vec::new(),
        };
        let defined = delta.pool.defined();
        let (mut moved, mut cache_mark) = (false, None);
        let (state_base, cache_base, since) =
            (delta.state_base, delta.cache_base, delta.cache_mark);
        let pool = &mut delta.pool;
        let written = delta.chain.append(chain, plan, |out| {
            let mut used = !ops.is_empty();
            if stores.state.is_some() {
                let start = out.len();
                encode_delta_frame(state_base, &ops, pool, out);
                if stores.cache.is_some() {
                    let len = out.len() - start;
                    out.insert_str(start, &format!("{len}\t"));
                    out.push('\t');
                }
            }
            if let Some((cache, _)) = stores.cache {
                let Some((mark, cache_used)) = cache.encode_section(cache_base, since, out) else {
                    moved = true;
                    return false;
                };
                cache_mark = Some(mark);
                used |= cache_used;
            }
            used
        });
        let bytes = match written {
            Ok(Some(bytes)) => bytes,
            // Nothing of an unwritten frame is durable: its pool items
            // leave the pool and its mutations go back to the journal, so
            // the next frame (or the full rewrite) carries them again.
            unwritten => {
                delta.pool.truncate(defined);
                self.manager().restore_journal(ops);
                return unwritten.map(|_| !moved);
            }
        };
        if let Some(mark) = cache_mark {
            delta.cache_mark = mark;
        }
        let recorder = self.recorder();
        recorder.counter_add(registry::CHECKPOINT_SAVES, 1);
        recorder.counter_add(registry::CHECKPOINT_DELTA_FRAMES, 1);
        recorder.counter_add(registry::CHECKPOINT_BYTES, bytes);
        Ok(true)
    }

    /// Commits both snapshots, then starts the chain over. The chain
    /// file is removed only after both commit: a crash in between leaves
    /// a chain whose stamps no longer match the new snapshots, which
    /// recovery does not replay onto them. Until the rebase succeeds the
    /// chain has no base, so a failure leaves the next checkpoint a full
    /// rewrite again.
    fn rewrite(
        &self,
        stores: &Stores,
        chain: &Path,
        delta: &mut DeltaState,
        plan: Option<&FailPlan>,
    ) -> std::io::Result<()> {
        delta.chain = DeltaChain::default();
        let mut bytes = 0;
        if let Some(path) = stores.state {
            let (text, pool) = self.manager().checkpoint_snapshot();
            snapshot::commit_atomic(path, &text, plan)?;
            (delta.state_base, delta.pool) = (snapshot::fnv64(text.as_bytes()), pool);
            bytes += text.len() as u64;
        }
        if let Some((cache, path)) = stores.cache {
            let (text, mark) = cache.encode_snapshot();
            snapshot::commit_atomic(path, &text, plan)?;
            (delta.cache_base, delta.cache_mark) = (snapshot::fnv64(text.as_bytes()), mark);
            bytes += text.len() as u64;
        }
        delta.chain.rebase(chain)?;
        self.recorder().counter_add(registry::CHECKPOINT_SAVES, 1);
        self.recorder()
            .counter_add(registry::CHECKPOINT_BYTES, bytes);
        Ok(())
    }

    /// Restores the durable stores from their snapshots and, in delta
    /// mode, the chain, read once. The semantic cache is restored only
    /// with `cache`: [`Runtime::load_state`] replaces the Context store
    /// alone. Returns how many Contexts were restored.
    ///
    /// A store replays the chain when the first frame carries its
    /// snapshot's stamp; a store whose snapshot a full rewrite replaced
    /// after the chain was written holds everything the chain does. The
    /// replaying stores take frames up to the first that is torn or whose
    /// section one of them cannot decode or apply; a frame applies to
    /// every replaying store or to none, so whenever both snapshots load
    /// and replay, both stores stop at the same frame. A state snapshot
    /// that does not decode is a [`SnapshotError`] and leaves the
    /// Context store untouched; a cache snapshot that does not decode
    /// leaves the cache as it is.
    pub(crate) fn recover_stores(&self, cache: bool) -> Result<usize, SnapshotError> {
        let stores = self.stores();
        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            crate::Context::builder(id, lake)
                .description(desc)
                .build(self)
        };
        let (state_text, mut failed) = match stores.state.map(std::fs::read_to_string) {
            Some(Ok(text)) => (Some(text), None),
            Some(Err(e)) if e.kind() != std::io::ErrorKind::NotFound => (None, Some(e.into())),
            _ => (None, None),
        };
        let mut state = match state_text
            .as_deref()
            .map(|text| self.manager().decode_replica(text, &rebuild))
        {
            Some(Ok(replica)) => Some(replica),
            Some(Err(e)) => {
                failed = Some(e);
                None
            }
            None => None,
        };
        // Decoded even when only the Context store is restored: a frame
        // the cache's section rejects applies to neither store.
        let cache_text = stores
            .cache
            .and_then(|(_, path)| std::fs::read_to_string(path).ok());
        let mut cached = cache_text
            .as_deref()
            .and_then(|text| CacheReplica::decode(text).ok());
        let frames = match stores.chain() {
            Some(chain) if self.config().delta_checkpoints => {
                snapshot::wal_replay(&chain)
                    .map_err(SnapshotError::Io)?
                    .records
            }
            _ => Vec::new(),
        };
        // A store replays the chain when the first frame carries its
        // snapshot's stamp (hashed only when there is a frame to check).
        let first = frames
            .first()
            .and_then(|(_, payload)| stores.split(payload));
        let base = |text: Option<&str>, section: Option<&str>| {
            let stamp = section.and_then(stamp)?;
            let base = snapshot::fnv64(text?.as_bytes());
            (stamp == base).then_some(base)
        };
        let state_base = base(
            state_text.as_deref().filter(|_| state.is_some()),
            first.and_then(|(section, _)| section),
        );
        let cache_base = base(
            cache_text.as_deref().filter(|_| cached.is_some()),
            first.and_then(|(_, section)| section),
        );
        let applied = self.replay(
            &stores,
            &frames,
            state.as_mut().zip(state_base),
            cached.as_mut().zip(cache_base),
            &rebuild,
        );
        if applied > 0 {
            self.recorder().flight(
                "core.state",
                "delta_replayed",
                format!("{applied} delta frames on top of the snapshot"),
            );
        }
        *self.delta.lock() = DeltaState::default();
        if let (Some(replica), Some((live, _)), true) = (cached, stores.cache, cache) {
            live.restore(replica);
        }
        match (state, failed) {
            (Some(replica), _) => Ok(self.install_state(replica)),
            (None, Some(e)) => Err(e),
            (None, None) => Ok(0),
        }
    }

    /// Replays `frames` onto the replicas that follow the chain (each
    /// with its snapshot's stamp) up to the first frame that does not
    /// split, or whose section one of them rejects. Returns the frames
    /// applied.
    fn replay(
        &self,
        stores: &Stores,
        frames: &[(u64, String)],
        mut state: Option<(&mut StoreReplica, u64)>,
        mut cache: Option<(&mut CacheReplica, u64)>,
        rebuild: &dyn Fn(&str, DataLake, &str) -> crate::Context,
    ) -> usize {
        if state.is_none() && cache.is_none() {
            return 0;
        }
        let mut applied = 0;
        for (_, payload) in frames {
            let Some((state_section, cache_section)) = stores.split(payload) else {
                break;
            };
            let state_step = match (&state, state_section) {
                (Some((replica, base)), Some(section)) => {
                    match self
                        .manager()
                        .decode_section(replica, *base, section, rebuild)
                    {
                        Ok(checked) => Some(checked),
                        Err(_) => break,
                    }
                }
                _ => None,
            };
            let cache_step = match (&cache, cache_section) {
                (Some((replica, base)), Some(section)) => {
                    match replica.decode_section(*base, section) {
                        Ok(checked) => Some(checked),
                        Err(_) => break,
                    }
                }
                _ => None,
            };
            if let (Some((replica, _)), Some(checked)) = (&mut state, state_step) {
                replica.apply(checked);
            }
            if let (Some((replica, _)), Some(checked)) = (&mut cache, cache_step) {
                replica.apply(checked);
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
