//! The semantic call cache: content-addressed memoization of simulated
//! LLM calls.
//!
//! The ContextManager amortizes whole *Contexts* across queries; this
//! layer sits one level below and memoizes individual `(model, prompt,
//! decode-params)` calls, so a warmed workload drives the marginal cost
//! of repeated semantic work toward zero. Three properties matter:
//!
//! 1. **Content addressing** — the key hashes *every* determinant of a
//!    simulated response: the simulator seed, the model name, the task
//!    kind and all of its fields, and the subject (name, text, and
//!    oracle labels). Two calls collide only when the simulator would
//!    answer them identically, so a hit can return the stored response
//!    verbatim and replay stays bit-for-bit.
//! 2. **Batch dedup, no in-flight state** — the executor coalesces a
//!    batch's duplicate calls before dispatch (the first occurrence
//!    computes; the rest share its response, counted as `coalesced`).
//!    The cache itself keeps no in-flight state: two threads that share
//!    it and miss the same key at the same moment each compute and bill
//!    the call, with identical answers, and the second admit replaces
//!    the first.
//! 3. **Disk spill** — [`SemanticCache::save`] writes a versioned,
//!    checksummed snapshot and [`SemanticCache::load`] restores it, so a
//!    service restart keeps a warm cache. A truncated or garbled
//!    snapshot is rejected (the caller starts cold); it never panics.
//!    Between full snapshots, a runtime checkpoints only what changed:
//!    [`SemanticCache::encode_section`] writes the cache's record of a
//!    checkpoint in the runtime's log, and a [`CacheReplica`] replays
//!    such sections on top of a snapshot.
//!
//! Hits cost zero dollars and zero tokens; they are reported with a
//! small fixed latency ([`HIT_LATENCY_S`]) so virtual-time accounting
//! still reflects a (fast) round trip to the cache tier.

use crate::noise;
use crate::sim::LlmResponse;
use crate::snapshot::{self, encode_value, esc, push_hex16, push_u64, Fields};
use crate::usage::UsageSnapshot;
use aida_data::Value;
use std::collections::{HashMap, HashSet};
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use crate::snapshot::SnapshotError;

/// A 128-bit content-addressed call key. Two independent 64-bit digests
/// over the same part stream make accidental collisions (which would
/// silently serve a wrong answer) astronomically unlikely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Primary digest ([`noise::combine`]).
    pub hi: u64,
    /// Secondary digest (independent mixing constants).
    pub lo: u64,
}

impl CacheKey {
    /// Builds a key from the ordered part stream.
    pub fn from_parts(parts: &[u64]) -> CacheKey {
        let mut key = KeyHasher::new();
        for p in parts {
            key.push(*p);
        }
        key.finish()
    }
}

/// The two digests of a [`CacheKey`], fed one part at a time, so a key is
/// built without collecting its parts first. Pushing a stream and
/// finishing equals [`CacheKey::from_parts`] over the same stream.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    hi: u64,
    lo: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

impl KeyHasher {
    /// The digests of the empty stream.
    pub fn new() -> KeyHasher {
        KeyHasher {
            hi: noise::COMBINE_SEED,
            lo: 0x6a09_e667_f3bc_c909,
        }
    }

    /// Appends one part: [`noise::combine`]'s fold step on `hi`, the
    /// independent one on `lo`.
    pub fn push(&mut self, p: u64) {
        self.hi = noise::combine_step(self.hi, p);
        self.lo = noise::splitmix64(self.lo ^ p.rotate_left(32));
    }

    /// The key of the parts pushed so far.
    pub fn finish(self) -> CacheKey {
        CacheKey {
            hi: self.hi,
            lo: self.lo,
        }
    }
}

/// Hashes a [`Value`] for key construction, tagging each variant so
/// `Int(1)` and `Bool(true)` (say) cannot collide.
fn hash_value(value: &Value) -> u64 {
    match value {
        Value::Null => noise::combine(&[0x11]),
        Value::Bool(b) => noise::combine(&[0x22, u64::from(*b)]),
        Value::Int(i) => noise::combine(&[0x33, *i as u64]),
        Value::Float(f) => noise::combine(&[0x44, f.to_bits()]),
        Value::Str(s) => noise::combine(&[0x55, noise::hash_str(s)]),
        Value::List(items) => {
            let head = noise::combine(&[0x66, items.len() as u64]);
            items
                .iter()
                .fold(head, |acc, item| noise::combine_step(acc, hash_value(item)))
        }
    }
}

/// The key parts of one label: `[hash_str(name), hash_value(value)]`.
/// What [`aida_data::Document::label_hashes`] memoizes per document.
pub(crate) fn label_hash(name: &str, value: &Value) -> [u64; 2] {
    [noise::hash_str(name), hash_value(value)]
}

/// Latency reported for an exact hit, in virtual seconds.
pub const HIT_LATENCY_S: f64 = 0.02;

/// Which store a [`SemanticCache`] is and how often a resident entry has
/// left it. Two equal tokens read from the same cache at two instants
/// mean no entry was evicted, cleared or replaced in between: every entry
/// resident at the first instant is still resident, with the same
/// response. Admitting a new entry does not change the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residency {
    store: u64,
    epoch: u64,
}

/// Source of [`Residency`] store ids: one per [`SemanticCache::with_capacity`].
static NEXT_STORE: AtomicU64 = AtomicU64::new(0);

/// A monotonic counter snapshot of cache activity. The difference of two
/// snapshots is a window's totals; one call's outcome is on its receipt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact hits served from the store.
    pub hits: u64,
    /// Calls that computed and admitted a new entry.
    pub misses: u64,
    /// Batch duplicates that shared another record's call
    /// ([`SemanticCache::record_coalesced`]).
    pub coalesced: u64,
    /// The subset of `hits` whose content key was derived from a compiled
    /// plan's bytecode hash rather than the raw program text — two
    /// textually different programs that lower to the same bytecode share
    /// one entry, and these hits count how often that sharing paid off.
    pub plan_hits: u64,
    /// Entries evicted by the capacity or byte budget.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: u64,
    /// Approximate resident bytes right now.
    pub bytes: u64,
}

impl CacheStats {
    /// Total lookups observed (hits + misses + coalesced).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// Hit rate counting coalesced duplicates as hits (they paid nothing).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / lookups as f64
        }
    }

    /// Monotonic-counter difference `self - earlier` (gauges `entries`
    /// and `bytes` keep the current value).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            plan_hits: self.plan_hits - earlier.plan_hits,
            evictions: self.evictions - earlier.evictions,
            entries: self.entries,
            bytes: self.bytes,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    resp: LlmResponse,
    bytes: usize,
    /// The last use's tick.
    tick: u64,
    /// The admission's tick: a delta section writes the entry in full
    /// when it is newer than the last checkpoint, by its key otherwise.
    born: u64,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    coalesced: u64,
    plan_hits: u64,
    evictions: u64,
    /// Bumped whenever a resident entry is removed or replaced.
    epoch: u64,
}

/// How far a checkpoint has read the store: the last tick it saw and
/// the residency epoch then. A delta section extending the checkpoint
/// carries what the store used after the tick, and exists only while no
/// entry has left the store since (a section has no record for a
/// removal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMark {
    tick: u64,
    epoch: u64,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    /// Maximum resident entries (0 = unbounded).
    capacity: usize,
    /// This store's [`Residency`] id, shared by its clones.
    store: u64,
}

/// The shared semantic call cache. Clones share one store.
#[derive(Debug, Clone)]
pub struct SemanticCache {
    inner: Arc<Inner>,
}

/// The outcome of [`SemanticCache::begin`].
pub enum Lookup {
    /// Exact hit: the stored response, zero marginal cost.
    Hit(LlmResponse),
    /// This caller must compute; admit the result with the key.
    Compute(Pending),
}

/// The missed key, for [`SemanticCache::admit`]. Dropping it without
/// admitting (a panic in the computation) leaves the key absent, so the
/// next [`SemanticCache::begin`] computes.
pub struct Pending {
    key: CacheKey,
}

impl SemanticCache {
    /// Creates an empty cache bounded to `capacity` entries (0 =
    /// unbounded); the least recently used entry is evicted first.
    pub fn with_capacity(capacity: usize) -> SemanticCache {
        SemanticCache {
            inner: Arc::new(Inner {
                state: Mutex::new(State::default()),
                capacity,
                store: NEXT_STORE.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }

    /// Looks `key` up. On a resident entry, bumps recency and returns
    /// [`Lookup::Hit`]. Otherwise counts a miss and returns
    /// [`Lookup::Compute`] — the caller runs the real call and must
    /// [`SemanticCache::admit`] it.
    pub fn begin(&self, key: CacheKey) -> Lookup {
        let mut st = self.inner.state.lock().unwrap();
        let state = &mut *st;
        if let Some(entry) = state.entries.get_mut(&key) {
            state.tick += 1;
            entry.tick = state.tick;
            state.hits += 1;
            return Lookup::Hit(entry.resp.clone());
        }
        state.misses += 1;
        Lookup::Compute(Pending { key })
    }

    /// Admits a computed response for the missed key, evicting LRU
    /// entries past the budgets.
    pub fn admit(&self, pending: Pending, resp: LlmResponse) {
        let key = pending.key;
        let bytes = approx_bytes(&resp);
        let mut st = self.inner.state.lock().unwrap();
        st.tick += 1;
        let tick = st.tick;
        st.bytes += bytes;
        let entry = Entry {
            resp,
            bytes,
            tick,
            born: tick,
        };
        // A `load`, or another thread's miss on the same key, may have
        // landed it while this call computed.
        if let Some(old) = st.entries.insert(key, entry) {
            st.bytes -= old.bytes;
            st.epoch += 1;
        }
        Self::evict_over_budget(&mut st, self.inner.capacity);
    }

    /// Records a hit whose key was derived from a compiled plan's content
    /// hash (see [`CacheStats::plan_hits`]). Called by the simulator after
    /// [`SemanticCache::begin`] returns [`Lookup::Hit`] for such a key.
    pub fn note_plan_hit(&self) {
        self.inner.state.lock().unwrap().plan_hits += 1;
    }

    /// Records `n` batch duplicates that shared another record's call
    /// (execution engines dedup virtually-simultaneous batches
    /// deterministically, before dispatch).
    pub fn record_coalesced(&self, n: u64) {
        self.inner.state.lock().unwrap().coalesced += n;
    }

    fn evict_over_budget(st: &mut State, capacity: usize) {
        while capacity > 0 && st.entries.len() > capacity {
            let victim = st
                .entries
                .iter()
                .min_by_key(|(key, e)| (e.tick, **key))
                .map(|(key, _)| *key);
            let Some(key) = victim else { break };
            if let Some(entry) = st.entries.remove(&key) {
                st.bytes -= entry.bytes;
                st.evictions += 1;
                st.epoch += 1;
            }
        }
    }

    /// The store's current [`Residency`] token.
    pub fn residency(&self) -> Residency {
        let st = self.inner.state.lock().unwrap();
        Residency {
            store: self.inner.store,
            epoch: st.epoch,
        }
    }

    /// Does what [`SemanticCache::begin`] does on a hit for each of `keys`,
    /// in order and under one lock: bumps the recency tick, stamps the
    /// entry with it and counts a hit. Refuses, changing nothing, when
    /// the store's token is no longer `token` or a key is not resident.
    pub fn touch_hits(&self, keys: &[CacheKey], token: Residency) -> bool {
        let mut st = self.inner.state.lock().unwrap();
        let state = &mut *st;
        if token.store != self.inner.store || token.epoch != state.epoch {
            return false;
        }
        let mut prior = Vec::with_capacity(keys.len());
        for key in keys {
            let Some(entry) = state.entries.get_mut(key) else {
                // Undo the touches already made, newest first.
                state.tick -= prior.len() as u64;
                for (key, tick) in keys.iter().zip(prior).rev() {
                    if let Some(entry) = state.entries.get_mut(key) {
                        entry.tick = tick;
                    }
                }
                return false;
            };
            state.tick += 1;
            prior.push(std::mem::replace(&mut entry.tick, state.tick));
        }
        state.hits += keys.len() as u64;
        true
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let st = self.inner.state.lock().unwrap();
        CacheStats {
            hits: st.hits,
            misses: st.misses,
            coalesced: st.coalesced,
            plan_hits: st.plan_hits,
            evictions: st.evictions,
            entries: st.entries.len() as u64,
            bytes: st.bytes as u64,
        }
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.entries.clear();
        st.bytes = 0;
        st.epoch += 1;
    }

    /// Writes a versioned, checksummed snapshot of the store via an
    /// atomic temp-file-and-rename commit, so a crash mid-save never
    /// clobbers the previous snapshot. Entries are written LRU→MRU so a
    /// reload preserves eviction order.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        snapshot::commit_atomic(path, &self.encode_snapshot().0, None)
    }

    /// The full snapshot [`SemanticCache::save`] writes, and the mark of
    /// the store it encodes.
    pub fn encode_snapshot(&self) -> (String, CacheMark) {
        let st = self.inner.state.lock().unwrap();
        let mut ordered: Vec<(&CacheKey, &Entry)> = st.entries.iter().collect();
        ordered.sort_by_key(|(key, e)| (e.tick, **key));
        let mut body = String::new();
        for (key, entry) in ordered {
            encode_entry(key, &entry.resp, &mut body);
            body.push('\n');
        }
        (snapshot::encode_file(MAGIC, &body), Self::mark_of(&st))
    }

    fn mark_of(st: &State) -> CacheMark {
        CacheMark {
            tick: st.tick,
            epoch: st.epoch,
        }
    }

    /// Appends to `out` the cache's section of a checkpoint: in tick
    /// order, the full line of each entry admitted after `since` and the
    /// bare key of each older entry re-ticked after it. Returns the
    /// store's new mark and whether the section carries any record, or
    /// `None`, writing nothing, when the checkpoint at `since` can no
    /// longer be extended: an entry has been evicted, cleared or
    /// replaced since.
    pub fn encode_section(&self, since: CacheMark, out: &mut String) -> Option<(CacheMark, bool)> {
        let st = self.inner.state.lock().unwrap();
        if st.epoch != since.epoch {
            return None;
        }
        let mut used: Vec<(&CacheKey, &Entry)> = st
            .entries
            .iter()
            .filter(|(_, e)| e.tick > since.tick)
            .collect();
        used.sort_unstable_by_key(|(_, e)| e.tick);
        for (i, (key, entry)) in used.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            if entry.born > since.tick {
                out.push_str("A\t");
                encode_entry(key, &entry.resp, out);
            } else {
                out.push_str("T\t");
                push_key(key, out);
            }
        }
        Some((Self::mark_of(&st), !used.is_empty()))
    }

    /// Loads a snapshot, merging its entries into the store (see
    /// [`SemanticCache::restore`]). Returns how many entries were
    /// restored. Any format, count, or checksum violation returns
    /// [`SnapshotError`] and leaves the store untouched — callers start
    /// cold instead of crashing.
    pub fn load(&self, path: &Path) -> Result<usize, SnapshotError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Ok(self.restore(CacheReplica::decode(&text)?))
    }

    /// Merges a replica's entries into the store, LRU→MRU, freshly
    /// ticked, then trims the store to its budget. Returns how many
    /// entries the replica held.
    pub fn restore(&self, replica: CacheReplica) -> usize {
        let entries = replica.into_entries();
        let n = entries.len();
        // Recovery must not panic: if another thread poisoned the lock,
        // take the state anyway — worst case the warm-start merge lands
        // on a cache that a dying thread left half-updated, which the
        // budget trim below re-normalizes.
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for (key, resp) in entries {
            let bytes = approx_bytes(&resp);
            st.tick += 1;
            let tick = st.tick;
            let entry = Entry {
                resp,
                bytes,
                tick,
                born: tick,
            };
            if let Some(old) = st.entries.insert(key, entry) {
                st.bytes -= old.bytes;
                st.epoch += 1;
            }
            st.bytes += bytes;
        }
        Self::evict_over_budget(&mut st, self.inner.capacity);
        n
    }
}

const MAGIC: &str = "aida-semcache v1";

/// Approximate resident size of a stored response, for the byte budget.
fn approx_bytes(resp: &LlmResponse) -> usize {
    64 + resp.text.len() + value_bytes(&resp.value)
}

fn value_bytes(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => 16,
        Value::Str(s) => 16 + s.len(),
        Value::List(items) => 16 + items.iter().map(value_bytes).sum::<usize>(),
    }
}

// ---- snapshot and delta-section encoding -------------------------------
//
// One tab-separated line per entry:
//   <hi:hex16> <lo:hex16> <in_tokens> <out_tokens> <latency_bits:hex16>
//   <corrupted 0|1> <value-enc> <text-escaped>
// The escaping and value codec are the shared ones in [`snapshot`].
//
// A checkpoint's section is newline-free: one record per entry used
// since the last checkpoint, in tick order, tab-separated:
//   A <entry line>     admitted since the last checkpoint
//   T <hi> <lo>        resident before it, re-ticked since
// An entry line has a fixed field count, so no second escaping level.

/// Appends `<hi> \t <lo>`, each as 16 hex digits.
fn push_key(key: &CacheKey, out: &mut String) {
    push_hex16(out, key.hi);
    out.push('\t');
    push_hex16(out, key.lo);
}

fn encode_entry(key: &CacheKey, resp: &LlmResponse, out: &mut String) {
    push_key(key, out);
    out.push('\t');
    push_u64(out, resp.input_tokens as u64);
    out.push('\t');
    push_u64(out, resp.output_tokens as u64);
    out.push('\t');
    push_hex16(out, resp.latency_s.to_bits());
    out.push_str(if resp.corrupted { "\t1\t" } else { "\t0\t" });
    encode_value(&resp.value, out);
    out.push('\t');
    esc(&resp.text, out);
}

fn read_key<'a>(
    fields: &mut Fields<impl Iterator<Item = &'a str>>,
) -> Result<CacheKey, SnapshotError> {
    Ok(CacheKey {
        hi: fields.hex("bad key.hi")?,
        lo: fields.hex("bad key.lo")?,
    })
}

fn read_entry<'a>(
    fields: &mut Fields<impl Iterator<Item = &'a str>>,
) -> Result<(CacheKey, LlmResponse), SnapshotError> {
    let key = read_key(fields)?;
    let resp = LlmResponse {
        input_tokens: fields.num("bad input_tokens")?,
        output_tokens: fields.num("bad output_tokens")?,
        latency_s: fields.f64_bits("bad latency bits")?,
        corrupted: fields.flag("bad corrupted flag")?,
        value: fields.value()?,
        text: fields.text()?,
        receipt: UsageSnapshot::default(),
    };
    Ok((key, resp))
}

fn decode_entry(line: &str) -> Result<(CacheKey, LlmResponse), SnapshotError> {
    let mut fields = Fields::new(line.split('\t'));
    let entry = read_entry(&mut fields)?;
    fields.end()?;
    Ok(entry)
}

/// A decoded section record: the key, and its response when it was
/// admitted (`None`: re-ticked).
type SectionRecord = (CacheKey, Option<LlmResponse>);

/// A delta section a [`CacheReplica`] has checked: it applies whole.
pub struct CacheSection(Vec<SectionRecord>);

/// A cache rebuilt off to the side from a snapshot and the delta
/// sections extending it, then merged into a live store whole
/// ([`SemanticCache::restore`]).
pub struct CacheReplica {
    /// Entries with their recency order; later is more recent.
    entries: HashMap<CacheKey, (u64, LlmResponse)>,
    order: u64,
}

impl CacheReplica {
    /// Decodes a snapshot [`SemanticCache::encode_snapshot`] wrote. Any
    /// format, count, or checksum violation is a [`SnapshotError`].
    pub fn decode(text: &str) -> Result<CacheReplica, SnapshotError> {
        let lines = snapshot::decode_file(MAGIC, text)?.lines();
        let mut replica = CacheReplica {
            entries: HashMap::new(),
            order: 0,
        };
        for line in lines {
            let (key, resp) = decode_entry(line)?;
            replica.order += 1;
            replica.entries.insert(key, (replica.order, resp));
        }
        Ok(replica)
    }

    /// Decodes a section and checks it applies here: naming each key
    /// once, an admitted key only when it is not resident and a
    /// re-ticked one only when it is.
    pub fn decode_section(&self, section: &str) -> Result<CacheSection, SnapshotError> {
        let mut fields = Fields::new(section.split('\t').filter(|_| !section.is_empty()));
        let mut seen = HashSet::new();
        let mut records = Vec::new();
        while let Some(tag) = fields.try_field() {
            let (key, resp) = match tag {
                "A" => read_entry(&mut fields).map(|(key, resp)| (key, Some(resp)))?,
                "T" => (read_key(&mut fields)?, None),
                _ => return Err(SnapshotError::Format("unknown section record".into())),
            };
            if !seen.insert(key) || self.entries.contains_key(&key) != resp.is_none() {
                return Err(SnapshotError::Format(
                    "section names a key it cannot".into(),
                ));
            }
            records.push((key, resp));
        }
        Ok(CacheSection(records))
    }

    /// Applies a checked section: admitted entries join as the most
    /// recent, re-ticked ones move there.
    pub fn apply(&mut self, section: CacheSection) {
        for (key, resp) in section.0 {
            self.order += 1;
            match resp {
                Some(resp) => {
                    self.entries.insert(key, (self.order, resp));
                }
                None => {
                    if let Some(slot) = self.entries.get_mut(&key) {
                        slot.0 = self.order;
                    }
                }
            }
        }
    }

    /// The entries, LRU→MRU.
    fn into_entries(self) -> Vec<(CacheKey, LlmResponse)> {
        let mut ordered: Vec<(u64, CacheKey, LlmResponse)> = self
            .entries
            .into_iter()
            .map(|(key, (order, resp))| (order, key, resp))
            .collect();
        ordered.sort_unstable_by_key(|(order, _, _)| *order);
        ordered
            .into_iter()
            .map(|(_, key, resp)| (key, resp))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(text: &str, value: Value) -> LlmResponse {
        LlmResponse {
            value,
            text: text.to_string(),
            input_tokens: 10,
            output_tokens: 4,
            latency_s: 1.5,
            corrupted: false,
            receipt: UsageSnapshot::default(),
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey::from_parts(&[n])
    }

    fn admit(cache: &SemanticCache, k: CacheKey, r: LlmResponse) {
        match cache.begin(k) {
            Lookup::Compute(pending) => cache.admit(pending, r),
            _ => panic!("expected compute"),
        }
    }

    #[test]
    fn miss_then_hit_round_trips_the_response() {
        let cache = SemanticCache::with_capacity(0);
        admit(&cache, key(1), resp("hello", Value::Int(7)));
        match cache.begin(key(1)) {
            Lookup::Hit(r) => {
                assert_eq!(r.value, Value::Int(7));
                assert_eq!(r.text, "hello");
            }
            _ => panic!("expected hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn keys_differ_by_any_part() {
        let a = CacheKey::from_parts(&[1, 2, 3]);
        let b = CacheKey::from_parts(&[1, 2, 4]);
        let c = CacheKey::from_parts(&[1, 2]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, CacheKey::from_parts(&[1, 2, 3]));
    }

    #[test]
    fn lru_eviction_respects_capacity_and_counts() {
        let cache = SemanticCache::with_capacity(2);
        admit(&cache, key(1), resp("a", Value::Null));
        admit(&cache, key(2), resp("b", Value::Null));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(matches!(cache.begin(key(1)), Lookup::Hit(_)));
        admit(&cache, key(3), resp("c", Value::Null));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(matches!(cache.begin(key(1)), Lookup::Hit(_)));
        assert!(matches!(cache.begin(key(2)), Lookup::Compute(_)));
    }

    #[test]
    fn abandoned_pending_leaves_the_key_absent() {
        let cache = SemanticCache::with_capacity(0);
        // The computation fails: its key is dropped without an admit.
        assert!(matches!(cache.begin(key(5)), Lookup::Compute(_)));
        // Nothing was admitted: the next caller computes.
        assert!(cache.is_empty());
        assert!(matches!(cache.begin(key(5)), Lookup::Compute(_)));
    }

    #[test]
    #[allow(clippy::excessive_precision)] // the extra digits probe f64 rounding
    fn snapshot_round_trips_every_value_shape() {
        let dir = std::env::temp_dir().join("aida-semcache-test-roundtrip");
        let path = dir.join("snap.cache");
        let cache = SemanticCache::with_capacity(0);
        let tricky = Value::List(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(13.1600000000000001),
            Value::Str("tabs\tand\nnewlines, [brackets] \\slashes".into()),
            Value::List(vec![]),
        ]);
        admit(&cache, key(1), resp("line one\nline two\ttabbed", tricky));
        admit(
            &cache,
            key(2),
            resp("plain", Value::Float(f64::MIN_POSITIVE)),
        );
        cache.save(&path).unwrap();

        let restored = SemanticCache::with_capacity(0);
        assert_eq!(restored.load(&path).unwrap(), 2);
        for k in [key(1), key(2)] {
            let (Lookup::Hit(a), Lookup::Hit(b)) = (cache.begin(k), restored.begin(k)) else {
                panic!("both caches should hit");
            };
            assert_eq!(a, b);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let dir = std::env::temp_dir().join("aida-semcache-test-truncated");
        let path = dir.join("snap.cache");
        let cache = SemanticCache::with_capacity(0);
        admit(&cache, key(1), resp("a", Value::Int(1)));
        admit(&cache, key(2), resp("b", Value::Int(2)));
        cache.save(&path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 10]).unwrap();
        let cold = SemanticCache::with_capacity(0);
        assert!(matches!(cold.load(&path), Err(SnapshotError::Format(_))));
        assert!(cold.is_empty(), "a rejected snapshot leaves the cache cold");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbled_snapshot_is_rejected() {
        let dir = std::env::temp_dir().join("aida-semcache-test-garbled");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.cache");
        std::fs::write(&path, "not a snapshot at all\n").unwrap();
        let cache = SemanticCache::with_capacity(0);
        assert!(matches!(cache.load(&path), Err(SnapshotError::Format(_))));
        // Flipping a payload byte breaks the checksum.
        let good = SemanticCache::with_capacity(0);
        admit(&good, key(3), resp("abc", Value::Str("xyz".into())));
        good.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.load(&path), Err(SnapshotError::Format(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bytes `cache` saves, which list its entries LRU→MRU.
    fn snapshot_bytes(cache: &SemanticCache, name: &str) -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!("aida-semcache-test-{name}"));
        let path = dir.join("snap.cache");
        cache.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    }

    /// Asserts `touch_hits` refuses and changes neither the counters nor
    /// the recency order.
    fn refused(cache: &SemanticCache, keys: &[CacheKey], token: Residency, name: &str) {
        let (stats, bytes) = (cache.stats(), snapshot_bytes(cache, name));
        assert!(!cache.touch_hits(keys, token), "a stale token is refused");
        assert_eq!(cache.stats(), stats);
        assert_eq!(snapshot_bytes(cache, name), bytes);
    }

    fn filled(capacity: usize, n: u64) -> SemanticCache {
        let cache = SemanticCache::with_capacity(capacity);
        for i in 1..=n {
            admit(&cache, key(i), resp(&format!("r{i}"), Value::Int(i as i64)));
        }
        cache
    }

    #[test]
    fn touch_hits_does_what_begin_does_on_hits() {
        let (touched, begun) = (filled(3, 3), filled(3, 3));
        let keys = [key(3), key(1), key(3), key(2)];
        for k in keys {
            assert!(matches!(begun.begin(k), Lookup::Hit(_)));
        }
        assert!(touched.touch_hits(&keys, touched.residency()));
        assert_eq!(touched.stats(), begun.stats());
        assert_eq!(
            snapshot_bytes(&touched, "touch-a"),
            snapshot_bytes(&begun, "touch-b")
        );
        // The same recency: the next admit evicts the same victim.
        admit(&touched, key(4), resp("r4", Value::Null));
        admit(&begun, key(4), resp("r4", Value::Null));
        assert_eq!(
            snapshot_bytes(&touched, "touch-a"),
            snapshot_bytes(&begun, "touch-b")
        );
    }

    #[test]
    fn admits_keep_the_token_and_clones_share_it() {
        let cache = filled(0, 2);
        let token = cache.residency();
        admit(&cache, key(3), resp("r3", Value::Null));
        assert_eq!(cache.residency(), token);
        assert_eq!(cache.clone().residency(), token);
        assert!(cache.clone().touch_hits(&[key(1)], token));
    }

    #[test]
    fn an_eviction_stales_the_token() {
        let cache = filled(2, 2);
        let token = cache.residency();
        admit(&cache, key(3), resp("r3", Value::Null)); // evicts key 1
        refused(&cache, &[key(2), key(3)], token, "evicted");
    }

    #[test]
    fn a_clear_stales_the_token() {
        let cache = filled(0, 2);
        let token = cache.residency();
        cache.clear();
        // The same entries, re-admitted: resident again, but not since.
        admit(&cache, key(1), resp("r1", Value::Int(1)));
        admit(&cache, key(2), resp("r2", Value::Int(2)));
        refused(&cache, &[key(1), key(2)], token, "cleared");
    }

    #[test]
    fn an_overwriting_load_stales_the_token() {
        let dir = std::env::temp_dir().join("aida-semcache-test-overwrite");
        let path = dir.join("snap.cache");
        let cache = filled(0, 2);
        cache.save(&path).unwrap();
        let token = cache.residency();
        assert_eq!(cache.load(&path).unwrap(), 2);
        refused(&cache, &[key(1), key(2)], token, "overwritten");
        // A load of new keys only replaces nothing.
        filled(0, 0).save(&path).unwrap();
        let token = cache.residency();
        cache.load(&path).unwrap();
        assert_eq!(cache.residency(), token);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn another_stores_token_is_refused() {
        let (cache, twin) = (filled(0, 2), filled(0, 2));
        assert_ne!(cache.residency(), twin.residency());
        refused(&cache, &[key(1)], twin.residency(), "other-store");
    }

    #[test]
    fn a_key_that_is_not_resident_changes_nothing() {
        let cache = filled(0, 2);
        refused(&cache, &[key(1), key(9)], cache.residency(), "absent");
        refused(
            &cache,
            &[key(1), key(2), key(1), key(9)],
            cache.residency(),
            "absent",
        );
    }

    #[test]
    fn delta_since_isolates_one_window() {
        let cache = SemanticCache::with_capacity(0);
        admit(&cache, key(1), resp("a", Value::Null));
        let before = cache.stats();
        assert!(matches!(cache.begin(key(1)), Lookup::Hit(_)));
        cache.record_coalesced(3);
        let delta = cache.stats().delta_since(&before);
        assert_eq!((delta.hits, delta.misses, delta.coalesced), (1, 0, 3));
        assert!(delta.hit_rate() > 0.99);
    }
}
