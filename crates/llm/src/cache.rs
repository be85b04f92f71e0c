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
//! 2. **In-flight dedup** — when concurrent workers issue the same call
//!    before the first one lands, only the first computes; the rest
//!    block on a pending marker and share the result, counted as
//!    `coalesced` (one simulated call billed for the whole group).
//! 3. **Disk spill** — [`SemanticCache::save`] writes a versioned,
//!    checksummed snapshot and [`SemanticCache::load`] restores it, so a
//!    service restart keeps a warm cache. A truncated or garbled
//!    snapshot is rejected (the caller starts cold); it never panics.
//!
//! Hits cost zero dollars and zero tokens; they are reported with a
//! small fixed latency ([`HIT_LATENCY_S`]) so virtual-time accounting
//! still reflects a (fast) round trip to the cache tier.

use crate::noise;
use crate::sim::LlmResponse;
use crate::snapshot::{self, decode_value, encode_value, esc, unesc, FailPlan};
use aida_data::Value;
use std::collections::HashMap;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

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
        let mut alt = 0x6a09_e667_f3bc_c909u64;
        for p in parts {
            alt = noise::splitmix64(alt ^ p.rotate_left(32));
        }
        CacheKey {
            hi: noise::combine(parts),
            lo: alt,
        }
    }
}

/// Hashes a [`Value`] for key construction, tagging each variant so
/// `Int(1)` and `Bool(true)` (say) cannot collide.
pub fn hash_value(value: &Value) -> u64 {
    match value {
        Value::Null => noise::combine(&[0x11]),
        Value::Bool(b) => noise::combine(&[0x22, u64::from(*b)]),
        Value::Int(i) => noise::combine(&[0x33, *i as u64]),
        Value::Float(f) => noise::combine(&[0x44, f.to_bits()]),
        Value::Str(s) => noise::combine(&[0x55, noise::hash_str(s)]),
        Value::List(items) => {
            let mut parts = vec![0x66u64, items.len() as u64];
            parts.extend(items.iter().map(hash_value));
            noise::combine(&parts)
        }
    }
}

/// Latency reported for an exact hit, in virtual seconds.
pub(crate) const HIT_LATENCY_S: f64 = 0.02;

/// A monotonic counter snapshot of cache activity. Deltas between two
/// snapshots attribute hits to one query or tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact hits served from the store.
    pub hits: u64,
    /// Calls that computed and admitted a new entry.
    pub misses: u64,
    /// Calls that shared another caller's in-flight computation (or a
    /// batch-deduplicated duplicate).
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

    /// Hit rate counting coalesced waiters as hits (they paid nothing).
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
    tick: u64,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<CacheKey, Entry>,
    pending: std::collections::HashSet<CacheKey>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    coalesced: u64,
    plan_hits: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    cond: Condvar,
    /// Maximum resident entries (0 = unbounded).
    capacity: usize,
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
    /// Shared an in-flight computation: the freshly admitted response.
    Coalesced(LlmResponse),
    /// This caller must compute; admit the result via the guard.
    Compute(Pending),
}

/// Marks a key as in-flight until [`SemanticCache::admit`] lands the
/// response. Dropping it without admitting (a panic in the computation)
/// releases the key so waiters retry instead of deadlocking.
pub struct Pending {
    cache: SemanticCache,
    key: CacheKey,
    admitted: bool,
}

impl Drop for Pending {
    fn drop(&mut self) {
        if !self.admitted {
            let mut st = self.cache.inner.state.lock().unwrap();
            st.pending.remove(&self.key);
            drop(st);
            self.cache.inner.cond.notify_all();
        }
    }
}

impl SemanticCache {
    /// Creates an empty cache bounded to `capacity` entries (0 =
    /// unbounded); the least recently used entry is evicted first.
    pub fn with_capacity(capacity: usize) -> SemanticCache {
        SemanticCache {
            inner: Arc::new(Inner {
                state: Mutex::new(State::default()),
                cond: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Looks `key` up. On a resident entry, bumps recency and returns
    /// [`Lookup::Hit`]. If another caller is computing the same key,
    /// blocks until it lands and returns [`Lookup::Coalesced`]. Otherwise
    /// marks the key in-flight and returns [`Lookup::Compute`] — the
    /// caller runs the real call and must [`SemanticCache::admit`] it.
    pub fn begin(&self, key: CacheKey) -> Lookup {
        let mut st = self.inner.state.lock().unwrap();
        let mut waited = false;
        loop {
            if st.entries.contains_key(&key) {
                st.tick += 1;
                let tick = st.tick;
                let entry = st.entries.get_mut(&key).expect("entry present");
                entry.tick = tick;
                let resp = entry.resp.clone();
                return if waited {
                    st.coalesced += 1;
                    Lookup::Coalesced(resp)
                } else {
                    st.hits += 1;
                    Lookup::Hit(resp)
                };
            }
            if st.pending.contains(&key) {
                waited = true;
                st = self.inner.cond.wait(st).unwrap();
                continue;
            }
            st.pending.insert(key);
            st.misses += 1;
            return Lookup::Compute(Pending {
                cache: self.clone(),
                key,
                admitted: false,
            });
        }
    }

    /// Admits a computed response for the pending key, waking any
    /// coalesced waiters and evicting LRU entries past the budgets.
    pub fn admit(&self, mut pending: Pending, resp: LlmResponse) {
        pending.admitted = true;
        let key = pending.key;
        let bytes = approx_bytes(&resp);
        let mut st = self.inner.state.lock().unwrap();
        st.pending.remove(&key);
        st.tick += 1;
        let tick = st.tick;
        st.bytes += bytes;
        st.entries.insert(key, Entry { resp, bytes, tick });
        Self::evict_over_budget(&mut st, self.inner.capacity);
        drop(st);
        self.inner.cond.notify_all();
    }

    /// Records a hit whose key was derived from a compiled plan's content
    /// hash (see [`CacheStats::plan_hits`]). Called by the simulator after
    /// [`SemanticCache::begin`] returns [`Lookup::Hit`] for such a key.
    pub fn note_plan_hit(&self) {
        self.inner.state.lock().unwrap().plan_hits += 1;
    }

    /// Records `n` batch-deduplicated duplicates that shared one call
    /// without going through the pending machinery (execution engines
    /// dedup virtually-simultaneous batches deterministically).
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
            }
        }
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
    }

    /// Writes a versioned, checksummed snapshot of the store via an
    /// atomic temp-file-and-rename commit, so a crash mid-save never
    /// clobbers the previous snapshot. Entries are written LRU→MRU so a
    /// reload preserves eviction order.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.save_with(path, None)
    }

    /// [`SemanticCache::save`] with an optional crash-injection plan
    /// (threaded through by the durability suite).
    fn save_with(&self, path: &Path, plan: Option<&FailPlan>) -> std::io::Result<()> {
        let body = {
            let st = self.inner.state.lock().unwrap();
            let mut ordered: Vec<(&CacheKey, &Entry)> = st.entries.iter().collect();
            ordered.sort_by_key(|(key, e)| (e.tick, **key));
            let mut body = String::new();
            for (key, entry) in ordered {
                body.push_str(&encode_entry(key, &entry.resp));
                body.push('\n');
            }
            body
        };
        snapshot::commit_atomic(path, &snapshot::encode_file(MAGIC, &body), plan)
    }

    /// Loads a snapshot, merging its entries into the store (freshly
    /// ticked, then trimmed to the budgets). Returns how many entries
    /// were restored. Any format, count, or checksum violation returns
    /// [`SnapshotError`] and leaves the store untouched — callers start
    /// cold instead of crashing.
    pub fn load(&self, path: &Path) -> Result<usize, SnapshotError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        let entries = decode_snapshot(&text)?;
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
            if let Some(old) = st.entries.insert(key, Entry { resp, bytes, tick }) {
                st.bytes -= old.bytes;
            }
            st.bytes += bytes;
        }
        Self::evict_over_budget(&mut st, self.inner.capacity);
        Ok(n)
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

// ---- snapshot encoding -------------------------------------------------
//
// One tab-separated line per entry:
//   <hi:hex16> <lo:hex16> <in_tokens> <out_tokens> <latency_bits:hex16>
//   <corrupted 0|1> <value-enc> <text-escaped>
// The escaping and value codec are the shared ones in [`snapshot`].

fn encode_entry(key: &CacheKey, resp: &LlmResponse) -> String {
    let mut line = format!(
        "{:016x}\t{:016x}\t{}\t{}\t{:016x}\t{}\t",
        key.hi,
        key.lo,
        resp.input_tokens,
        resp.output_tokens,
        resp.latency_s.to_bits(),
        u8::from(resp.corrupted),
    );
    encode_value(&resp.value, &mut line);
    line.push('\t');
    esc(&resp.text, &mut line);
    line
}

fn decode_entry(line: &str) -> Result<(CacheKey, LlmResponse), SnapshotError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != 8 {
        return Err(SnapshotError::Format(format!(
            "expected 8 fields, got {}",
            fields.len()
        )));
    }
    let hex = |raw: &str, what: &str| {
        u64::from_str_radix(raw, 16).map_err(|_| SnapshotError::Format(format!("bad {what}")))
    };
    let key = CacheKey {
        hi: hex(fields[0], "key.hi")?,
        lo: hex(fields[1], "key.lo")?,
    };
    let input_tokens = fields[2]
        .parse::<usize>()
        .map_err(|_| SnapshotError::Format("bad input_tokens".into()))?;
    let output_tokens = fields[3]
        .parse::<usize>()
        .map_err(|_| SnapshotError::Format("bad output_tokens".into()))?;
    let latency_s = f64::from_bits(hex(fields[4], "latency bits")?);
    let corrupted = match fields[5] {
        "0" => false,
        "1" => true,
        _ => return Err(SnapshotError::Format("bad corrupted flag".into())),
    };
    Ok((
        key,
        LlmResponse {
            value: decode_value(fields[6])?,
            text: unesc(fields[7])?.into_owned(),
            input_tokens,
            output_tokens,
            latency_s,
            corrupted,
        },
    ))
}

fn decode_snapshot(text: &str) -> Result<Vec<(CacheKey, LlmResponse)>, SnapshotError> {
    let body = snapshot::decode_file(MAGIC, text)?;
    let mut entries = Vec::new();
    for line in body.lines() {
        entries.push(decode_entry(line)?);
    }
    Ok(entries)
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
    fn concurrent_same_key_charges_once() {
        let cache = SemanticCache::with_capacity(0);
        let computed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = cache.clone();
                let computed = &computed;
                scope.spawn(move || match cache.begin(key(9)) {
                    Lookup::Compute(pending) => {
                        // Hold the pending marker long enough for the
                        // other threads to pile up on it.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        computed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        cache.admit(pending, resp("once", Value::Null));
                    }
                    Lookup::Hit(r) | Lookup::Coalesced(r) => assert_eq!(r.text, "once"),
                });
            }
        });
        assert_eq!(computed.load(std::sync::atomic::Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
    }

    #[test]
    fn abandoned_pending_unblocks_waiters() {
        let cache = SemanticCache::with_capacity(0);
        match cache.begin(key(5)) {
            Lookup::Compute(pending) => drop(pending),
            _ => panic!("expected compute"),
        }
        // The key is free again: a second caller gets to compute.
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
