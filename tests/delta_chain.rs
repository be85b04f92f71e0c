//! The runtime's delta chain replays to its checkpoints, byte for byte,
//! and a crash leaves both durable stores at one checkpoint.
//!
//! `base_plus_chain_recovers_the_last_checkpoint`: a runtime whose only
//! durable store is the semantic cache runs a random sequence of uses (a
//! miss admits, a hit re-ticks), batched hits, clears, checkpoints,
//! explicit saves and saves of a copy elsewhere, with a capacity of a
//! few entries so evictions happen; a twin cache runs the same uses
//! without writing anything. A runtime rebuilt over the directory must
//! hold the twin's cache as it was at the last durable write.
//!
//! `a_crash_recovers_both_stores_at_one_checkpoint`: a runtime with both
//! stores durable runs random Context registrations (evicting over a
//! small capacity), reuse hits, cache uses and checkpoints, and one
//! seed-chosen crash in a frame append or a snapshot commit. The stores
//! a restart recovers must equal the live pair at one checkpoint.
//!
//! `ci.sh` runs both in release at the full case count.

use aida::core::{Context, Runtime};
use aida::data::{DataLake, Document, Value};
use aida::llm::cache::Lookup;
use aida::llm::snapshot::{CrashPoint, FailPlan};
use aida::llm::{CacheKey, LlmResponse, SemanticCache, UsageSnapshot};
use aida_testkit::TestDir;
use proptest::prelude::*;
use std::fs;
use std::path::Path;

const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 2048 };

fn key(k: u64) -> CacheKey {
    CacheKey::from_parts(&[k])
}

/// A response whose text and value tell the keys apart, with the
/// characters the entry codec escapes.
fn response(k: u64) -> LlmResponse {
    LlmResponse {
        value: Value::List(vec![
            Value::Int(k as i64),
            Value::Str(format!("v,{k}]").into()),
        ]),
        text: format!("answer {k}\tline\n{}", "x".repeat(k as usize)),
        input_tokens: 10 + k as usize,
        output_tokens: 3,
        latency_s: 0.25 * k as f64,
        corrupted: k.is_multiple_of(3),
        receipt: UsageSnapshot::default(),
    }
}

/// A miss admits the key's response; a hit re-ticks it.
fn use_key(cache: &SemanticCache, k: u64) {
    if let Lookup::Compute(pending) = cache.begin(key(k)) {
        cache.admit(pending, response(k));
    }
}

/// A delta-mode runtime over `dir`: its semantic cache (`capacity`
/// entries) is durable and, with `contexts`, its Context store too,
/// bounded at that many Contexts.
fn runtime(dir: &TestDir, capacity: usize, contexts: Option<usize>, full_every: u64) -> Runtime {
    let mut builder = Runtime::builder()
        .seed(3)
        .semantic_cache(capacity)
        .cache_path(dir.file("cache.bin"))
        .delta_checkpoints(true)
        .full_snapshot_every(full_every);
    if let Some(contexts) = contexts {
        builder = builder
            .context_capacity(contexts)
            .state_path(dir.file("state.bin"));
    }
    builder.build()
}

fn cache(rt: &Runtime) -> &SemanticCache {
    rt.semantic_cache().expect("cache enabled")
}

/// The snapshot `cache` would save.
fn cache_text(cache: &SemanticCache) -> String {
    cache.encode_snapshot().0
}

fn chain_len(rt: &Runtime) -> u64 {
    let chain = rt.delta_path().expect("a durable store");
    fs::metadata(chain).map(|m| m.len()).unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn base_plus_chain_recovers_the_last_checkpoint(
        capacity in 1usize..7,
        full_every in 1u64..6,
        ops in prop::collection::vec((0u8..11, 0u64..10), 1..40),
    ) {
        let dir = TestDir::new("chain-cache");
        let live = runtime(&dir, capacity, None, full_every);
        let twin = SemanticCache::with_capacity(capacity);
        let mut expected = None;
        for (kind, k) in ops {
            match kind {
                0..=4 => {
                    use_key(cache(&live), k);
                    use_key(&twin, k);
                }
                5 => {
                    let keys = [key(k), key((k + 1) % 10)];
                    let hit = cache(&live).touch_hits(&keys, cache(&live).residency());
                    prop_assert_eq!(hit, twin.touch_hits(&keys, twin.residency()));
                }
                6 => {
                    cache(&live).clear();
                    twin.clear();
                }
                7 | 8 => {
                    prop_assert!(live.save_state().unwrap());
                    expected = Some(cache_text(&twin));
                }
                9 => {
                    prop_assert!(live.save_cache().unwrap());
                    expected = Some(cache_text(&twin));
                }
                // A copy saved elsewhere leaves the chain alone.
                _ => cache(&live).save(&dir.file("copy.bin")).unwrap(),
            }
        }
        if let Some(expected) = expected {
            let restarted = runtime(&dir, capacity, None, full_every);
            prop_assert_eq!(cache_text(cache(&restarted)), expected);
        }
    }

    #[test]
    fn a_crash_recovers_both_stores_at_one_checkpoint(
        capacities in (1usize..4, 1usize..6),
        full_every in 1u64..4,
        ops in prop::collection::vec((0u8..10, 0u64..6), 1..40),
        crash in (0usize..CRASHES.len(), any::<u64>()),
    ) {
        let ((contexts, entries), (point, seed)) = (capacities, crash);
        let dir = TestDir::new("chain-crash");
        let live = runtime(&dir, entries, Some(contexts), full_every);
        let lake = DataLake::from_docs([Document::new("shared.txt", "one document")]);
        let plan = FailPlan::seeded(CRASHES[point], seed);
        let empty = pair(&runtime(&TestDir::new("chain-empty"), entries, Some(contexts), 1));
        // The live pair at the last checkpoint that returned, and at the
        // one that crashed.
        let mut committed = empty;
        let mut attempted = None;
        for (kind, k) in ops {
            match kind {
                0 | 1 => {
                    let ctx = Context::builder(format!("c{k}"), lake.clone())
                        .description(instruction(k))
                        .build(&live);
                    live.manager().register(&instruction(k), ctx, 0.1 * (k + 1) as f64);
                }
                2 => {
                    live.manager().reuse(&instruction(k), 0.99);
                }
                3..=5 => use_key(cache(&live), k),
                6 => {
                    cache(&live).touch_hits(&[key(k), key(k + 1)], cache(&live).residency());
                }
                _ => {
                    let now = pair(&live);
                    if live.save_state_with(Some(&plan)).is_err() {
                        attempted = Some(now);
                        break;
                    }
                    committed = now;
                }
            }
        }
        let recovered = pair(&runtime(&dir, entries, Some(contexts), full_every));
        let Some(attempted) = attempted else {
            prop_assert_eq!(recovered, committed);
            return Ok(());
        };
        // The frame is lost whole; a full rewrite is lost until its state
        // snapshot commits, and kept once its cache snapshot has too.
        // Between the two commits the Context store holds the new
        // snapshot and the cache replays its chain to the checkpoint
        // before.
        let on_disk = |name| fs::read_to_string(dir.file(name)).unwrap_or_default();
        let expected = match (on_disk("state.bin") == attempted.0, on_disk("cache.bin") == attempted.1) {
            (true, true) => attempted,
            (true, false) => (attempted.0, committed.1),
            (false, _) => committed,
        };
        prop_assert_eq!(recovered, expected);
    }
}

/// The crash points a checkpoint passes: the frame append, and the
/// commits of a full rewrite.
const CRASHES: [CrashPoint; 5] = [
    CrashPoint::DeltaTornAppend,
    CrashPoint::SnapshotBeforeWrite,
    CrashPoint::SnapshotTornWrite,
    CrashPoint::SnapshotBeforeRename,
    CrashPoint::SnapshotAfterCommit,
];

fn instruction(k: u64) -> String {
    format!("find the reports of year {}", 2000 + k)
}

/// The live Context store and cache as full snapshots.
fn pair(rt: &Runtime) -> (String, String) {
    (rt.manager().encode_snapshot(), cache_text(cache(rt)))
}

/// The chain is what the checkpoints write while nothing leaves the
/// store: one frame each, smaller than the snapshot, and a checkpoint
/// with nothing used since writes nothing. An eviction, a restart and
/// an explicit save each make the next write a full one.
#[test]
fn checkpoints_append_frames_until_something_leaves() {
    let dir = TestDir::new("chain-frames");
    let snapshot = |path: &Path| fs::read(path).unwrap();
    let path = dir.file("cache.bin");
    let rt = runtime(&dir, 8, None, 16);
    (0..4).for_each(|k| use_key(cache(&rt), k));
    rt.save_state().unwrap();
    assert!(path.exists(), "first: full");
    assert_eq!(chain_len(&rt), 0);

    use_key(cache(&rt), 1); // re-tick
    use_key(cache(&rt), 4); // admit
    rt.save_state().unwrap();
    let frame = chain_len(&rt);
    assert!(frame > 0 && frame < fs::metadata(&path).unwrap().len());
    rt.save_state().unwrap();
    assert_eq!(chain_len(&rt), frame, "nothing used: nothing written");

    (5..9).for_each(|k| use_key(cache(&rt), k)); // nine keys: one evicted
    let before = snapshot(&path);
    rt.save_state().unwrap();
    assert_ne!(snapshot(&path), before, "full rewrite");
    assert_eq!(chain_len(&rt), 0, "the chain went with it");

    use_key(cache(&rt), 2);
    rt.save_state().unwrap();
    assert!(chain_len(&rt) > 0);
    rt.save_cache().unwrap();
    assert_eq!(chain_len(&rt), 0, "an explicit save is always full");

    use_key(cache(&rt), 3);
    rt.save_state().unwrap();
    let restored = runtime(&dir, 8, None, 16);
    assert_eq!(cache(&restored).len(), 8);
    use_key(cache(&restored), 3);
    restored.save_state().unwrap();
    assert_eq!(chain_len(&restored), 0, "after a restart: full");
    use_key(cache(&restored), 2);
    restored.save_state().unwrap();
    assert!(chain_len(&restored) > 0, "then a frame");
}

/// With both stores durable, each checkpoint is one frame in one chain
/// beside the state snapshot, and nothing is written beside the cache's.
#[test]
fn both_stores_share_one_chain() {
    let dir = TestDir::new("chain-shared");
    let rt = runtime(&dir, 8, Some(4), 16);
    let lake = DataLake::from_docs([Document::new("shared.txt", "one document")]);
    let register = |k: u64| {
        let ctx = Context::builder(format!("c{k}"), lake.clone()).build(&rt);
        rt.manager().register(&instruction(k), ctx, 1.0);
    };
    register(0);
    use_key(cache(&rt), 0);
    rt.save_state().unwrap(); // both snapshots
    register(1);
    use_key(cache(&rt), 1);
    rt.save_state().unwrap(); // one frame
    rt.manager().reuse(&instruction(0), 0.99);
    rt.save_state().unwrap(); // a frame with the state's section only
    let chain = rt.delta_path().unwrap();
    assert_eq!(
        chain,
        aida::llm::snapshot::delta_path(&dir.file("state.bin"))
    );
    let frames = aida::llm::snapshot::wal_replay(&chain).unwrap().records;
    assert_eq!(frames.len(), 2);
    assert!(!aida::llm::snapshot::delta_path(&dir.file("cache.bin")).exists());
    let restarted = runtime(&dir, 8, Some(4), 16);
    assert_eq!(pair(&restarted), pair(&rt));
}
