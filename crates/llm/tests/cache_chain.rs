//! The semantic cache's delta chain replays to its checkpoints, byte for
//! byte.
//!
//! A live cache runs a random sequence of uses (a miss admits, a hit
//! re-ticks), batched hits, clears, ops-interval checkpoints, explicit
//! saves, and saves and checkpoints to another path, with a capacity of
//! a few entries so evictions happen; a twin runs the same uses without
//! writing anything. After the sequence, a fresh cache loads the live
//! cache's snapshot and chain and saves it: the bytes must equal the
//! twin's full save at the live cache's last durable write. `ci.sh` runs
//! it in release at the full case count.

use aida_data::Value;
use aida_llm::cache::Lookup;
use aida_llm::{CacheKey, LlmResponse, SemanticCache, UsageSnapshot};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("aida-cache-chain-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The bytes `cache` saves to `path`.
fn saved(cache: &SemanticCache, path: &Path) -> Vec<u8> {
    cache.save(path).unwrap();
    std::fs::read(path).unwrap()
}

fn chain_len(path: &Path) -> u64 {
    let mut os = path.as_os_str().to_owned();
    os.push(".delta");
    std::fs::metadata(PathBuf::from(os))
        .map(|m| m.len())
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn base_plus_chain_saves_like_the_last_checkpoint(
        capacity in 1usize..7,
        full_every in 1u64..6,
        ops in prop::collection::vec((0u8..12, 0u64..10), 1..40),
    ) {
        let d = dir("prop");
        let (path, side, copy) = (d.join("cache.bin"), d.join("twin.bin"), d.join("copy.bin"));
        let live = SemanticCache::with_capacity(capacity);
        let twin = SemanticCache::with_capacity(capacity);
        let mut expected = None;
        for (kind, k) in ops {
            match kind {
                0..=4 => {
                    use_key(&live, k);
                    use_key(&twin, k);
                }
                5 => {
                    let keys = [key(k), key((k + 1) % 10)];
                    let hit = live.touch_hits(&keys, live.residency());
                    prop_assert_eq!(hit, twin.touch_hits(&keys, twin.residency()));
                }
                6 => {
                    live.clear();
                    twin.clear();
                }
                7 | 8 => {
                    live.checkpoint(&path, full_every, None).unwrap();
                    expected = Some(saved(&twin, &side));
                }
                9 => {
                    live.save(&path).unwrap();
                    expected = Some(saved(&twin, &side));
                }
                // A copy saved elsewhere leaves the chain alone.
                10 => live.save(&copy).unwrap(),
                // Checkpoints elsewhere move the chain there: the next
                // one to `path` rewrites it in full.
                _ => {
                    live.checkpoint(&copy, full_every, None).unwrap();
                }
            }
        }
        if let Some(expected) = expected {
            let fresh = SemanticCache::with_capacity(capacity);
            let n = fresh.load(&path).unwrap();
            prop_assert_eq!(n, fresh.len());
            prop_assert!(saved(&fresh, &d.join("fresh.bin")) == expected);
        }
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// The chain is what the checkpoints write while nothing leaves the
/// store: one frame each, smaller than the snapshot, and a checkpoint
/// with nothing used since writes nothing. An eviction, a load and an
/// explicit save each make the next write a full one.
#[test]
fn checkpoints_append_frames_until_something_leaves() {
    let d = dir("frames");
    let path = d.join("cache.bin");
    let cache = SemanticCache::with_capacity(8);
    (0..4).for_each(|k| use_key(&cache, k));
    let full = cache.checkpoint(&path, 16, None).unwrap();
    assert_eq!(full, std::fs::metadata(&path).unwrap().len(), "first: full");
    assert_eq!(chain_len(&path), 0);

    use_key(&cache, 1); // re-tick
    use_key(&cache, 4); // admit
    let frame = cache.checkpoint(&path, 16, None).unwrap();
    assert_eq!(chain_len(&path), frame);
    assert!(frame > 0 && frame < full);
    assert_eq!(
        cache.checkpoint(&path, 16, None).unwrap(),
        0,
        "nothing used"
    );

    (5..9).for_each(|k| use_key(&cache, k)); // nine keys: one evicted
    let before = std::fs::read(&path).unwrap();
    cache.checkpoint(&path, 16, None).unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), before, "full rewrite");
    assert_eq!(chain_len(&path), 0, "the chain went with it");

    use_key(&cache, 2);
    cache.checkpoint(&path, 16, None).unwrap();
    assert!(chain_len(&path) > 0);
    cache.save(&path).unwrap();
    assert_eq!(chain_len(&path), 0, "an explicit save is always full");

    use_key(&cache, 3);
    cache.checkpoint(&path, 16, None).unwrap();
    let restored = SemanticCache::with_capacity(8);
    assert_eq!(restored.load(&path).unwrap(), 8);
    use_key(&restored, 3);
    restored.checkpoint(&path, 16, None).unwrap();
    assert_eq!(chain_len(&path), 0, "after a load: full");

    // Checkpoints that move to another path rewrite it in full once, then
    // extend its chain.
    let moved = d.join("moved.bin");
    restored.checkpoint(&moved, 16, None).unwrap();
    assert_eq!(chain_len(&moved), 0);
    use_key(&restored, 2);
    restored.checkpoint(&moved, 16, None).unwrap();
    assert!(chain_len(&moved) > 0, "then a frame");
    let _ = std::fs::remove_dir_all(&d);
}
