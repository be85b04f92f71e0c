//! The runtime's log replays to its checkpoints, byte for byte, and a
//! crash leaves both durable stores at one checkpoint, with the ledger
//! that shares the log at a record prefix.
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
//! stores durable and a tenant ledger in its log runs random Context
//! registrations (evicting over a small capacity), reuse hits, cache
//! uses, ledger records (committed in groups) and checkpoints, and one
//! seed-chosen crash at any point of the log or the manifest. The stores
//! a restart recovers must equal the live pair at one checkpoint, and the
//! ledger a record prefix that loses no more than one group.
//!
//! `ci.sh` runs both in release at the full case count.

use aida::core::{Context, Runtime};
use aida::data::{DataLake, Document, Value};
use aida::llm::cache::Lookup;
use aida::llm::snapshot::{read_records, CrashPoint, FailPlan, StoreId};
use aida::llm::{CacheKey, LlmResponse, SemanticCache, UsageSnapshot};
use aida::serve::{LedgerRecord, LedgerWal, TenantLedger};
use aida_testkit::TestDir;
use proptest::prelude::*;
use std::fs;
use std::sync::Arc;

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

/// The bytes of `rt`'s log segments.
fn log_len(rt: &Runtime) -> u64 {
    let segments = rt.log().expect("a durable store").lock().segment_paths();
    segments
        .iter()
        .map(|p| fs::metadata(p).unwrap().len())
        .sum()
}

/// `store`'s current snapshot in `rt`'s log.
fn snapshot(rt: &Runtime, store: StoreId) -> Vec<u8> {
    let path = rt.log().unwrap().lock().snapshot_path(store);
    path.map(|path| fs::read(path).unwrap()).unwrap_or_default()
}

/// The ledger of `rt`'s log, recovered.
fn ledger(rt: &Runtime, dir: &TestDir) -> TenantLedger {
    let mut ledger = TenantLedger::new();
    let mut wal = LedgerWal::open(dir.file("ledger")).join(rt.log().unwrap());
    wal.recover(&mut ledger).expect("the ledger recovers");
    ledger
}

/// Per-tenant spend bits of a ledger.
fn spends(ledger: &TenantLedger) -> Vec<(String, u64)> {
    let spends = ledger.spends();
    spends
        .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
        .collect()
}

fn spend(k: u64) -> LedgerRecord {
    LedgerRecord::Spend {
        tenant: format!("t{}", k % 2).into(),
        usd: 0.25 * (k + 1) as f64,
        tokens: k,
        calls: 1,
        cache_hits: 0,
        cache_coalesced: 0,
    }
}

/// The ledger after the first `n` of `records`.
fn prefix(records: &[LedgerRecord], n: usize) -> Vec<(String, u64)> {
    let mut ledger = TenantLedger::new();
    for record in &records[..n] {
        if let LedgerRecord::Spend { tenant, usd, .. } = record {
            let spend = aida::serve::Spend {
                usd: *usd,
                ..Default::default()
            };
            ledger.charge(tenant, spend);
        }
    }
    spends(&ledger)
}

/// Ledger records commit in groups of this many.
const GROUP: usize = 3;

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
        ops in prop::collection::vec((0u8..12, 0u64..6), 1..40),
        crash in (0usize..CrashPoint::ALL.len(), any::<u64>()),
    ) {
        let ((contexts, entries), (point, seed)) = (capacities, crash);
        let point = CrashPoint::ALL[point];
        let dir = TestDir::new("chain-crash");
        let live = runtime(&dir, entries, Some(contexts), full_every);
        let lake = DataLake::from_docs([Document::new("shared.txt", "one document")]);
        let plan = Arc::new(FailPlan::seeded(point, seed));
        let mut wal = LedgerWal::open(dir.file("ledger"))
            .join(live.log().unwrap())
            .segment_records(4)
            .with_fail_plan(Arc::clone(&plan));
        wal.recover(&mut TenantLedger::new()).unwrap();
        live.log().unwrap().lock().set_group_commit(GROUP);
        let empty = pair(&runtime(&TestDir::new("chain-empty"), entries, Some(contexts), 1));
        // The live pair at the last checkpoint that returned, and at the
        // one that crashed; the ledger records appended, and how many of
        // them a commit that returned made durable.
        let (mut committed, mut attempted) = (empty, None);
        let (mut records, mut durable) = (Vec::new(), 0);
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
                7 | 8 => {
                    records.push(spend(k));
                    if wal.append(&spend(k)).is_err() {
                        break;
                    }
                    if records.len() - durable == GROUP {
                        durable = records.len();
                    }
                }
                _ => {
                    let now = pair(&live);
                    if live.save_state_with(Some(&plan)).is_err() {
                        attempted = Some(now);
                        break;
                    }
                    (committed, durable) = (now, records.len());
                }
            }
        }
        let restarted = runtime(&dir, entries, Some(contexts), full_every);
        let recovered = pair(&restarted);
        // One pair or the other, never a mix: the crashed checkpoint is
        // lost whole before its commit and kept whole after it.
        let after_commit = matches!(point, CrashPoint::LogAfterCommit | CrashPoint::SnapshotAfterCommit);
        match attempted {
            Some(attempted) if recovered != committed => {
                prop_assert!(after_commit, "{:?} kept a checkpoint it never committed", point);
                prop_assert_eq!(recovered, attempted);
            }
            _ => prop_assert_eq!(recovered, committed),
        }
        // The ledger is a record prefix holding every record a returned
        // commit carried, and it trails the live one by one group at most.
        let got = spends(&ledger(&restarted, &dir));
        let n = (0..=records.len()).rev().find(|&n| prefix(&records, n) == got);
        prop_assert!(n.is_some_and(|n| n >= durable), "{:?}: {:?} of {}", point, n, durable);
        prop_assert!(n.is_some_and(|n| n + GROUP >= records.len()));
    }
}

fn instruction(k: u64) -> String {
    format!("find the reports of year {}", 2000 + k)
}

/// The live Context store and cache as full snapshots.
fn pair(rt: &Runtime) -> (String, String) {
    (rt.manager().encode_snapshot(), cache_text(cache(rt)))
}

/// The log is what the checkpoints write while nothing leaves the
/// store: one frame each, smaller than the snapshot, and a checkpoint
/// with nothing used since writes nothing. An eviction, a restart and
/// an explicit save each make the next write a full one.
#[test]
fn checkpoints_append_frames_until_something_leaves() {
    let dir = TestDir::new("chain-frames");
    let rt = runtime(&dir, 8, None, 16);
    (0..4).for_each(|k| use_key(cache(&rt), k));
    rt.save_state().unwrap();
    let full = snapshot(&rt, StoreId::Cache);
    assert!(!full.is_empty(), "first: full");
    assert_eq!(log_len(&rt), 0);

    use_key(cache(&rt), 1); // re-tick
    use_key(cache(&rt), 4); // admit
    rt.save_state().unwrap();
    let frame = log_len(&rt);
    assert!(frame > 0 && frame < full.len() as u64);
    rt.save_state().unwrap();
    assert_eq!(log_len(&rt), frame, "nothing used: nothing written");

    (5..9).for_each(|k| use_key(cache(&rt), k)); // nine keys: one evicted
    rt.save_state().unwrap();
    assert_ne!(snapshot(&rt, StoreId::Cache), full, "full rewrite");
    assert_eq!(log_len(&rt), 0, "the log it covers went with it");

    use_key(cache(&rt), 2);
    rt.save_state().unwrap();
    assert!(log_len(&rt) > 0);
    rt.save_cache().unwrap();
    assert_eq!(log_len(&rt), 0, "an explicit save is always full");

    use_key(cache(&rt), 3);
    rt.save_state().unwrap();
    let restored = runtime(&dir, 8, None, 16);
    assert_eq!(cache(&restored).len(), 8);
    use_key(cache(&restored), 3);
    restored.save_state().unwrap();
    assert_eq!(log_len(&restored), 0, "after a restart: full");
    use_key(cache(&restored), 2);
    restored.save_state().unwrap();
    assert!(log_len(&restored) > 0, "then a frame");
}

/// With both stores durable, each checkpoint is one unit in one log
/// beside the state path, the state's record linked to the cache's.
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
    rt.save_state().unwrap(); // a frame whose cache record is empty
    let log = rt.log().unwrap().lock();
    assert!(dir.file("state.bin.manifest").exists());
    let segments = log.segment_paths();
    assert_eq!(segments.len(), 1);
    let first = log.next_seq() - 4;
    let records = read_records(&fs::read(&segments[0]).unwrap(), first).records;
    let kinds: Vec<_> = records.iter().map(|r| (r.store, r.linked)).collect();
    let unit = [(StoreId::State, true), (StoreId::Cache, false)];
    assert_eq!(kinds, [unit, unit].concat());
    assert!(records[3].payload.is_empty());
    drop(log);
    let restarted = runtime(&dir, 8, Some(4), 16);
    assert_eq!(pair(&restarted), pair(&rt));
}
