//! Durability suite: deterministic crash injection over the
//! ContextManager snapshot and the tenant-ledger WAL.
//!
//! The contract under test, for every [`CrashPoint`] the save and append
//! paths expose: *recover(crash(S)) ∈ {S_pre, S_committed}*. A crash may
//! lose the in-flight snapshot or ledger record entirely, but recovery
//! never observes a half-applied ledger entry, a torn snapshot, or a
//! Context whose lineage (documents, findings, cost metadata) dangles.
//!
//! Set `AIDA_DURABILITY_DUMP=<dir>` to export the recovered state of the
//! fixed scenario as JSONL; CI runs the suite twice at the same seed and
//! diffs the dumps byte-for-byte.

use aida::core::{Context, ContextManager, Runtime};
use aida::data::{DataLake, Document};
use aida::llm::snapshot::{self, CrashPoint, FailPlan, SnapshotError};
use aida::serve::{
    open_loop, LedgerRecord, LedgerWal, QueryService, ServeConfig, TenantConfig, TenantId,
    TenantLedger, TenantLoad,
};
use aida_testkit::TestDir;
use common::{corrupt_byte, truncate_tail};
use std::fs;
use std::path::Path;
use std::sync::Arc;

mod common;

/// Whether the write at `point` is already durable when the crash fires
/// (recovery must land on the committed state, not the pre-crash one).
fn is_post_commit(point: CrashPoint) -> bool {
    matches!(
        point,
        CrashPoint::SnapshotAfterCommit | CrashPoint::WalAfterAppend
    )
}

/// Whether an error came from an injected crash (vs. a real I/O failure).
fn is_crash(err: &std::io::Error) -> bool {
    err.kind() == std::io::ErrorKind::Interrupted && err.to_string().contains("injected crash")
}

/// Pending journal operations, counted without consuming them.
fn journal_len(manager: &ContextManager) -> usize {
    let ops = manager.drain_journal();
    let n = ops.len();
    manager.restore_journal(ops);
    n
}

/// One WAL record line exactly as the writer frames it.
fn record_line(dir: &TestDir, seq: u64, payload: &str) -> String {
    let path = dir.file("record.wal");
    let _ = fs::remove_file(&path);
    snapshot::wal_append(&path, seq, payload, None).unwrap();
    fs::read_to_string(&path).unwrap()
}

fn lake() -> DataLake {
    DataLake::from_docs([
        Document::new("report_2001.txt", "identity theft reports in 2001: 86250"),
        Document::new("report_2002.txt", "identity theft reports in 2002: 161977"),
        Document::new("report_2024.txt", "identity theft reports in 2024: 1135291"),
    ])
}

fn spend(tenant: &str, usd: f64) -> LedgerRecord {
    LedgerRecord::Spend {
        tenant: tenant.into(),
        usd,
        tokens: 100,
        calls: 2,
        cache_hits: 1,
        cache_coalesced: 0,
    }
}

/// Applies one ledger record to `ledger` the way WAL replay does.
fn apply(ledger: &mut TenantLedger, record: &LedgerRecord) {
    if let LedgerRecord::Spend {
        tenant,
        usd,
        tokens,
        calls,
        cache_hits,
        cache_coalesced,
    } = record
    {
        ledger.charge(tenant, *usd, *tokens, *calls);
        ledger.credit_cache(tenant, *cache_hits, *cache_coalesced);
    }
}

/// Recovers whatever is on disk into a fresh ledger and returns the
/// per-tenant dollar bits plus the recovery stats.
fn recover_usd_bits(path: &Path, tenant: &str) -> (u64, aida::serve::WalRecovery) {
    let mut ledger = TenantLedger::new();
    let mut wal = LedgerWal::open(path);
    let recovery = wal.recover(&mut ledger).expect("recovery never fails");
    (ledger.spend(&tenant.into()).usd.to_bits(), recovery)
}

// ---- tentpole: snapshot crash matrix -----------------------------------

/// Crash the ContextManager checkpoint at every injection point. The
/// state file must afterwards decode to exactly the pre-crash snapshot
/// (crash before the rename commit) or the new one (crash after) — the
/// atomic-rename discipline leaves no third possibility.
#[test]
fn snapshot_crash_recovery_is_pre_or_committed() {
    let dir = TestDir::new("snap-crash");
    let state = dir.file("state.bin");
    let rt = Runtime::builder().seed(7).state_path(&state).build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);

    let _ = rt
        .query(&ctx)
        .compute("count identity theft reports in 2001")
        .run();
    assert!(rt.save_state().unwrap());
    let s_pre = fs::read_to_string(&state).unwrap();

    let _ = rt
        .query(&ctx)
        .compute("count identity theft reports in 2002")
        .run();
    let s_committed = rt.manager().encode_snapshot();
    assert_ne!(s_pre, s_committed, "second query changed the store");

    let snapshot_points = [
        CrashPoint::SnapshotBeforeWrite,
        CrashPoint::SnapshotTornWrite,
        CrashPoint::SnapshotBeforeRename,
        CrashPoint::SnapshotAfterCommit,
    ];
    for point in snapshot_points {
        fs::write(&state, &s_pre).unwrap();
        let plan = FailPlan::new(point).torn_keep(9);
        let err = rt.save_state_with(Some(&plan)).unwrap_err();
        assert!(is_crash(&err), "{point:?}");

        // "Restart": a fresh runtime loads whatever survived on disk.
        let recovered = Runtime::builder().seed(7).state_path(&state).build();
        let got = recovered.manager().encode_snapshot();
        if is_post_commit(point) {
            assert_eq!(got, s_committed, "{point:?}: rename landed, new state");
        } else {
            assert_eq!(got, s_pre, "{point:?}: crash pre-commit keeps old state");
        }
    }

    // And the clean save commits the new state.
    fs::write(&state, &s_pre).unwrap();
    assert!(rt.save_state().unwrap());
    let recovered = Runtime::builder().seed(7).state_path(&state).build();
    assert_eq!(recovered.manager().encode_snapshot(), s_committed);
}

/// A corrupted or truncated state file is rejected wholesale (the
/// runtime starts empty rather than loading garbage), never partially
/// applied.
#[test]
fn corrupt_snapshot_is_rejected_not_partially_loaded() {
    let dir = TestDir::new("snap-corrupt");
    let state = dir.file("state.bin");
    let rt = Runtime::builder().seed(7).state_path(&state).build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let _ = rt
        .query(&ctx)
        .compute("count identity theft reports in 2001")
        .run();
    rt.save_state().unwrap();
    let clean = fs::read(&state).unwrap();

    for index in [0usize, clean.len() / 2, clean.len() - 1] {
        fs::write(&state, &clean).unwrap();
        corrupt_byte(&state, index);
        let recovered = Runtime::builder().seed(7).state_path(&state).build();
        assert_eq!(
            recovered.manager().len(),
            0,
            "byte {index}: corruption must reject the whole snapshot"
        );
    }

    fs::write(&state, &clean).unwrap();
    truncate_tail(&state, 5);
    let recovered = Runtime::builder().seed(7).state_path(&state).build();
    assert_eq!(recovered.manager().len(), 0, "truncated snapshot rejected");
}

// ---- tentpole: WAL crash matrix ----------------------------------------

/// Crash the ledger append at every injection point. Recovery must see
/// either the ledger without the in-flight record or with it applied in
/// full — a torn tail is logically truncated, never half-decoded.
#[test]
fn wal_crash_never_half_applies_a_ledger_entry() {
    let dir = TestDir::new("wal-crash");
    let path = dir.file("ledger.wal");

    let mut wal = LedgerWal::open(&path);
    for i in 0..3 {
        wal.append(&spend("acme", 0.25 + i as f64 * 0.125)).unwrap();
    }
    let base_bytes = fs::read(&path).unwrap();
    let (pre_bits, pre) = recover_usd_bits(&path, "acme");
    assert_eq!(pre.replayed, 3);

    // What the ledger looks like if the fourth record lands in full.
    let mut committed = TenantLedger::new();
    for i in 0..3 {
        apply(&mut committed, &spend("acme", 0.25 + i as f64 * 0.125));
    }
    apply(&mut committed, &spend("acme", 1.0));
    let committed_bits = committed.spend(&"acme".into()).usd.to_bits();

    let wal_points = [
        CrashPoint::WalBeforeAppend,
        CrashPoint::WalTornAppend,
        CrashPoint::WalAfterAppend,
    ];
    // The snapshot matrix (4), this append matrix (3), and the
    // log-structured matrix (3: seal, delta frame, group flush) must
    // together cover every injection point.
    assert_eq!(wal_points.len() + 4 + 3, CrashPoint::ALL.len());
    for point in wal_points {
        fs::write(&path, &base_bytes).unwrap();
        let plan = Arc::new(FailPlan::new(point).torn_keep(11));
        let mut w = LedgerWal::open(&path).with_fail_plan(plan.clone());
        let mut scratch = TenantLedger::new();
        w.recover(&mut scratch).unwrap();
        let err = w.append(&spend("acme", 1.0)).unwrap_err();
        assert!(is_crash(&err), "{point:?}");

        let (bits, recovery) = recover_usd_bits(&path, "acme");
        if is_post_commit(point) {
            assert_eq!(recovery.replayed, 4, "{point:?}");
            assert_eq!(bits, committed_bits, "{point:?}: record applied in full");
        } else {
            assert_eq!(recovery.replayed, 3, "{point:?}");
            assert_eq!(bits, pre_bits, "{point:?}: record lost in full");
        }
        assert_eq!(
            recovery.dropped_tail,
            point == CrashPoint::WalTornAppend,
            "{point:?}"
        );
    }
}

// ---- tentpole: log-structured crash matrix -----------------------------

/// Crash the three log-structured sites. A group-commit flush crash
/// loses the whole batch (never part of a record); a segment-seal crash
/// loses only the rename (every acknowledged record stays durable in
/// the unsealed tail); a torn batch keeps an intact record prefix.
#[test]
fn log_structured_crashes_lose_batches_whole_and_seals_lose_nothing() {
    let dir = TestDir::new("log-crash");

    // GroupCommitFlush: the batch is dropped before any byte lands.
    let path = dir.file("group.wal");
    let mut wal = LedgerWal::open(&path);
    wal.append(&spend("acme", 0.25)).unwrap();
    let (pre_bits, _) = recover_usd_bits(&path, "acme");
    let plan = Arc::new(FailPlan::new(CrashPoint::GroupCommitFlush));
    let mut w = LedgerWal::open(&path).with_fail_plan(plan.clone());
    let mut scratch = TenantLedger::new();
    w.recover(&mut scratch).unwrap();
    let err = w
        .append_batch(&[spend("acme", 1.0), spend("acme", 2.0)])
        .unwrap_err();
    assert!(is_crash(&err));
    let (bits, recovery) = recover_usd_bits(&path, "acme");
    assert_eq!(recovery.replayed, 1, "batch lost in full");
    assert_eq!(bits, pre_bits);
    assert!(!recovery.dropped_tail, "nothing landed, nothing torn");

    // WalTornAppend through the batch path: an intact prefix of the
    // batch survives, the torn record is truncated away.
    let path = dir.file("torn-batch.wal");
    let first = spend("acme", 1.0);
    let first_len = {
        // One record's exact line length, to tear inside record 2.
        let probe = dir.file("probe.wal");
        let mut w = LedgerWal::open(&probe);
        w.append(&first).unwrap();
        fs::read(&probe).unwrap().len()
    };
    let plan = Arc::new(FailPlan::new(CrashPoint::WalTornAppend).torn_keep(first_len + 7));
    let mut w = LedgerWal::open(&path).with_fail_plan(plan);
    let err = w
        .append_batch(&[first.clone(), spend("acme", 2.0), spend("acme", 4.0)])
        .unwrap_err();
    assert!(is_crash(&err));
    let (bits, recovery) = recover_usd_bits(&path, "acme");
    assert_eq!(recovery.replayed, 1, "record 0 of the batch survives");
    assert!(recovery.dropped_tail);
    let mut only_first = TenantLedger::new();
    apply(&mut only_first, &first);
    assert_eq!(bits, only_first.spend(&"acme".into()).usd.to_bits());

    // WalSegmentSeal: the crash costs the rename, not the records.
    let path = dir.file("seal.wal");
    let plan = Arc::new(FailPlan::new(CrashPoint::WalSegmentSeal));
    let mut w = LedgerWal::open(&path)
        .segment_records(2)
        .with_fail_plan(plan.clone());
    w.append(&spend("acme", 0.25)).unwrap();
    let err = w.append(&spend("acme", 0.5)).unwrap_err();
    assert!(is_crash(&err));
    let mut committed = TenantLedger::new();
    apply(&mut committed, &spend("acme", 0.25));
    apply(&mut committed, &spend("acme", 0.5));
    let (bits, recovery) = recover_usd_bits(&path, "acme");
    assert_eq!(recovery.replayed, 2, "both acknowledged records durable");
    assert_eq!(bits, committed.spend(&"acme".into()).usd.to_bits());
    assert_eq!(recovery.sealed_segments, 0, "the seal itself was lost");
}

/// Crash the delta-frame append: a torn frame rolls the restored
/// manager back to the previous checkpoint — never to a half-applied
/// store. In the process that survives the failed append, the journal
/// and the chain's document pool are as they were before it, so the
/// retried frame carries the mutation again and defines its document
/// again — after cutting the torn bytes off the chain.
#[test]
fn torn_delta_frame_recovers_the_previous_checkpoint() {
    let dir = TestDir::new("delta-torn");
    let state = dir.file("state.bin");
    let build = || {
        Runtime::builder()
            .seed(7)
            .state_path(&state)
            .delta_checkpoints(true)
            .build()
    };
    let rt = build();
    let mk = |name: &str| {
        Context::builder(
            name,
            DataLake::from_docs([Document::new(format!("{name}.txt"), format!("{name} doc"))]),
        )
        .description(name)
        .build(&rt)
    };
    rt.manager().register("alpha instruction", mk("alpha"), 1.0);
    assert!(rt.save_state().unwrap()); // full snapshot (chain base)
    rt.manager().register("beta instruction", mk("beta"), 2.0);
    assert!(rt.save_state().unwrap()); // delta frame 1
    let committed = rt.manager().encode_snapshot();
    let delta = rt.delta_path().expect("delta mode has a chain path");
    let intact = fs::read(&delta).unwrap();

    rt.manager().register("gamma instruction", mk("gamma"), 3.0);
    assert_eq!(journal_len(rt.manager()), 1);
    let plan = FailPlan::new(CrashPoint::DeltaTornAppend).torn_keep(9);
    let err = rt.save_state_with(Some(&plan)).unwrap_err();
    assert!(is_crash(&err));
    assert_eq!(
        journal_len(rt.manager()),
        1,
        "the failed frame's mutation is back in the journal"
    );
    let torn = fs::read(&delta).unwrap();
    assert_eq!(torn.len(), intact.len() + 9, "a torn prefix is on disk");

    // Restart: the torn frame is dropped, the intact chain replays.
    let rt2 = build();
    assert_eq!(
        rt2.manager().encode_snapshot(),
        committed,
        "recovery lands on the last intact frame, gamma is lost in full"
    );
    drop(rt2);

    // No restart: the surviving process retries. The frame lands where
    // the durable chain ends, not behind the torn bytes, and defines
    // gamma's document itself — the failed attempt left nothing in the
    // chain's pool for it to refer to.
    assert!(rt.save_state().unwrap());
    assert!(
        rt.manager().drain_journal().is_empty(),
        "a landed frame drains the journal"
    );
    let retried = fs::read_to_string(&delta).unwrap();
    assert!(retried.as_bytes().starts_with(&intact));
    let frame = &retried[intact.len()..];
    // Seq 1 again, and a pool of two before it — alpha (snapshot) and
    // beta (frame 1) — to which it adds gamma.
    assert!(frame.starts_with("0000000000000001\t"), "{frame}");
    assert!(
        frame.contains("\t2\tP\tgamma.txt\tgamma doc\t0\tC\tgamma instruction\t"),
        "{frame}"
    );
    let rt3 = build();
    assert_eq!(
        rt3.manager().encode_snapshot(),
        rt.manager().encode_snapshot(),
        "the retried frame replays: nothing acknowledged is lost"
    );
}

// ---- tentpole: delta-chain prefix consistency --------------------------

/// Truncating the delta chain at *every* byte recovers a state that is
/// exactly some frame prefix of the chain — never a blend, never a
/// half-applied frame. Byte flips behave the same way. Frames 2–4 hold
/// a document only by reference to its definition in frame 1, so a
/// prefix is also the only thing that *can* be recovered: a frame
/// replayed without the frames before it would refer to nothing.
#[test]
fn delta_chain_damage_recovers_an_exact_frame_prefix() {
    let dir = TestDir::new("delta-prefix");
    let state = dir.file("state.bin");
    let build = || {
        Runtime::builder()
            .seed(7)
            .state_path(&state)
            .delta_checkpoints(true)
            .build()
    };
    let rt = build();
    let shared = Arc::new(Document::new(
        "shared.txt",
        "the shared document\tdefined once, in frame 1",
    ));
    let mk = |name: &str, with_shared: bool| {
        let own = Arc::new(Document::new(format!("{name}.txt"), format!("{name} doc")));
        let docs = with_shared.then(|| Arc::clone(&shared)).into_iter();
        Context::builder(name, DataLake::from_arcs(docs.chain([own])))
            .description(name)
            .build(&rt)
    };
    rt.manager()
        .register("base instruction", mk("base", false), 1.0);
    assert!(rt.save_state().unwrap()); // full snapshot
    let snapshot_text = fs::read_to_string(&state).unwrap();
    let mut frame_states = vec![rt.manager().encode_snapshot()];
    for i in 0..4 {
        rt.manager().register(
            &format!("ctx{i} instruction"),
            mk(&format!("c{i}"), true),
            2.0,
        );
        assert!(rt.save_state().unwrap()); // one delta frame each
        frame_states.push(rt.manager().encode_snapshot());
    }
    let delta = rt.delta_path().expect("delta mode has a chain path");
    let clean = fs::read(&delta).unwrap();
    let text = String::from_utf8(clean.clone()).unwrap();
    let frames: Vec<&str> = text.split_inclusive('\n').collect();
    assert_eq!(frames.len(), 4, "four delta frames on disk");
    assert!(frames[0].contains("\tP\tshared.txt\t"));
    assert_eq!(
        text.matches("the shared document").count(),
        1,
        "frames 2-4 refer back to frame 1's definition"
    );

    for cut in 0..=clean.len() {
        fs::write(&delta, &clean[..cut]).unwrap();
        let rt2 = build();
        let got = rt2.manager().encode_snapshot();
        assert!(
            frame_states.contains(&got),
            "cut {cut}: recovered state must be an exact frame prefix"
        );
        drop(rt2);
    }

    for index in (0..clean.len()).step_by(5) {
        fs::write(&delta, &clean).unwrap();
        corrupt_byte(&delta, index);
        let rt2 = build();
        let got = rt2.manager().encode_snapshot();
        assert!(
            frame_states.contains(&got),
            "flip at byte {index}: damage truncates the chain, never corrupts it"
        );
    }

    // Frames that pass their checksum but not the chain's rules: each
    // is rejected together with everything after it, without a panic.
    let base_sum = snapshot::fnv64(snapshot_text.as_bytes());
    let recovered = |chain: String| {
        fs::write(&delta, chain).unwrap();
        build().manager().encode_snapshot()
    };
    // Frame 1 gone: frame 2 says the pool holds three documents, this
    // replay has one.
    assert_eq!(recovered(frames[1..].concat()), frame_states[0]);
    // Frame 2 gone: frame 3 extends a pool that frame 2 had grown.
    let skipped = [frames[0], frames[2], frames[3]].concat();
    assert_eq!(recovered(skipped), frame_states[1]);
    // After frame 1 the pool holds base, shared and c0 (indices 0-2): a
    // reference to index 3 points past it, and so does a reference to a
    // document the same frame only defines afterwards.
    let entry = "C\trogue instruction\t4000000000000000\t9\trogue\trogue\t0\t1";
    let define = "P\tlate.txt\tlate\t0";
    for payload in [
        format!("{base_sum:016x}\t3\t{entry}\t3"),
        format!("{base_sum:016x}\t3\t{entry}\t3\t{define}"),
        format!("{base_sum:016x}\t3\t{entry}\t18446744073709551615"),
        format!("{base_sum:016x}\t3\t{entry}\t-1"),
    ] {
        let rogue = record_line(&dir, 1, &payload);
        let chain = [frames[0], &rogue, frames[1]].concat();
        assert_eq!(recovered(chain), frame_states[1], "{payload:?}");
    }
    // The same entry with a backward reference is a frame like any other.
    let fine = record_line(&dir, 1, &format!("{base_sum:016x}\t3\t{entry}\t1"));
    let got = recovered([frames[0], &fine].concat());
    assert!(got.contains("rogue instruction") && !frame_states.contains(&got));
}

/// State written by the previous format is refused, not migrated and
/// never half-read: a `v1` snapshot is a typed format error and the
/// runtime starts cold, and a `v1`-shaped frame (an `I` record where
/// the pool length belongs) under a matching stamp ends the chain.
#[test]
fn v1_state_is_rejected_and_the_runtime_starts_cold() {
    let dir = TestDir::new("v1-state");
    let state = dir.file("state.bin");
    let build = || {
        Runtime::builder()
            .seed(7)
            .state_path(&state)
            .delta_checkpoints(true)
            .build()
    };
    let rt = build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    rt.manager().register("count the reports", ctx, 1.0);
    assert!(rt.save_state().unwrap());
    let v2 = fs::read_to_string(&state).unwrap();
    assert!(v2.starts_with("aida-ctxstore v2\n"));
    drop(rt);

    // The same body under the old magic (one `D` line per Context's
    // document would sit where the pool lines are; the reader does not
    // get that far).
    let body = v2.splitn(4, '\n').nth(3).unwrap();
    fs::write(&state, snapshot::encode_file("aida-ctxstore v1", body)).unwrap();
    let cold = build();
    assert!(
        cold.manager().is_empty(),
        "a v1 file starts the runtime cold"
    );
    assert!(matches!(
        cold.load_state(),
        Err(SnapshotError::Format(msg)) if msg.contains("bad magic")
    ));
    assert!(
        cold.manager().is_empty(),
        "and a rejected load changes nothing"
    );

    // A v2 snapshot with a chain whose frame is stamped for it but laid
    // out the old way: `<base_sum> \t <escaped I record>`.
    fs::write(&state, &v2).unwrap();
    let base_sum = snapshot::fnv64(v2.as_bytes());
    let v1_frame = format!("{base_sum:016x}\tI\\tC\\\\tother\\\\t3ff0000000000000");
    let delta = cold.delta_path().unwrap();
    fs::write(&delta, record_line(&dir, 0, &v1_frame)).unwrap();
    let warm = build();
    assert_eq!(warm.manager().encode_snapshot(), v2, "the snapshot alone");
}

/// A Context evicted between full snapshots must not resurrect through
/// the delta chain: the eviction record replays and removes it.
#[test]
fn evicted_contexts_do_not_resurrect_through_delta_frames() {
    let dir = TestDir::new("evict-delta");
    let state = dir.file("state.bin");
    let build = || {
        Runtime::builder()
            .seed(3)
            .context_capacity(2)
            .state_path(&state)
            .delta_checkpoints(true)
            .build()
    };
    let rt = build();
    let mk = |name: &str| {
        Context::builder(
            name,
            DataLake::from_docs([Document::new(format!("{name}.txt"), format!("{name} doc"))]),
        )
        .description(name)
        .build(&rt)
    };
    rt.manager().register("alpha instruction", mk("alpha"), 1.0);
    rt.manager().register("beta instruction", mk("beta"), 5.0);
    assert!(rt.save_state().unwrap()); // full snapshot holds alpha + beta
    let full = fs::read_to_string(&state).unwrap();
    assert!(full.contains("alpha instruction"));

    // gamma evicts alpha; the checkpoint is a delta frame, so the full
    // snapshot on disk still contains alpha — only the chain's E record
    // kills it.
    rt.manager().register("gamma instruction", mk("gamma"), 9.0);
    assert!(rt.save_state().unwrap());
    let expected = rt.manager().encode_snapshot();
    assert!(
        fs::read_to_string(&state)
            .unwrap()
            .contains("alpha instruction"),
        "base snapshot still holds the evicted entry; the delta must drop it"
    );

    let rt2 = build();
    assert_eq!(rt2.manager().len(), 2);
    assert_eq!(
        rt2.manager().encode_snapshot(),
        expected,
        "evicted entry does not resurrect through the delta chain"
    );
    assert!(!rt2
        .manager()
        .encode_snapshot()
        .contains("alpha instruction"));
}

/// The two-restart invariant: a torn tail must be physically removed by
/// recovery, so records acknowledged *after* the first recovery are not
/// swallowed by the second one (an append onto a lingering torn line
/// would fail its checksum and take every later record with it).
#[test]
fn torn_tail_recovery_keeps_post_recovery_appends_across_a_second_restart() {
    let dir = TestDir::new("wal-torn-twice");
    let path = dir.file("ledger.wal");
    let mut wal = LedgerWal::open(&path);
    wal.append(&spend("acme", 0.25)).unwrap();
    wal.append(&spend("acme", 0.5)).unwrap();
    let plan = Arc::new(FailPlan::new(CrashPoint::WalTornAppend).torn_keep(13));
    let mut torn = LedgerWal::open(&path).with_fail_plan(plan);
    let mut scratch = TenantLedger::new();
    torn.recover(&mut scratch).unwrap();
    torn.append(&spend("acme", 1.0)).unwrap_err();

    // Restart 1: the torn record is dropped — and scrubbed from disk.
    let mut ledger = TenantLedger::new();
    let mut wal2 = LedgerWal::open(&path);
    let recovery = wal2.recover(&mut ledger).unwrap();
    assert!(recovery.dropped_tail);
    assert_eq!(recovery.replayed, 2);
    let post = spend("acme", 2.0);
    wal2.append(&post).unwrap();
    apply(&mut ledger, &post);
    let expected_bits = ledger.spend(&"acme".into()).usd.to_bits();

    // Restart 2: the acknowledged post-recovery spend survives in full.
    let (bits, recovery2) = recover_usd_bits(&path, "acme");
    assert!(!recovery2.dropped_tail, "restart 1 repaired the file");
    assert_eq!(recovery2.replayed, 3);
    assert_eq!(bits, expected_bits, "no acknowledged record was lost");
}

/// Truncating or corrupting the WAL anywhere loses only a suffix: the
/// intact prefix replays exactly, byte-level damage never panics.
#[test]
fn wal_damage_loses_only_a_suffix() {
    let dir = TestDir::new("wal-damage");
    let path = dir.file("ledger.wal");
    let mut wal = LedgerWal::open(&path);
    let mut prefix_bits = Vec::new();
    let mut ledger = TenantLedger::new();
    for i in 0..4 {
        prefix_bits.push(ledger.spend(&"acme".into()).usd.to_bits());
        let record = spend("acme", 0.5 + i as f64);
        wal.append(&record).unwrap();
        apply(&mut ledger, &record);
    }
    prefix_bits.push(ledger.spend(&"acme".into()).usd.to_bits());
    let clean = fs::read(&path).unwrap();

    for cut in 1..clean.len() {
        fs::write(&path, &clean).unwrap();
        truncate_tail(&path, cut);
        let (bits, recovery) = recover_usd_bits(&path, "acme");
        let replayed = recovery.replayed as usize;
        assert!(replayed <= 4);
        assert_eq!(
            bits, prefix_bits[replayed],
            "cut {cut}: recovered ledger is an exact record prefix"
        );
    }

    for index in (0..clean.len()).step_by(7) {
        fs::write(&path, &clean).unwrap();
        corrupt_byte(&path, index);
        let (bits, recovery) = recover_usd_bits(&path, "acme");
        let replayed = recovery.replayed as usize;
        assert!(replayed <= 4, "byte {index}");
        assert_eq!(
            bits, prefix_bits[replayed],
            "byte {index}: damage truncates, never corrupts the ledger"
        );
    }
}

// ---- tentpole: warm restart of the full service ------------------------

fn workload() -> Vec<aida::serve::QueryRequest> {
    let loads = [
        TenantLoad::new("acme", "reports")
            .instructions([
                "count identity theft reports in 2001",
                "count identity theft reports in 2024",
            ])
            .queries(4)
            .mean_interarrival(25.0),
        TenantLoad::new("bolt", "reports")
            .instructions(["count identity theft reports in 2002"])
            .queries(3)
            .mean_interarrival(40.0)
            .offset(10.0),
    ];
    open_loop(11, &loads)
}

fn restart_service(dir: &TestDir) -> QueryService {
    let rt = Runtime::builder()
        .seed(11)
        .semantic_cache(1 << 16)
        .cache_path(dir.file("semcache.bin"))
        .state_path(dir.file("state.bin"))
        .build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let mut svc = QueryService::new(
        rt,
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    svc.register_context("reports", ctx);
    svc.register_tenant("acme", TenantConfig::weighted(2));
    svc.register_tenant("bolt", TenantConfig::default());
    svc.attach_wal(LedgerWal::open(dir.file("ledger.wal")))
        .expect("wal recovery");
    svc
}

/// The headline proof: run the service cold, checkpoint, "crash" the
/// process, restart warm. Per-tenant dollars recover bit-identically
/// from the WAL, the restore itself spends nothing, and re-running the
/// same workload serves entirely from the restored Contexts and the
/// persisted semantic cache — at zero new dollars, with the same
/// answers.
#[test]
fn warm_restart_reproduces_per_tenant_dollars_at_zero_spend() {
    let dir = TestDir::new("warm-restart");

    // Phase 1: cold service, real dollars.
    let mut cold_svc = restart_service(&dir);
    let cold = cold_svc.run(workload());
    assert!(cold.total_cost_usd > 0.0);
    assert!(cold.wal_appends > 0);
    assert_eq!(cold.wal_replayed, 0, "nothing to replay on first boot");
    let cold_spends: Vec<(String, u64)> = cold_svc
        .tenants()
        .spends()
        .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
        .collect();
    assert!(cold_svc.runtime().save_state().unwrap());
    assert!(cold_svc.runtime().save_cache().unwrap());
    drop(cold_svc); // the "crash": nothing outlives the process but disk

    // Phase 2: warm restart from disk.
    let mut warm_svc = restart_service(&dir);
    let recovery = warm_svc.wal_recovery().expect("wal attached");
    assert!(recovery.replayed > 0, "ledger replayed from the WAL");
    assert!(
        !warm_svc.runtime().manager().is_empty(),
        "contexts restored from the snapshot"
    );
    assert_eq!(
        warm_svc.runtime().cost(),
        0.0,
        "restoring state costs zero re-materialization dollars"
    );
    let warm_spends: Vec<(String, u64)> = warm_svc
        .tenants()
        .spends()
        .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
        .collect();
    assert_eq!(
        cold_spends, warm_spends,
        "per-tenant dollars are bit-identical across the restart"
    );

    // Phase 3: the same workload warm — answered identically, $0 new.
    let warm = warm_svc.run(workload());
    assert_eq!(warm.completions.len(), cold.completions.len());
    assert!(warm.wal_replayed > 0);
    for (c, w) in cold.completions.iter().zip(&warm.completions) {
        assert_eq!(c.seq, w.seq);
        assert_eq!(c.tenant, w.tenant);
        assert_eq!(c.answered, w.answered, "seq {}", c.seq);
    }
    assert_eq!(
        warm.total_cost_usd,
        0.0,
        "warm re-run serves from restored Contexts + persisted cache:\n{}",
        warm.render()
    );
}

/// Every restored store entry is a live Context: its instruction still
/// matches, its documents are present, and it can serve a query end to
/// end — no dangling lineage.
#[test]
fn restored_contexts_serve_queries_without_dangling_lineage() {
    let dir = TestDir::new("lineage");
    let state = dir.file("state.bin");
    let instruction = "count identity theft reports in 2001";

    let rt = Runtime::builder().seed(7).state_path(&state).build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let out1 = rt.query(&ctx).compute(instruction).run();
    rt.save_state().unwrap();

    let rt2 = Runtime::builder().seed(7).state_path(&state).build();
    assert!(!rt2.manager().is_empty());
    let (hit, score) = rt2.manager().reuse_scored(instruction, 0.0);
    let hit = hit.expect("restored entry matches its instruction");
    assert!(score > 0.99, "identical instruction embeds identically");
    assert!(
        !hit.context.is_empty(),
        "restored Context kept its documents"
    );
    assert!(hit.original_cost >= 0.0);
    let out2 = rt2.query(&hit.context).compute(instruction).run();
    assert_eq!(out1.answer.is_some(), out2.answer.is_some());
}

// ---- satellite: eviction × persistence ---------------------------------

/// A Context evicted by the capacity bound must not resurrect from disk:
/// checkpoints written after the eviction drop the entry, and even a
/// stale over-capacity snapshot is trimmed on load.
#[test]
fn evicted_contexts_do_not_resurrect_after_reload() {
    let dir = TestDir::new("evict-reload");
    let state = dir.file("state.bin");
    let rt = Runtime::builder()
        .seed(3)
        .context_capacity(2)
        .state_path(&state)
        .build();
    let mk = |name: &str| {
        Context::builder(
            name,
            DataLake::from_docs([Document::new(format!("{name}.txt"), format!("{name} doc"))]),
        )
        .description(name)
        .build(&rt)
    };
    rt.manager().register("alpha instruction", mk("alpha"), 1.0);
    rt.manager().register("beta instruction", mk("beta"), 5.0);
    rt.save_state().unwrap();
    let stale = fs::read_to_string(&state).unwrap();
    assert!(stale.contains("alpha instruction"));

    // gamma arrives; alpha is the cheapest to recreate and is evicted.
    rt.manager().register("gamma instruction", mk("gamma"), 9.0);
    assert_eq!(rt.manager().len(), 2);
    rt.save_state().unwrap();
    let fresh = fs::read_to_string(&state).unwrap();
    assert!(
        !fresh.contains("alpha instruction"),
        "checkpoint after eviction drops the evicted entry"
    );

    let rt2 = Runtime::builder()
        .seed(3)
        .context_capacity(2)
        .state_path(&state)
        .build();
    assert_eq!(rt2.manager().len(), 2);
    assert_eq!(rt2.manager().encode_snapshot(), fresh);

    // Loading the stale pre-eviction snapshot into a smaller manager
    // still cannot exceed the capacity bound.
    let rt3 = Runtime::builder().seed(3).context_capacity(1).build();
    rt3.manager()
        .load_chain(&stale, &[], &|id, lake, desc| {
            Context::builder(id, lake).description(desc).build(&rt3)
        })
        .unwrap();
    assert_eq!(rt3.manager().len(), 1, "stale snapshot trimmed on load");
}

// ---- satellite: exact LRU tick restore ---------------------------------

/// Snapshot restore preserves the LRU clock *exactly*: per-entry
/// `last_used` ticks and the global tick counter survive the round-trip
/// byte-for-byte, the restored clock continues where the original left
/// off, and recency-sensitive eviction agrees with the restored order.
/// A restore that renumbered entries 1..n would pass a length check but
/// silently reorder future evictions.
#[test]
fn lru_tick_ordering_restores_tick_identically() {
    let rt = Runtime::builder().seed(11).build();
    let mk = |name: &str| {
        Context::builder(
            name,
            DataLake::from_docs([Document::new(format!("{name}.txt"), format!("{name} doc"))]),
        )
        .description(name)
        .build(&rt)
    };
    // Equal costs so eviction order is decided purely by recency.
    rt.manager().register("alpha instruction", mk("alpha"), 1.0);
    rt.manager().register("beta instruction", mk("beta"), 1.0);
    rt.manager().register("gamma instruction", mk("gamma"), 1.0);
    // Uneven recency: alpha and gamma get re-used, so the tick order is
    // beta(2) < alpha(4) < gamma(5) with the clock standing at 5.
    assert!(rt.manager().reuse("alpha instruction", 0.99).is_some());
    assert!(rt.manager().reuse("gamma instruction", 0.99).is_some());
    let snap = rt.manager().encode_snapshot();

    let rt2 = Runtime::builder().seed(11).build();
    rt2.manager()
        .load_chain(&snap, &[], &|id, lake, desc| {
            Context::builder(id, lake).description(desc).build(&rt2)
        })
        .unwrap();
    // Tick-identical: re-encoding the restored store reproduces the
    // snapshot byte-for-byte, so every last_used and the global clock
    // survived exactly — not merely the relative order.
    assert_eq!(rt2.manager().encode_snapshot(), snap);

    // The restored clock continues where the original left off: the same
    // post-restore operation lands the same new tick on both managers,
    // so a restored replica cannot diverge from the uninterrupted one.
    assert!(rt.manager().reuse("beta instruction", 0.99).is_some());
    assert!(rt2.manager().reuse("beta instruction", 0.99).is_some());
    assert_eq!(
        rt2.manager().encode_snapshot(),
        rt.manager().encode_snapshot()
    );

    // Recency-sensitive eviction honors the restored ticks: beta is the
    // least recently used entry in `snap`, so it is the one displaced.
    let rt3 = Runtime::builder().seed(11).context_capacity(3).build();
    rt3.manager()
        .load_chain(&snap, &[], &|id, lake, desc| {
            Context::builder(id, lake).description(desc).build(&rt3)
        })
        .unwrap();
    let delta = Context::builder(
        "delta",
        DataLake::from_docs([Document::new("delta.txt", "delta doc")]),
    )
    .description("delta")
    .build(&rt3);
    rt3.manager().register("delta instruction", delta, 1.0);
    let after = rt3.manager().encode_snapshot();
    assert!(
        !after.contains("beta instruction"),
        "least-recent restored entry is the eviction victim"
    );
    assert!(after.contains("alpha instruction"));
    assert!(after.contains("gamma instruction"));
}

// ---- satellite: checkpoint-interval behavior ---------------------------

/// With `checkpoint_interval(n)`, the runtime checkpoints itself every
/// `n` agentic operations — no explicit `save_state` call needed for the
/// state to survive a crash.
#[test]
fn interval_checkpoints_survive_an_uncheckpointed_crash() {
    let dir = TestDir::new("interval");
    let state = dir.file("state.bin");
    let rt = Runtime::builder()
        .seed(7)
        .state_path(&state)
        .checkpoint_interval(1)
        .build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let _ = rt
        .query(&ctx)
        .compute("count identity theft reports in 2001")
        .run();
    drop(rt); // crash without an explicit save

    assert!(state.exists(), "interval checkpoint wrote the state file");
    let rt2 = Runtime::builder().seed(7).state_path(&state).build();
    assert!(
        !rt2.manager().is_empty(),
        "state survived via the ops-interval checkpoint"
    );
}

// ---- satellite: CI dump for same-seed diffing --------------------------

/// A fixed crash/recovery scenario whose recovered state is exported as
/// JSONL when `AIDA_DURABILITY_DUMP` is set. CI runs this twice at the
/// same seed and diffs the two dumps byte-for-byte.
#[test]
fn recovered_state_dump_is_deterministic() {
    let dir = TestDir::new("dump");
    let mut svc = restart_service(&dir);
    let report = svc.run(workload());
    assert!(report.total_cost_usd > 0.0);
    svc.runtime().save_state().unwrap();
    svc.runtime().save_cache().unwrap();
    drop(svc);

    let svc2 = restart_service(&dir);
    let recovery = svc2.wal_recovery().expect("wal attached");
    let state_text = fs::read_to_string(dir.file("state.bin")).unwrap();

    let mut dump = String::new();
    dump.push_str(&format!(
        "{{\"type\":\"recovery\",\"replayed\":{},\"skipped\":{},\"snapshot_loaded\":{},\"next_seq\":{}}}\n",
        recovery.replayed, recovery.skipped, recovery.snapshot_loaded, recovery.next_seq
    ));
    dump.push_str(&format!(
        "{{\"type\":\"contexts\",\"restored\":{},\"snapshot_fnv64\":\"{:016x}\"}}\n",
        svc2.runtime().manager().len(),
        aida::llm::snapshot::fnv64(state_text.as_bytes())
    ));
    for (tenant, spend) in svc2.tenants().spends() {
        dump.push_str(&format!(
            "{{\"type\":\"tenant\",\"tenant\":\"{}\",\"usd_bits\":\"{:016x}\",\"tokens\":{},\"calls\":{},\"cache_hits\":{}}}\n",
            tenant.as_str(),
            spend.usd.to_bits(),
            spend.tokens,
            spend.calls,
            spend.cache_hits
        ));
    }
    assert!(dump.contains("\"type\":\"tenant\""));

    if let Ok(out_dir) = std::env::var("AIDA_DURABILITY_DUMP") {
        fs::create_dir_all(&out_dir).unwrap();
        fs::write(
            Path::new(&out_dir).join("recovered_state.jsonl"),
            dump.as_bytes(),
        )
        .unwrap();
    }
}

// ---- satellite: property tests -----------------------------------------

mod props {
    use super::*;
    use proptest::prelude::*;

    fn record_strategy() -> impl Strategy<Value = LedgerRecord> {
        let tenant = "[a-z\t\\\\ ]{1,10}";
        prop_oneof![
            tenant.prop_map(|t| LedgerRecord::Admit {
                tenant: TenantId::new(t)
            }),
            (
                (tenant, any::<u64>()),
                (0u64..100_000, 0u64..64),
                (0u64..16, 0u64..16)
            )
                .prop_map(|((t, bits), (tokens, calls), (hits, coalesced))| {
                    LedgerRecord::Spend {
                        tenant: TenantId::new(t),
                        usd: f64::from_bits(bits),
                        tokens,
                        calls,
                        cache_hits: hits,
                        cache_coalesced: coalesced,
                    }
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every record round-trips its codec exactly (dollars compared
        /// by bits, so NaN payloads round-trip too).
        #[test]
        fn ledger_record_codec_round_trips(record in record_strategy()) {
            let encoded = record.encode();
            prop_assert!(!encoded.contains('\n'));
            let decoded = LedgerRecord::decode(&encoded).unwrap();
            prop_assert_eq!(decoded.encode(), encoded);
        }

        /// An arbitrary record sequence written through the WAL replays
        /// in order and bit-identically, and replay is deterministic:
        /// two recoveries from the same bytes agree exactly.
        #[test]
        fn wal_replay_is_order_deterministic(
            records in prop::collection::vec(record_strategy(), 1..12)
        ) {
            let dir = TestDir::new("prop-wal");
            let path = dir.file("ledger.wal");
            let mut wal = LedgerWal::open(&path);
            let mut direct = TenantLedger::new();
            for record in &records {
                wal.append(record).unwrap();
                apply(&mut direct, record);
            }
            let recover = || {
                let mut ledger = TenantLedger::new();
                let mut w = LedgerWal::open(&path);
                let recovery = w.recover(&mut ledger).unwrap();
                let spends: Vec<(String, u64, u64, u64)> = ledger
                    .spends()
                    .map(|(t, s)| (t.to_string(), s.usd.to_bits(), s.tokens, s.calls))
                    .collect();
                (spends, recovery.replayed, recovery.next_seq)
            };
            let a = recover();
            let b = recover();
            prop_assert_eq!(&a, &b, "replay is deterministic");
            prop_assert_eq!(a.1, records.len() as u64);
            let expected: Vec<(String, u64, u64, u64)> = direct
                .spends()
                .map(|(t, s)| (t.to_string(), s.usd.to_bits(), s.tokens, s.calls))
                .collect();
            prop_assert_eq!(a.0, expected, "replayed ledger == directly applied ledger");
        }

        /// Flipping any single byte of a framed snapshot is detected:
        /// decode fails rather than returning altered content.
        #[test]
        fn snapshot_single_byte_corruption_is_detected(
            body in "[a-z0-9\t .]{0,80}",
            index in 0usize..4096,
        ) {
            let text = aida::llm::snapshot::encode_file("prop-magic v1", &body);
            let mut bytes = text.clone().into_bytes();
            let i = index % bytes.len();
            bytes[i] ^= 0x5a;
            prop_assume!(bytes != text.as_bytes());
            let verdict = match String::from_utf8(bytes) {
                Ok(corrupt) => aida::llm::snapshot::decode_file("prop-magic v1", &corrupt)
                    .err()
                    .map(|_| true)
                    .unwrap_or(false),
                Err(_) => true, // invalid UTF-8 is detection too
            };
            prop_assert!(verdict, "flip at byte {} must be detected", i);
        }

        /// The ContextManager snapshot round-trips arbitrary
        /// instructions, descriptions, and document content —
        /// re-encoding the restored store reproduces the file
        /// byte-for-byte.
        #[test]
        fn manager_snapshot_round_trips_arbitrary_content(
            entries in prop::collection::vec(
                ("[a-z\t\n\\\\\\[\\], ]{1,24}", "[a-zA-Z0-9 .,\t]{0,40}", 1.0f64..100.0),
                1..5,
            )
        ) {
            let rt = Runtime::builder().seed(5).build();
            for (i, (instruction, content, cost)) in entries.iter().enumerate() {
                let lake = DataLake::from_docs([Document::new(format!("d{i}.txt"), content)]);
                let ctx = Context::builder(format!("ctx{i}"), lake)
                    .description(format!("desc {i}"))
                    .build(&rt);
                rt.manager().register(instruction, ctx, *cost);
            }
            let snap = rt.manager().encode_snapshot();

            let rt2 = Runtime::builder().seed(5).build();
            let restored = rt2
                .manager()
                .load_chain(&snap, &[], &|id, lake, desc| {
                    Context::builder(id, lake).description(desc).build(&rt2)
                })
                .unwrap()
                .0;
            prop_assert_eq!(restored, rt.manager().len());
            prop_assert_eq!(rt2.manager().encode_snapshot(), snap);
        }

        /// Group-committed, segmented WALs under arbitrary tail damage
        /// lose only a record *suffix*: the recovered ledger equals the
        /// direct application of exactly the first `replayed` records —
        /// no double-spend, no reordering — and two recoveries from the
        /// same damage agree bit-for-bit.
        #[test]
        fn segmented_batch_wal_damage_loses_only_a_suffix(
            batches in prop::collection::vec(
                prop::collection::vec(record_strategy(), 1..5),
                1..5,
            ),
            segment_records in 0usize..4,
            cut in 0usize..4096,
        ) {
            let dir = TestDir::new("prop-seg");
            let path = dir.file("ledger.wal");
            let mut wal = LedgerWal::open(&path).segment_records(segment_records);
            let mut flat = Vec::new();
            for batch in &batches {
                wal.append_batch(batch).unwrap();
                flat.extend(batch.iter().cloned());
            }
            drop(wal);

            // Damage the *tail* file only; sealed segments stay intact,
            // so the loss is bounded by the unsealed suffix. (The tail
            // may not exist when the last append sealed it away.)
            let tail = fs::read(&path).unwrap_or_default();
            let keep = cut % (tail.len() + 1);
            fs::write(&path, &tail[..keep]).unwrap();

            let recover = || {
                let mut ledger = TenantLedger::new();
                let mut w = LedgerWal::open(&path).segment_records(segment_records);
                let recovery = w.recover(&mut ledger).unwrap();
                let spends: Vec<(String, u64, u64, u64)> = ledger
                    .spends()
                    .map(|(t, s)| (t.to_string(), s.usd.to_bits(), s.tokens, s.calls))
                    .collect();
                (spends, recovery.replayed, recovery.next_seq)
            };
            let a = recover();
            let b = recover();
            prop_assert_eq!(&a, &b, "recovery after damage is deterministic");

            let replayed = a.1 as usize;
            prop_assert!(replayed <= flat.len());
            let mut prefix = TenantLedger::new();
            for record in &flat[..replayed] {
                apply(&mut prefix, record);
            }
            let expected: Vec<(String, u64, u64, u64)> = prefix
                .spends()
                .map(|(t, s)| (t.to_string(), s.usd.to_bits(), s.tokens, s.calls))
                .collect();
            prop_assert_eq!(
                a.0, expected,
                "recovered ledger == prefix of {} records", replayed
            );
        }

        /// Cutting the delta chain at an arbitrary byte recovers a state
        /// that is exactly one of the checkpointed frame states — the
        /// chain replays a frame prefix or nothing, never a blend.
        #[test]
        fn delta_chain_random_cut_recovers_a_checkpointed_state(
            saves in 1usize..5,
            cut in 0usize..8192,
        ) {
            let dir = TestDir::new("prop-delta");
            let state = dir.file("state.bin");
            let build = || {
                Runtime::builder()
                    .seed(13)
                    .state_path(&state)
                    .delta_checkpoints(true)
                    .build()
            };
            let rt = build();
            let mk = |name: &str| {
                Context::builder(
                    name,
                    DataLake::from_docs([Document::new(
                        format!("{name}.txt"),
                        format!("{name} doc"),
                    )]),
                )
                .description(name)
                .build(&rt)
            };
            rt.manager().register("base instruction", mk("base"), 1.0);
            prop_assert!(rt.save_state().unwrap());
            let mut frame_states = vec![rt.manager().encode_snapshot()];
            for i in 0..saves {
                rt.manager()
                    .register(&format!("ctx{i} instruction"), mk(&format!("c{i}")), 2.0);
                prop_assert!(rt.save_state().unwrap());
                frame_states.push(rt.manager().encode_snapshot());
            }
            let delta = rt.delta_path().expect("delta mode has a chain path");
            drop(rt);

            let chain = fs::read(&delta).unwrap();
            let keep = cut % (chain.len() + 1);
            fs::write(&delta, &chain[..keep]).unwrap();

            let rt2 = build();
            let got = rt2.manager().encode_snapshot();
            prop_assert!(
                frame_states.contains(&got),
                "cut at byte {} must recover a checkpointed frame state", keep
            );
        }
    }
}
