//! Durability suite: deterministic crash injection over the
//! ContextManager snapshot and the service's log, where the Context
//! store, the semantic cache and the tenant ledger write.
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
use aida::llm::cache::Lookup;
use aida::llm::snapshot::{self, CrashPoint, FailPlan, LogRecord, SnapshotError, StoreId};
use aida::llm::{CacheKey, LlmResponse};
use aida::serve::{
    open_loop, LedgerRecord, LedgerWal, QueryService, ServeConfig, TenantConfig, TenantLedger,
    TenantLoad,
};
use aida_testkit::TestDir;
use common::{corrupt_byte, truncate_tail};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod common;

/// Whether the write at `point` is already durable when the crash fires
/// (recovery must land on the committed state, not the pre-crash one).
fn is_post_commit(point: CrashPoint) -> bool {
    matches!(
        point,
        CrashPoint::SnapshotAfterCommit | CrashPoint::LogAfterCommit
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

/// A Context-store record of the log carrying `payload` alone (forged
/// logs number their records afresh).
fn state_record(payload: &str) -> LogRecord {
    LogRecord {
        seq: 0,
        store: StoreId::State,
        linked: false,
        payload: payload.to_string(),
    }
}

/// The log segments of a delta-mode runtime.
fn segments(rt: &Runtime) -> Vec<PathBuf> {
    rt.log()
        .expect("delta mode has a log")
        .lock()
        .segment_paths()
}

/// `store`'s current snapshot file.
fn current(rt: &Runtime, store: StoreId) -> PathBuf {
    let log = rt.log().expect("delta mode has a log").lock();
    log.snapshot_path(store).expect("a snapshot")
}

/// A ledger in the log of a delta-mode runtime over `dir` (whose other
/// store is the Context store), its log rolling at `segment_records`.
fn shared_wal(dir: &Path, segment_records: usize) -> (Runtime, LedgerWal) {
    let rt = Runtime::builder()
        .seed(7)
        .state_path(dir.join("state.bin"))
        .delta_checkpoints(true)
        .build();
    let wal = LedgerWal::open(dir.join("ledger"))
        .segment_records(segment_records)
        .join(rt.log().unwrap());
    (rt, wal)
}

/// The first segment of the log `shared_wal` opens over `dir`.
fn first_segment(dir: &Path) -> PathBuf {
    dir.join("state.bin.0000000000000000.log")
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
        let spend = aida::serve::Spend {
            usd: *usd,
            tokens: *tokens,
            calls: *calls,
            cache_hits: *cache_hits,
            cache_coalesced: *cache_coalesced,
        };
        ledger.charge(tenant, spend);
    }
}

/// Recovers whatever is on disk in `dir` into a fresh ledger and returns
/// the per-tenant dollar bits plus the recovery stats.
fn recover_usd_bits(dir: &Path, tenant: &str) -> (u64, aida::serve::WalRecovery) {
    let mut ledger = TenantLedger::new();
    let (_rt, mut wal) = shared_wal(dir, 0);
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

// ---- tentpole: the ledger's crash matrix -------------------------------

/// Crash a ledger commit in the shared log at every injection point.
/// Recovery must see either the ledger without the in-flight record or
/// with it applied in full — a torn tail is logically truncated, never
/// half-decoded.
#[test]
fn wal_crash_never_half_applies_a_ledger_entry() {
    let dir = TestDir::new("wal-crash");
    let d = dir.path();
    let (_rt, mut wal) = shared_wal(d, 0);
    for i in 0..3 {
        wal.append(&spend("acme", 0.25 + i as f64 * 0.125)).unwrap();
    }
    drop(wal);
    let base_bytes = fs::read(first_segment(d)).unwrap();
    let (pre_bits, pre) = recover_usd_bits(d, "acme");
    assert_eq!(pre.replayed, 3);

    // What the ledger looks like if the fourth record lands in full.
    let mut committed = TenantLedger::new();
    for i in 0..3 {
        apply(&mut committed, &spend("acme", 0.25 + i as f64 * 0.125));
    }
    apply(&mut committed, &spend("acme", 1.0));
    let committed_bits = committed.spend(&"acme".into()).usd.to_bits();

    let log_points = [
        CrashPoint::LogBeforeCommit,
        CrashPoint::LogTornCommit,
        CrashPoint::LogAfterCommit,
    ];
    // The snapshot matrix (4), this commit matrix (3), and the roll
    // (below) must together cover every injection point.
    assert_eq!(log_points.len() + 4 + 1, CrashPoint::ALL.len());
    for point in log_points {
        fs::write(first_segment(d), &base_bytes).unwrap();
        let plan = Arc::new(FailPlan::new(point).torn_keep(11));
        let (_rt, w) = shared_wal(d, 0);
        let mut w = w.with_fail_plan(plan.clone());
        let mut scratch = TenantLedger::new();
        w.recover(&mut scratch).unwrap();
        let err = w.append(&spend("acme", 1.0)).unwrap_err();
        assert!(is_crash(&err), "{point:?}");
        drop(w);

        let (bits, recovery) = recover_usd_bits(d, "acme");
        if is_post_commit(point) {
            assert_eq!(recovery.replayed, 4, "{point:?}");
            assert_eq!(bits, committed_bits, "{point:?}: record applied in full");
        } else {
            assert_eq!(recovery.replayed, 3, "{point:?}");
            assert_eq!(bits, pre_bits, "{point:?}: record lost in full");
        }
        assert_eq!(
            recovery.dropped_tail,
            point == CrashPoint::LogTornCommit,
            "{point:?}"
        );
    }
}

// ---- tentpole: log-structured crash matrix -----------------------------

/// Crash the shared log's batch commit and segment roll. A crash before
/// the commit loses the whole batch (never part of a record); a torn
/// batch keeps an intact record prefix; a roll crash leaves an empty
/// segment and loses only the records in flight, every acknowledged one
/// staying durable.
#[test]
fn log_structured_crashes_lose_batches_whole_and_seals_lose_nothing() {
    let dir = TestDir::new("log-crash");

    // LogBeforeCommit: the batch is dropped before any byte lands.
    let d = &dir.path().join("group");
    let (_rt, mut wal) = shared_wal(d, 0);
    wal.append(&spend("acme", 0.25)).unwrap();
    drop(wal);
    let (pre_bits, _) = recover_usd_bits(d, "acme");
    let plan = Arc::new(FailPlan::new(CrashPoint::LogBeforeCommit));
    let (_rt, w) = shared_wal(d, 0);
    let mut w = w.with_fail_plan(plan.clone());
    let mut scratch = TenantLedger::new();
    w.recover(&mut scratch).unwrap();
    let err = w
        .append_batch(&[spend("acme", 1.0), spend("acme", 2.0)])
        .unwrap_err();
    assert!(is_crash(&err));
    drop(w);
    let (bits, recovery) = recover_usd_bits(d, "acme");
    assert_eq!(recovery.replayed, 1, "batch lost in full");
    assert_eq!(bits, pre_bits);
    assert!(!recovery.dropped_tail, "nothing landed, nothing torn");

    // LogTornCommit through the batch path: an intact prefix of the
    // batch survives, the torn record is truncated away.
    let d = &dir.path().join("torn-batch");
    let first = spend("acme", 1.0);
    let first_len = {
        // One record's exact length, to tear inside record 2.
        let probe = dir.path().join("probe");
        let (_rt, mut w) = shared_wal(&probe, 0);
        w.append(&first).unwrap();
        fs::read(first_segment(&probe)).unwrap().len()
    };
    let plan = Arc::new(FailPlan::new(CrashPoint::LogTornCommit).torn_keep(first_len + 7));
    let (_rt, w) = shared_wal(d, 0);
    let mut w = w.with_fail_plan(plan);
    let err = w
        .append_batch(&[first.clone(), spend("acme", 2.0), spend("acme", 4.0)])
        .unwrap_err();
    assert!(is_crash(&err));
    drop(w);
    let (bits, recovery) = recover_usd_bits(d, "acme");
    assert_eq!(recovery.replayed, 1, "record 0 of the batch survives");
    assert!(recovery.dropped_tail);
    let mut only_first = TenantLedger::new();
    apply(&mut only_first, &first);
    assert_eq!(bits, only_first.spend(&"acme".into()).usd.to_bits());

    // LogSegmentRoll: the crash costs the record in flight, not the
    // acknowledged ones. (The first roll opens the first segment.)
    let d = &dir.path().join("roll");
    let plan = Arc::new(FailPlan::nth(CrashPoint::LogSegmentRoll, 1));
    let (_rt, w) = shared_wal(d, 2);
    let mut w = w.with_fail_plan(plan.clone());
    w.append(&spend("acme", 0.25)).unwrap();
    w.append(&spend("acme", 0.5)).unwrap();
    let err = w.append(&spend("acme", 1.0)).unwrap_err();
    assert!(is_crash(&err));
    drop(w);
    assert_eq!(
        fs::metadata(d.join("state.bin.0000000000000002.log"))
            .unwrap()
            .len(),
        0,
        "the new segment exists, empty"
    );
    let mut committed = TenantLedger::new();
    apply(&mut committed, &spend("acme", 0.25));
    apply(&mut committed, &spend("acme", 0.5));
    let (bits, recovery) = recover_usd_bits(d, "acme");
    assert_eq!(recovery.replayed, 2, "both acknowledged records durable");
    assert_eq!(bits, committed.spend(&"acme".into()).usd.to_bits());
    assert_eq!(recovery.next_seq, 2, "the lost record's number is reused");
}

/// Crash the frame's commit: a torn frame rolls the restored manager
/// back to the previous checkpoint — never to a half-applied store. In
/// the process that survives the failed commit, the journal and the
/// document pool are as they were before it, so the retried frame
/// carries the mutation again and defines its document again — after
/// cutting the torn bytes off the log.
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
    let delta = segments(&rt).remove(0);
    let intact = fs::read(&delta).unwrap();

    rt.manager().register("gamma instruction", mk("gamma"), 3.0);
    assert_eq!(journal_len(rt.manager()), 1);
    let plan = FailPlan::new(CrashPoint::LogTornCommit).torn_keep(9);
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
    // the durable log ends, not behind the torn bytes, and defines
    // gamma's document and description itself — the failed attempt left
    // nothing in the pool for it to refer to.
    assert!(rt.save_state().unwrap());
    assert!(
        rt.manager().drain_journal().is_empty(),
        "a landed frame drains the journal"
    );
    let retried = fs::read_to_string(&delta).unwrap();
    assert!(retried.as_bytes().starts_with(&intact));
    let frame = &retried[intact.len()..];
    // Seq 1 again, and a pool of four before it — alpha's document and
    // description (snapshot) and beta's (frame 1) — to which it adds
    // gamma's.
    assert!(frame.starts_with("0000000000000001\tS.\t"), "{frame}");
    assert!(
        frame.contains("\t4\tP\tgamma.txt\tgamma doc\t0\tD\tgamma\tC\tgamma instruction\t"),
        "{frame}"
    );
    let rt3 = build();
    assert_eq!(
        rt3.manager().encode_snapshot(),
        rt.manager().encode_snapshot(),
        "the retried frame replays: nothing acknowledged is lost"
    );
}

// ---- tentpole: log prefix consistency ----------------------------------

/// Truncating the log at *every* byte recovers a state that is
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
    let delta = segments(&rt).remove(0);
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

    // Frames that pass their checksum but not the log's rules: each is
    // rejected together with everything after it, without a panic.
    let records = snapshot::read_records(&clean, 0).records;
    let recovered = |chain: &[LogRecord]| {
        common::write_log(&rt, chain);
        build().manager().encode_snapshot()
    };
    // Frame 1 gone: frame 2 says the pool holds five items, this replay
    // has two.
    assert_eq!(recovered(&records[1..]), frame_states[0]);
    // Frame 2 gone: frame 3 extends a pool that frame 2 had grown.
    let skipped = [&records[0], &records[2], &records[3]].map(LogRecord::clone);
    assert_eq!(recovered(&skipped), frame_states[1]);
    // After frame 1 the pool holds base's document and description,
    // then shared, c0's document and c0's description (indices 0-4): a
    // reference to index 5 points past it, and so does a reference to a
    // document the same frame only defines afterwards. A description
    // index must name a description, a findings index a table.
    let head = "C\trogue instruction\t4000000000000000\t9\trogue";
    let entry = format!("{head}\t4\t-\t1");
    let define = "P\tlate.txt\tlate\t0";
    for payload in [
        format!("5\t{entry}\t5"),
        format!("5\t{entry}\t5\t{define}"),
        format!("5\t{entry}\t18446744073709551615"),
        format!("5\t{entry}\t-1"),
        format!("5\t{entry}\t4"),
        format!("5\t{head}\t2\t-\t1\t3"),
        format!("5\t{head}\t4\t5\t1\t3"),
        format!("5\t{head}\t4\t4\t1\t3"),
        format!("4\t{entry}\t2"),
    ] {
        let chain = [
            records[0].clone(),
            state_record(&payload),
            records[1].clone(),
        ];
        assert_eq!(recovered(&chain), frame_states[1], "{payload:?}");
    }
    // The same entry with a backward reference is a frame like any other.
    let fine = state_record(&format!("5\t{entry}\t2"));
    let got = recovered(&[records[0].clone(), fine]);
    assert!(got.contains("rogue instruction") && !frame_states.contains(&got));
}

/// State written by an earlier format is refused, not migrated and never
/// half-read: a `v1` snapshot is a typed format error and the runtime
/// starts cold, and a `v1`-shaped frame (an `I` record where the pool
/// length belongs) ends the log. So is state in the layout before the
/// manifest: a snapshot at the state path with a delta chain beside it.
#[test]
fn v1_state_is_rejected_and_the_runtime_starts_cold() {
    let dir = TestDir::new("v1-state");
    let state = dir.file("state.bin");
    let build = |state: &Path| {
        Runtime::builder()
            .seed(7)
            .state_path(state)
            .delta_checkpoints(true)
            .build()
    };
    let rt = build(&state);
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    rt.manager().register("count the reports", ctx, 1.0);
    assert!(rt.save_state().unwrap());
    let snapshot_path = current(&rt, StoreId::State);
    let v3 = fs::read_to_string(&snapshot_path).unwrap();
    assert!(v3.starts_with("aida-ctxstore v3\n"));
    drop(rt);

    // The same body under the old magic (one `D` line per Context's
    // document would sit where the pool lines are; the reader does not
    // get that far).
    let body = v3.splitn(4, '\n').nth(3).unwrap();
    fs::write(
        &snapshot_path,
        snapshot::encode_file("aida-ctxstore v1", body),
    )
    .unwrap();
    let cold = build(&state);
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
    drop(cold);

    // A current snapshot, and a frame after it laid out the v1 way.
    fs::write(&snapshot_path, &v3).unwrap();
    let v1_frame = "I\\tC\\\\tother\\\\t3ff0000000000000";
    common::write_log(&build(&state), &[state_record(v1_frame)]);
    let segment = dir.file("state.bin.0000000000000000.log");
    let warm = build(&state);
    assert_eq!(warm.manager().encode_snapshot(), v3, "the snapshot alone");
    // The first checkpoint after the restore rewrites past the frame.
    assert!(warm.save_state().unwrap());
    assert!(!segment.exists());
    drop(warm);
    assert_eq!(build(&state).manager().encode_snapshot(), v3);

    // The layout before the manifest is refused whole; the first
    // checkpoint after it writes the current one.
    let old = TestDir::new("v1-layout");
    let old_state = old.file("state.bin");
    fs::write(&old_state, &v3).unwrap();
    fs::write(old.file("state.bin.delta"), "").unwrap();
    let cold = build(&old_state);
    assert!(cold.manager().is_empty());
    assert!(matches!(
        cold.load_state(),
        Err(SnapshotError::Format(msg)) if msg.contains("layout")
    ));
    let ctx = Context::builder("lake", lake()).build(&cold);
    cold.manager().register("count the reports", ctx, 1.0);
    assert!(cold.save_state().unwrap());
    assert_eq!(build(&old_state).manager().len(), 1);
}

/// The v2 format wrote each Context's description and findings inline
/// in its `C` record; v3 pools them. A v2 snapshot is a typed format
/// error and the runtime starts cold, and a v2-shaped frame after a v3
/// snapshot ends the log.
#[test]
fn v2_state_is_rejected_and_the_runtime_starts_cold() {
    let dir = TestDir::new("v2-state");
    let state = dir.file("state.bin");
    let build = || {
        Runtime::builder()
            .seed(7)
            .state_path(&state)
            .delta_checkpoints(true)
            .build()
    };
    let description = "FTC identity theft reports by year";
    let rt = build();
    let lake = DataLake::from_docs([Document::new("a.txt", "alpha")]);
    let ctx = Context::builder("lake", lake)
        .description(description)
        .build(&rt);
    rt.manager().register("count the reports", ctx, 1.0);
    assert!(rt.save_state().unwrap());
    let snapshot_path = current(&rt, StoreId::State);
    let v3 = fs::read_to_string(&snapshot_path).unwrap();
    drop(rt);

    // What v2 wrote for the same store.
    let entry = format!("C\tcount the reports\t3ff0000000000000\t1\tlake\t{description}\t0\t1\t0");
    let v2_body = format!("T\t1\nP\ta.txt\talpha\t0\n{entry}\n");
    fs::write(
        &snapshot_path,
        snapshot::encode_file("aida-ctxstore v2", &v2_body),
    )
    .unwrap();
    let cold = build();
    assert!(
        cold.manager().is_empty(),
        "a v2 file starts the runtime cold"
    );
    assert!(matches!(
        cold.load_state(),
        Err(SnapshotError::Format(msg)) if msg.contains("bad magic")
    ));
    assert!(cold.manager().is_empty());
    drop(cold);

    // A v3 snapshot, and a frame for its pool (the document and the
    // description) that inserts a Context the v2 way.
    fs::write(&snapshot_path, &v3).unwrap();
    let v2_frame = format!("2\t{}", entry.replace("count the", "other"));
    common::write_log(&build(), &[state_record(&v2_frame)]);
    let warm = build();
    assert_eq!(warm.manager().encode_snapshot(), v3, "the snapshot alone");
    // The same frame in the v3 layout applies.
    let v3_frame = "2\tC\tother reports\t3ff0000000000000\t2\tlake\t1\t-\t1\t0";
    common::write_log(&warm, &[state_record(v3_frame)]);
    drop(warm);
    assert_eq!(build().manager().len(), 2);
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
    let full = fs::read_to_string(current(&rt, StoreId::State)).unwrap();
    assert!(full.contains("alpha instruction"));

    // gamma evicts alpha; the checkpoint is a delta frame, so the full
    // snapshot on disk still contains alpha — only the chain's E record
    // kills it.
    rt.manager().register("gamma instruction", mk("gamma"), 9.0);
    assert!(rt.save_state().unwrap());
    let expected = rt.manager().encode_snapshot();
    assert!(
        fs::read_to_string(current(&rt, StoreId::State))
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

// ---- the semantic cache in the runtime's log ---------------------------

/// A runtime whose semantic cache (`capacity` entries) checkpoints in
/// delta mode to `semcache.bin` in `dir`, a full snapshot after at most
/// `full_every` frames.
fn cache_runtime(dir: &TestDir, capacity: usize, full_every: u64) -> Runtime {
    Runtime::builder()
        .seed(7)
        .semantic_cache(capacity)
        .cache_path(dir.file("semcache.bin"))
        .delta_checkpoints(true)
        .full_snapshot_every(full_every)
        .build()
}

/// The checkpoint `rt` makes of its durable stores (here the cache
/// alone, whose log is at its path), with a crash plan.
fn checkpoint(rt: &Runtime, plan: Option<&FailPlan>) -> std::io::Result<bool> {
    rt.save_state_with(plan)
}

/// The first segment of the cache's log after its first full snapshot.
fn cache_chain(dir: &TestDir) -> PathBuf {
    dir.file("semcache.bin.0000000000000000.log")
}

/// A miss admits `k`'s response; a hit re-ticks it.
fn use_key(rt: &Runtime, k: u64) {
    let cache = rt.semantic_cache().expect("cache enabled");
    if let Lookup::Compute(pending) = cache.begin(CacheKey::from_parts(&[k])) {
        cache.admit(
            pending,
            LlmResponse {
                value: aida::data::Value::Int(k as i64),
                text: format!("answer\t{k}"),
                input_tokens: 5,
                output_tokens: 1,
                latency_s: 0.5,
                corrupted: false,
                receipt: aida::llm::UsageSnapshot::default(),
            },
        );
    }
}

/// The full snapshot `rt`'s cache saves right now, written beside the
/// checkpointed one under `name`.
fn cache_bytes(rt: &Runtime, dir: &TestDir, name: &str) -> Vec<u8> {
    let path = dir.file(name);
    rt.semantic_cache().unwrap().save(&path).unwrap();
    fs::read(path).unwrap()
}

/// What a restart recovers from `dir`: snapshot plus log, saved in full.
fn recovered_cache(dir: &TestDir, capacity: usize) -> Vec<u8> {
    cache_bytes(&cache_runtime(dir, capacity, 16), dir, "recovered.bin")
}

/// A torn cache frame is dropped whole: recovery lands on the previous
/// checkpoint. The surviving process retries: the frame lands where the
/// durable log ends, with the same sequence number, and carries the
/// same uses, so nothing checkpointed is lost.
#[test]
fn torn_cache_frame_recovers_the_previous_checkpoint() {
    let dir = TestDir::new("cache-torn");
    let rt = cache_runtime(&dir, 64, 16);
    (0..4).for_each(|k| use_key(&rt, k));
    checkpoint(&rt, None).unwrap(); // full snapshot
    use_key(&rt, 1);
    use_key(&rt, 4);
    checkpoint(&rt, None).unwrap(); // frame 0
    let intact = fs::read(cache_chain(&dir)).unwrap();
    let committed = recovered_cache(&dir, 64);
    assert_eq!(committed, cache_bytes(&rt, &dir, "live.bin"));

    use_key(&rt, 2);
    use_key(&rt, 5);
    let plan = FailPlan::new(CrashPoint::LogTornCommit).torn_keep(9);
    let err = checkpoint(&rt, Some(&plan)).unwrap_err();
    assert!(is_crash(&err));
    let torn = fs::read(cache_chain(&dir)).unwrap();
    assert_eq!(torn.len(), intact.len() + 9, "a torn prefix is on disk");
    assert_eq!(
        recovered_cache(&dir, 64),
        committed,
        "recovery lands on the last intact frame"
    );

    checkpoint(&rt, None).unwrap();
    let retried = fs::read(cache_chain(&dir)).unwrap();
    assert!(retried.starts_with(&intact));
    assert!(retried[intact.len()..].starts_with(b"0000000000000001\tC.\t"));
    assert_eq!(
        recovered_cache(&dir, 64),
        cache_bytes(&rt, &dir, "live.bin"),
        "the retried frame replays"
    );
}

/// A crash after a full rewrite's manifest commit but before the
/// segments it covers are deleted leaves records the new snapshot
/// already holds. Recovery skips them: replayed onto the new snapshot
/// their re-ticks would reorder it. The next checkpoint is a full
/// rewrite again and deletes them.
#[test]
fn a_stale_cache_chain_is_discarded() {
    let dir = TestDir::new("cache-stale");
    let rt = cache_runtime(&dir, 64, 2);
    (0..4).for_each(|k| use_key(&rt, k));
    checkpoint(&rt, None).unwrap(); // full: 0 1 2 3
    use_key(&rt, 0);
    checkpoint(&rt, None).unwrap(); // frame: 0
    use_key(&rt, 1);
    checkpoint(&rt, None).unwrap(); // frame: 1
    use_key(&rt, 2); // LRU→MRU: 3 0 1 2
    let stale = fs::read(cache_chain(&dir)).unwrap();
    assert_eq!(stale.split(|b| *b == b'\n').count(), 3);

    // Two frames extend the base: this checkpoint rewrites in full.
    let plan = FailPlan::new(CrashPoint::SnapshotAfterCommit);
    let err = checkpoint(&rt, Some(&plan)).unwrap_err();
    assert!(is_crash(&err));
    fs::write(cache_chain(&dir), &stale).unwrap();
    let committed = fs::read(current(&rt, StoreId::Cache)).unwrap();
    assert_eq!(committed, cache_bytes(&rt, &dir, "live.bin"));
    assert_eq!(
        recovered_cache(&dir, 64),
        committed,
        "the covered records are not replayed onto the new snapshot"
    );

    checkpoint(&rt, None).unwrap();
    assert!(
        !cache_chain(&dir).exists(),
        "a recovery or the retried rewrite deletes them"
    );
    assert_eq!(recovered_cache(&dir, 64), committed);
}

/// An eviction moves the cache's residency epoch, so the next checkpoint
/// rewrites the full snapshot instead of appending a frame: a frame has
/// no record for a removal. Here the evicted key is used again, which a
/// frame could not even express (its key was in the base).
#[test]
fn a_cache_eviction_forces_a_full_rewrite() {
    let dir = TestDir::new("cache-evict");
    let rt = cache_runtime(&dir, 4, 16);
    (0..4).for_each(|k| use_key(&rt, k));
    checkpoint(&rt, None).unwrap(); // full: 0 1 2 3
    use_key(&rt, 1);
    checkpoint(&rt, None).unwrap(); // frame
    assert!(cache_chain(&dir).exists());
    let base = fs::read(current(&rt, StoreId::Cache)).unwrap();

    use_key(&rt, 4); // evicts 0
    use_key(&rt, 0); // evicts 2, admits 0 again
    assert_eq!(rt.cache_stats().unwrap().evictions, 2);
    checkpoint(&rt, None).unwrap();
    assert!(segments(&rt).is_empty(), "a full rewrite covers the log");
    let rewritten = fs::read(current(&rt, StoreId::Cache)).unwrap();
    assert_ne!(rewritten, base);
    assert_eq!(rewritten, cache_bytes(&rt, &dir, "live.bin"));
    assert_eq!(recovered_cache(&dir, 4), rewritten);
}

/// The two-restart invariant: a torn tail must be physically removed by
/// recovery, so records acknowledged *after* the first recovery are not
/// swallowed by the second one (an append onto a lingering torn record
/// would fail its checksum and take every later record with it).
#[test]
fn torn_tail_recovery_keeps_post_recovery_appends_across_a_second_restart() {
    let dir = TestDir::new("wal-torn-twice");
    let d = dir.path();
    let (_rt, mut wal) = shared_wal(d, 0);
    wal.append(&spend("acme", 0.25)).unwrap();
    wal.append(&spend("acme", 0.5)).unwrap();
    drop(wal);
    let plan = Arc::new(FailPlan::new(CrashPoint::LogTornCommit).torn_keep(13));
    let (_rt, torn) = shared_wal(d, 0);
    let mut torn = torn.with_fail_plan(plan);
    let mut scratch = TenantLedger::new();
    torn.recover(&mut scratch).unwrap();
    torn.append(&spend("acme", 1.0)).unwrap_err();
    drop(torn);

    // Restart 1: the torn record is dropped — and scrubbed from disk.
    let mut ledger = TenantLedger::new();
    let (_rt, mut wal2) = shared_wal(d, 0);
    let recovery = wal2.recover(&mut ledger).unwrap();
    assert!(recovery.dropped_tail);
    assert_eq!(recovery.replayed, 2);
    let post = spend("acme", 2.0);
    wal2.append(&post).unwrap();
    apply(&mut ledger, &post);
    let expected_bits = ledger.spend(&"acme".into()).usd.to_bits();
    drop(wal2);

    // Restart 2: the acknowledged post-recovery spend survives in full.
    let (bits, recovery2) = recover_usd_bits(d, "acme");
    assert!(!recovery2.dropped_tail, "restart 1 repaired the file");
    assert_eq!(recovery2.replayed, 3);
    assert_eq!(bits, expected_bits, "no acknowledged record was lost");
}

/// Truncating or corrupting the shared log anywhere loses only a suffix
/// of the ledger: the intact prefix replays exactly, byte-level damage
/// never panics.
#[test]
fn wal_damage_loses_only_a_suffix() {
    let dir = TestDir::new("wal-damage");
    let d = dir.path();
    let (_rt, mut wal) = shared_wal(d, 0);
    let mut prefix_bits = Vec::new();
    let mut ledger = TenantLedger::new();
    for i in 0..4 {
        prefix_bits.push(ledger.spend(&"acme".into()).usd.to_bits());
        let record = spend("acme", 0.5 + i as f64);
        wal.append(&record).unwrap();
        apply(&mut ledger, &record);
    }
    drop(wal);
    prefix_bits.push(ledger.spend(&"acme".into()).usd.to_bits());
    let path = first_segment(d);
    let clean = fs::read(&path).unwrap();

    for cut in 1..clean.len() {
        fs::write(&path, &clean).unwrap();
        truncate_tail(&path, cut);
        let (bits, recovery) = recover_usd_bits(d, "acme");
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
        let (bits, recovery) = recover_usd_bits(d, "acme");
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

/// Per-tenant spend bits of a service's ledger.
fn spends_of(svc: &QueryService) -> Vec<(String, u64)> {
    let spends = svc.tenants().spends();
    spends
        .map(|(t, s)| (t.to_string(), s.usd.to_bits()))
        .collect()
}

/// A delta-mode service over `dir`, checkpointing every two operators,
/// whose ledger shares the runtime's log.
fn restart_service(dir: &TestDir) -> QueryService {
    let mut svc = ledger_service(dir, true);
    svc.attach_wal(LedgerWal::open(dir.file("ledger.wal")))
        .expect("wal recovery");
    svc
}

/// `restart_service`'s service, in delta mode or not, before its ledger
/// (at `ledger.wal`) is attached.
fn ledger_service(dir: &TestDir, delta: bool) -> QueryService {
    let rt = Runtime::builder()
        .seed(11)
        .semantic_cache(1 << 16)
        .cache_path(dir.file("semcache.bin"))
        .state_path(dir.file("state.bin"))
        .delta_checkpoints(delta)
        .checkpoint_interval(2)
        .build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    let mut svc = QueryService::new(
        rt,
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            group_commit: 4,
            ..ServeConfig::default()
        },
    );
    svc.register_context("reports", ctx);
    svc.register_tenant("acme", TenantConfig::weighted(2));
    svc.register_tenant("bolt", TenantConfig::default());
    svc
}

/// The headline proof: run the service cold, checkpointing into the
/// log its ledger shares, "crash" the process, restart warm. Per-tenant
/// dollars recover bit-identically — from the ledger's records in the
/// log, before and after saves that rewrote the other stores'
/// snapshots — the restore itself spends nothing, and re-running the
/// same workload serves entirely from the restored Contexts and the persisted semantic
/// cache — at zero new dollars, with the same answers.
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
    assert!(
        cold.wal_fsyncs < cold.wal_appends,
        "checkpoints carry records"
    );
    drop(cold_svc); // a crash before any save: the log alone
    let replayed = restart_service(&dir);
    assert!(replayed.wal_recovery().expect("wal attached").replayed > 0);
    assert_eq!(spends_of(&replayed), cold_spends);
    assert!(replayed.runtime().save_state().unwrap());
    assert!(replayed.runtime().save_cache().unwrap());
    drop(replayed); // the "crash": nothing outlives the process but disk

    // Phase 2: warm restart from disk.
    let mut warm_svc = restart_service(&dir);
    let recovery = warm_svc.wal_recovery().expect("wal attached");
    assert!(!recovery.snapshot_loaded, "the ledger never compacted");
    assert!(
        recovery.replayed > 0,
        "the rewrites kept the ledger's records"
    );
    assert!(
        !warm_svc.runtime().manager().is_empty(),
        "contexts restored from the snapshot"
    );
    assert_eq!(
        warm_svc.runtime().cost(),
        0.0,
        "restoring state costs zero re-materialization dollars"
    );
    let warm_spends = spends_of(&warm_svc);
    assert_eq!(
        cold_spends, warm_spends,
        "per-tenant dollars are bit-identical across the restart"
    );

    // Phase 3: the same workload warm — answered identically, $0 new.
    let warm = warm_svc.run(workload());
    assert_eq!(warm.completions.len(), cold.completions.len());
    assert!(warm.wal_appends > 0);
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

/// The `state.bin.*.log` segments of the log in `dir`.
fn log_segments(dir: &TestDir) -> usize {
    let names = fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name());
    let names: Vec<String> = names.map(|n| n.to_string_lossy().into_owned()).collect();
    (names.iter())
        .filter(|n| n.starts_with("state.bin.") && n.ends_with(".log"))
        .count()
}

/// A manifest that does not decode starts the runtime cold, but the
/// ledger that shares its log is refused, not served at zero spend; no
/// checkpoint writes over the manifest, and every segment stays.
#[test]
fn a_damaged_manifest_refuses_the_ledger_and_keeps_its_records() {
    let dir = TestDir::new("damaged-manifest");
    let mut svc = restart_service(&dir);
    assert!(svc.run(workload()).wal_appends > 0);
    let spends = spends_of(&svc);
    drop(svc);
    let manifest = dir.file("state.bin.manifest");
    let before = fs::read(&manifest).unwrap();
    let segments = log_segments(&dir);
    assert!(segments > 0);
    corrupt_byte(&manifest, before.len() - 3);

    let mut svc = ledger_service(&dir, true);
    assert!(
        svc.runtime().manager().is_empty(),
        "the runtime starts cold"
    );
    let refused = svc.attach_wal(LedgerWal::open(dir.file("ledger.wal")));
    assert!(matches!(refused, Err(SnapshotError::Format(_))));
    assert!(svc.runtime().save_state().is_err(), "no rewrite over it");
    assert_eq!(log_segments(&dir), segments);
    drop(svc);

    // Put back, the manifest recovers every tenant's spend.
    fs::write(&manifest, &before).unwrap();
    assert_eq!(spends_of(&restart_service(&dir)), spends);
}

/// A ledger keeps its state in the runtime's log in delta mode and in
/// its own otherwise. Switching the mode between runs is refused with a
/// typed error in both directions instead of starting every tenant at
/// zero spend, and the original mode still recovers it.
#[test]
fn switching_delta_mode_refuses_the_ledger() {
    for delta in [false, true] {
        let dir = TestDir::new(&format!("switch-{delta}"));
        let wal = || LedgerWal::open(dir.file("ledger.wal"));
        let mut svc = ledger_service(&dir, delta);
        svc.attach_wal(wal()).unwrap();
        assert!(svc.run(workload()).wal_appends > 0);
        let spends = spends_of(&svc);
        drop(svc);

        let mut switched = ledger_service(&dir, !delta);
        let refused = switched.attach_wal(wal());
        assert!(
            matches!(&refused, Err(SnapshotError::Format(msg)) if msg.contains("log")),
            "delta {delta}: {:?}",
            refused.map(|r| r.replayed)
        );
        drop(switched);

        let mut svc = ledger_service(&dir, delta);
        svc.attach_wal(wal()).unwrap();
        assert_eq!(spends_of(&svc), spends, "delta {delta}");
    }
}

/// A delta-mode service that never checkpoints keeps its log short all
/// the same: the ledger compacts at its threshold, and with no record of
/// the other stores pending, the segments its snapshot covers go.
#[test]
fn a_delta_service_without_checkpoints_keeps_its_log_bounded() {
    let dir = TestDir::new("bounded-log");
    let build = || {
        let rt = Runtime::builder()
            .seed(11)
            .state_path(dir.file("state.bin"))
            .delta_checkpoints(true)
            .build();
        let ctx = Context::builder("lake", lake())
            .description("FTC identity theft reports by year")
            .build(&rt);
        let config = ServeConfig {
            workers: 2,
            queue_capacity: 16,
            group_commit: 8,
            ..ServeConfig::default()
        };
        let mut svc = QueryService::new(rt, config);
        svc.register_context("reports", ctx);
        svc.register_tenant("acme", TenantConfig::default());
        svc.attach_wal(LedgerWal::open(dir.file("ledger.wal")).segment_records(32))
            .unwrap();
        svc
    };
    let mut svc = build();
    let requests = (0..400).map(|i| {
        let question = format!("count theft in {}", 2001 + i % 3);
        let mut r =
            aida::serve::QueryRequest::new("acme", "reports", question).at(i as f64 * 600.0);
        r.seq = i as u64;
        r
    });
    let report = svc.run(requests.collect());
    assert_eq!(report.wal_appends, 800);
    assert!(report.wal_compactions >= 2, "{}", report.render());
    // 800 records fill 25 segments; at most a threshold's worth (256
    // records, plus one ops interval's) are left.
    assert!(log_segments(&dir) <= 10, "{} segments", log_segments(&dir));
    let spends = spends_of(&svc);
    drop(svc);
    assert_eq!(spends_of(&build()), spends);
}

/// Reloading the Context store reads the log's records again without
/// moving its writer: a ledger record staged before
/// [`Runtime::load_state`] still commits with the next commit.
#[test]
fn load_state_leaves_staged_ledger_records_in_place() {
    let dir = TestDir::new("reload-staged");
    let (rt, mut wal) = shared_wal(dir.path(), 0);
    wal.recover(&mut TenantLedger::new()).unwrap();
    let log = rt.log().unwrap();
    let record = spend("acme", 0.5).encode();
    (log.lock())
        .stage(StoreId::Ledger, false, |out| out.push_str(&record))
        .unwrap();
    assert_eq!(rt.load_state().unwrap(), 0);
    log.lock().commit(None).unwrap();
    drop((rt, wal));
    let (bits, recovery) = recover_usd_bits(dir.path(), "acme");
    assert_eq!(bits, 0.5f64.to_bits());
    assert_eq!(recovery.replayed, 1);
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
    let replica = rt3.manager().decode_replica(&stale, &|id, lake, desc| {
        Context::builder(id, lake).description(desc).build(&rt3)
    });
    rt3.manager().install(replica.unwrap());
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
    let replica = rt2.manager().decode_replica(&snap, &|id, lake, desc| {
        Context::builder(id, lake).description(desc).build(&rt2)
    });
    rt2.manager().install(replica.unwrap());
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
    let replica = rt3.manager().decode_replica(&snap, &|id, lake, desc| {
        Context::builder(id, lake).description(desc).build(&rt3)
    });
    rt3.manager().install(replica.unwrap());
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

/// A runtime shared by threads loses no Context to a full rewrite: one
/// thread registers while another checkpoints (every other checkpoint
/// a full rewrite), and a restart restores every Context the live
/// store holds. A register that landed between a rewrite's snapshot and
/// the emptying of the journal used to be in neither.
#[test]
fn registers_during_full_rewrites_are_not_lost() {
    let dir = TestDir::new("rewrite-race");
    let build = || {
        Runtime::builder()
            .seed(7)
            .state_path(dir.file("state.bin"))
            .delta_checkpoints(true)
            .full_snapshot_every(1)
            .build()
    };
    let rt = build();
    let ctx = Context::builder("lake", lake()).build(&rt);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0..300 {
                rt.manager()
                    .register(&format!("question {i}"), ctx.clone(), 1.0);
            }
        });
        scope.spawn(|| {
            for _ in 0..100 {
                rt.save_state().unwrap();
            }
        });
    });
    rt.save_state().unwrap();
    assert_eq!(build().manager().len(), 300);
}

/// The checkpoint counters count everything a checkpoint writes: in
/// delta mode the first checkpoint's two full snapshots and manifest,
/// and every frame of the one log they share, the cache's sections
/// included.
#[test]
fn checkpoint_counters_count_both_stores() {
    let dir = TestDir::new("ckpt-counters");
    let rt = Runtime::builder()
        .seed(7)
        .tracing(true)
        .semantic_cache(4096)
        .state_path(dir.file("state.bin"))
        .cache_path(dir.file("semcache.bin"))
        .delta_checkpoints(true)
        .full_snapshot_every(1 << 20)
        .checkpoint_interval(1)
        .build();
    let ctx = Context::builder("lake", lake())
        .description("FTC identity theft reports by year")
        .build(&rt);
    for year in [2001, 2002, 2001] {
        let _ = rt
            .query(&ctx)
            .compute(format!("count identity theft reports in {year}"))
            .run();
    }
    let counters = rt.recorder().trace().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    let len = |path: &Path| fs::metadata(path).map(|m| m.len()).unwrap();
    let records = common::log_records(&rt);
    let frames = records.iter().filter(|r| !r.linked).count() as u64;
    assert!(frames > 0, "the checkpoints after the first are frames");
    assert_eq!(records.len() as u64, 2 * frames, "one record per store");
    assert_eq!(count("checkpoint.delta_frames"), frames);
    assert_eq!(count("checkpoint.saves"), 1 + frames);
    let log: u64 = segments(&rt).iter().map(|p| len(p)).sum();
    assert_eq!(
        count("checkpoint.bytes_written"),
        len(&current(&rt, StoreId::State))
            + len(&current(&rt, StoreId::Cache))
            + len(&dir.file("state.bin.manifest"))
            + log
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
    let state_text = fs::read_to_string(current(svc2.runtime(), StoreId::State)).unwrap();

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// An arbitrary record sequence written through the shared log
        /// replays in order and bit-identically, and replay is
        /// deterministic: two recoveries from the same bytes agree
        /// exactly.
        #[test]
        fn wal_replay_is_order_deterministic(
            records in prop::collection::vec(common::ledger_records(), 1..12)
        ) {
            let dir = TestDir::new("prop-wal");
            let (_rt, mut wal) = shared_wal(dir.path(), 0);
            let mut direct = TenantLedger::new();
            for record in &records {
                wal.append(record).unwrap();
                apply(&mut direct, record);
            }
            drop(wal);
            let recover = || {
                let mut ledger = TenantLedger::new();
                let (_rt, mut w) = shared_wal(dir.path(), 0);
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
            let replica = rt2.manager().decode_replica(&snap, &|id, lake, desc| {
                Context::builder(id, lake).description(desc).build(&rt2)
            });
            let restored = rt2.manager().install(replica.unwrap());
            prop_assert_eq!(restored, rt.manager().len());
            prop_assert_eq!(rt2.manager().encode_snapshot(), snap);
        }

        /// Group-committed ledger records in a segmented shared log
        /// under arbitrary damage to its last segment lose only a record
        /// *suffix*: the recovered ledger equals the direct application
        /// of exactly the first `replayed` records — no double-spend, no
        /// reordering — and two recoveries from the same damage agree
        /// bit-for-bit.
        #[test]
        fn segmented_batch_wal_damage_loses_only_a_suffix(
            batches in prop::collection::vec(
                prop::collection::vec(common::ledger_records(), 1..5),
                1..5,
            ),
            segment_records in 0usize..4,
            cut in 0usize..4096,
        ) {
            let dir = TestDir::new("prop-seg");
            let (rt, mut wal) = shared_wal(dir.path(), segment_records);
            let mut flat = Vec::new();
            for batch in &batches {
                wal.append_batch(batch).unwrap();
                flat.extend(batch.iter().cloned());
            }
            drop(wal);

            // Damage the last segment only; the full ones stay intact,
            // so the loss is bounded by its records.
            let path = segments(&rt).pop().unwrap();
            drop(rt);
            let tail = fs::read(&path).unwrap();
            let keep = cut % (tail.len() + 1);
            fs::write(&path, &tail[..keep]).unwrap();

            let recover = || {
                let mut ledger = TenantLedger::new();
                let (_rt, mut w) = shared_wal(dir.path(), segment_records);
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

        /// Cutting the log at an arbitrary byte recovers a state that is
        /// exactly one of the checkpointed frame states — the log replays
        /// a frame prefix or nothing, never a blend.
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
            let delta = segments(&rt).remove(0);
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
