//! Checkpoint-scaling bench: full-rewrite vs delta-frame state saves.
//!
//! Grows the ContextManager population 1× → 10× → 100× and, at each
//! scale, runs the same mutation/checkpoint cycle in two modes:
//!
//! * **full** — every `save_state` rewrites the entire snapshot through
//!   the atomic-rename path; bytes written per checkpoint grow linearly
//!   with the store.
//! * **delta** — the first save writes one full snapshot, every later
//!   save appends a checksummed delta frame carrying only the records
//!   since the previous checkpoint; bytes written per checkpoint stay
//!   flat regardless of store size.
//!
//! Contexts are materialized the way the service materializes them:
//! every one is a narrowing of ONE shared lake and holds three of its
//! eight documents by `Arc`, its own description, and one of two
//! findings tables (built afresh for each Context, as repeated questions
//! build them). A state file writes each document, description and
//! findings table once (the pool), so a full snapshot costs the distinct
//! documents and tables plus per-Context metadata and description — not
//! Contexts × documents — and a delta frame that inserts a Context over
//! an already-written description, findings and documents carries
//! indices, not text.
//!
//! Bytes are measured from the files themselves (state-file size per
//! full rewrite, log growth per frame), so the canonical
//! metrics in `results/BENCH_checkpoint.json` are byte-identical across
//! same-seed runs; wall-clock timings are printed for context but never
//! emitted. A serve-style coda appends the same ledger records
//! per-record vs group-committed and reports the fsync collapse.
//!
//! Self-asserts (the paper's scaling claim): delta bytes/checkpoint at
//! the largest scale stay within 2× of the smallest; full-rewrite
//! bytes/checkpoint grow with the store, but by metadata only — every
//! snapshot holds each document at most once, and a Context added to
//! the store adds less than half of ONE document's bytes although it
//! holds three; an insert frame over a known description, findings and
//! documents defines no pool record; and group commit cuts fsyncs per
//! append by at least 5×.
//! `CHECKPOINT_BENCH_SMOKE=1` drops the 100× rung for CI.

use aida_bench::BenchResult;
use aida_core::{Context, Runtime};
use aida_data::{DataLake, Document, Schema, Table, Value};
use aida_llm::snapshot::{read_records, StoreId};
use aida_llm::WallStopwatch;
use aida_serve::{LedgerRecord, LedgerWal};
use std::path::Path;
use std::sync::Arc;

/// Checkpoint cycles measured per mode (after the seeding full save).
const CYCLES: usize = 8;

/// Documents in the shared lake, and how many of them a Context holds.
const LAKE_DOCS: usize = 8;
const DOCS_PER_CONTEXT: usize = 3;

/// The marker each lake document's body starts with (and holds once).
fn doc_marker(k: usize) -> String {
    format!("lake document {k} body:")
}

/// The one lake every Context of a run is narrowed from: ~1 KiB per
/// document, so text and metadata are easy to tell apart in the bytes.
fn shared_lake() -> DataLake {
    DataLake::from_docs((0..LAKE_DOCS).map(|k| {
        let line = format!(" synthetic checkpoint-bench sentence of document {k};");
        Document::new(
            format!("lake{k}.txt"),
            format!("{}{}", doc_marker(k), line.repeat(20)),
        )
    }))
}

/// Context `i`: documents `i..i+3` (mod 8) of the shared lake, held by
/// `Arc` exactly as `search`/`compute` narrow a lake, and findings table
/// `i % 2`, a new `Arc` every time.
fn context(rt: &Runtime, lake: &DataLake, i: usize) -> Context {
    let docs = (0..DOCS_PER_CONTEXT).map(|j| Arc::clone(&lake.docs()[(i + j) % LAKE_DOCS]));
    let mut context = Context::builder(format!("seed{i}"), DataLake::from_arcs(docs))
        .description(format!("checkpoint bench context seed{i}"))
        .build(rt);
    let mut findings = Table::new(Schema::of(["document", "matches"]));
    for k in 0..4 {
        let row = vec![
            Value::Str(format!("lake{k}.txt").into()),
            Value::Int((i % 2 * 10 + k) as i64),
        ];
        findings.push_row(row).expect("two cells for two columns");
    }
    context.findings = Some(Arc::new(findings));
    context
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

struct ModeRun {
    bytes_per_ckpt: f64,
    frames: u64,
    wall_s: f64,
    /// Pool lines in the state file of the seeding full snapshot.
    pool_docs: usize,
    /// Delta mode: bytes of one more frame that inserts a Context over
    /// documents the chain already holds.
    insert_frame_bytes: u64,
}

/// Seeds `scale` contexts, full-saves once, then runs `CYCLES` cycles of
/// one LRU touch + one checkpoint, measuring bytes written per
/// checkpoint from the on-disk files. Touches mutate recency ticks
/// without growing the store, so full-rewrite bytes track the store
/// size while each delta frame carries a single touch record.
fn run_mode(dir: &Path, scale: usize, delta: bool) -> ModeRun {
    let state = dir.join(format!("state_{scale}_{delta}.bin"));
    let mut builder = Runtime::builder()
        .seed(42)
        .context_capacity(4096)
        .state_path(&state);
    if delta {
        // One full snapshot up front, delta frames for every later save.
        builder = builder.delta_checkpoints(true).full_snapshot_every(1 << 20);
    }
    let rt = builder.build();
    let lake = shared_lake();
    for i in 0..scale {
        let ctx = context(&rt, &lake, i);
        rt.manager()
            .register(&format!("seed instruction {i}"), ctx, 1.0);
    }
    assert!(rt.save_state().expect("seeding checkpoint"), "seed save");

    // The pool: however many Contexts hold a document, the snapshot
    // writes it once. In delta mode the snapshot is the log's first
    // generation, and the frames go to the log's segments.
    let log = rt.log();
    let seeded_path = match log {
        Some(log) => log.lock().snapshot_path(StoreId::State).expect("seeded"),
        None => state.clone(),
    };
    let seeded = std::fs::read_to_string(seeded_path).expect("seeded state file");
    let pool_docs = seeded.lines().filter(|l| l.starts_with("P\t")).count();
    let distinct = LAKE_DOCS.min(scale + DOCS_PER_CONTEXT - 1);
    assert_eq!(
        pool_docs, distinct,
        "scale {scale}: one pool line per distinct document"
    );
    for k in 0..LAKE_DOCS {
        let copies = seeded.matches(&doc_marker(k)).count();
        assert!(copies <= 1, "scale {scale}: document {k} written {copies}x");
    }
    let tables = seeded.lines().filter(|l| l.starts_with("F\t")).count();
    assert_eq!(
        tables,
        scale.min(2),
        "scale {scale}: one pool line per distinct table"
    );

    let log_len = || {
        let segments = log.map(|log| log.lock().segment_paths());
        segments
            .unwrap_or_default()
            .iter()
            .map(|p| file_len(p))
            .sum::<u64>()
    };
    let mut bytes_written = 0u64;
    let mut frames = 0u64;
    let watch = WallStopwatch::start();
    let mut last_delta_len = log_len();
    for i in 0..CYCLES {
        let target = (i * 7) % scale;
        rt.manager()
            .reuse(&format!("seed instruction {target}"), 0.9)
            .expect("touch hits the registered instruction");
        assert!(rt.save_state().expect("cycle checkpoint"), "cycle save");
        if delta {
            let len = log_len();
            bytes_written += len - last_delta_len;
            last_delta_len = len;
            frames += 1;
        } else {
            // A full rewrite replaces the state file wholesale.
            bytes_written += file_len(&state);
        }
    }
    let wall_s = watch.elapsed_s();

    // One more frame, this time an insert: the new Context holds three
    // documents, a description and a findings table the log holds, and
    // the frame names them by index.
    let mut insert_frame_bytes = 0;
    if let Some(log) = log {
        let newcomer = (0..LAKE_DOCS)
            .find(|i| distinct == LAKE_DOCS || i + DOCS_PER_CONTEXT <= distinct)
            .expect("some window of the lake is already in the pool");
        rt.manager().register(
            "a late arrival over known documents",
            context(&rt, &lake, newcomer),
            1.0,
        );
        assert!(rt.save_state().expect("insert checkpoint"), "insert save");
        insert_frame_bytes = log_len() - last_delta_len;
        // The seeding snapshot covers the log from its first record on.
        let segment = log.lock().segment_paths().remove(0);
        let bytes = std::fs::read(segment).expect("log segment");
        let frames = read_records(&bytes, 0).records;
        assert_eq!(
            frames.len(),
            CYCLES + 1,
            "scale {scale}: one record a frame"
        );
        for tag in ["\tP\t", "\tD\t", "\tF\t"] {
            assert!(
                frames.iter().all(|frame| !frame.payload.contains(tag)),
                "scale {scale}: a frame over known pool items defines none"
            );
        }
    }

    // The log must replay to exactly the live store before we credit the
    // bytes saved.
    let rebuilt = Runtime::builder()
        .seed(42)
        .context_capacity(4096)
        .state_path(&state)
        .delta_checkpoints(delta)
        .build();
    assert_eq!(
        rebuilt.manager().encode_snapshot(),
        rt.manager().encode_snapshot(),
        "recovered store diverged at scale {scale} (delta={delta})"
    );

    ModeRun {
        bytes_per_ckpt: bytes_written as f64 / CYCLES as f64,
        frames,
        wall_s,
        pool_docs,
        insert_frame_bytes,
    }
}

/// Serve-style coda: the same ledger records appended one fsync per
/// record vs group-committed in batches of 8 into the same WAL format.
fn fsync_rates(dir: &Path, records: usize) -> (f64, f64) {
    let spend = |i: usize| LedgerRecord::Spend {
        tenant: format!("t{}", i % 4).into(),
        usd: 0.01,
        tokens: 100,
        calls: 1,
        cache_hits: 0,
        cache_coalesced: 0,
    };
    let mut plain = LedgerWal::open(dir.join("plain.wal"));
    for i in 0..records {
        plain.append(&spend(i)).expect("plain append");
    }
    let mut grouped = LedgerWal::open(dir.join("grouped.wal"));
    let batch: Vec<LedgerRecord> = (0..records).map(spend).collect();
    for chunk in batch.chunks(8) {
        grouped.append_batch(chunk).expect("grouped append");
    }
    (
        plain.stats().fsyncs as f64 / records as f64,
        grouped.stats().fsyncs as f64 / records as f64,
    )
}

fn main() {
    let smoke = std::env::var("CHECKPOINT_BENCH_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty());
    let scales: &[usize] = if smoke { &[1, 10] } else { &[1, 10, 100] };
    let seed = 42;

    let scratch = aida_bench::results_dir().join("checkpoint_scratch");
    if scratch.exists() {
        std::fs::remove_dir_all(&scratch).expect("reset scratch dir");
    }
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let mut bench = BenchResult::new("checkpoint", seed);
    let mut full_rates = Vec::new();
    let mut delta_rates = Vec::new();
    let mut insert_frames = Vec::new();
    let mut pool_docs = Vec::new();
    for &scale in scales {
        let full = run_mode(&scratch, scale, false);
        let delta = run_mode(&scratch, scale, true);
        println!(
            "scale {scale:>4}x: full {:>8.0} B/ckpt ({:.3}s wall)  delta {:>7.0} B/ckpt, {} frames ({:.3}s wall)",
            full.bytes_per_ckpt, full.wall_s, delta.bytes_per_ckpt, delta.frames, delta.wall_s,
        );
        bench = bench
            .metric(format!("full_{scale}x/bytes_per_ckpt"), full.bytes_per_ckpt)
            .metric(
                format!("delta_{scale}x/bytes_per_ckpt"),
                delta.bytes_per_ckpt,
            )
            .metric(format!("full_{scale}x/pool_docs"), full.pool_docs as f64)
            .metric(format!("delta_{scale}x/frames"), delta.frames as f64)
            .metric(
                format!("delta_{scale}x/insert_frame_bytes"),
                delta.insert_frame_bytes as f64,
            );
        assert_eq!(full.pool_docs, delta.pool_docs, "both modes seed alike");
        pool_docs.push(full.pool_docs);
        insert_frames.push(delta.insert_frame_bytes as f64);
        full_rates.push(full.bytes_per_ckpt);
        delta_rates.push(delta.bytes_per_ckpt);
    }

    let delta_flatness = delta_rates.last().unwrap() / delta_rates[0];
    let full_growth = full_rates.last().unwrap() / full_rates[0];
    let top = scales.last().unwrap();
    println!(
        "scaling {top}x/1x: full-rewrite {full_growth:.1}x more bytes per checkpoint, delta {delta_flatness:.2}x"
    );
    // A snapshot is its distinct documents plus per-Context metadata:
    // what one more Context adds once the documents new to the pool are
    // taken out, against what one of the three documents it holds weighs.
    let doc_bytes = shared_lake().total_bytes() as f64 / LAKE_DOCS as f64;
    let new_docs = (pool_docs.last().unwrap() - pool_docs[0]) as f64;
    let per_context = (full_rates.last().unwrap() - full_rates[0] - new_docs * doc_bytes)
        / (*top as f64 - scales[0] as f64);
    println!(
        "full snapshot: +{per_context:.0} B per Context holding {DOCS_PER_CONTEXT} documents of {doc_bytes:.0} B; insert frame {:.0} B",
        insert_frames.last().unwrap()
    );
    bench = bench
        .metric("full_growth_x", full_growth)
        .metric("delta_flatness_x", delta_flatness)
        .metric("full_bytes_per_added_context", per_context)
        .metric("lake_doc_bytes", doc_bytes);

    let records = if smoke { 32 } else { 256 };
    let (plain_rate, grouped_rate) = fsync_rates(&scratch, records);
    let reduction = plain_rate / grouped_rate;
    println!(
        "ledger fsyncs/append: {plain_rate:.3} per-record vs {grouped_rate:.3} group-committed ({reduction:.1}x fewer)"
    );
    bench = bench
        .metric("wal/fsyncs_per_append_plain", plain_rate)
        .metric("wal/fsyncs_per_append_grouped", grouped_rate)
        .metric("wal/fsync_reduction_x", reduction);

    aida_bench::emit_bench(&bench);
    std::fs::remove_dir_all(&scratch).expect("clean scratch dir");

    // The paper claim, enforced: deltas are flat, full rewrites are not,
    // and group commit collapses the fsync rate.
    if delta_flatness > 2.0 {
        eprintln!("FAIL: delta bytes/checkpoint grew {delta_flatness:.2}x at {top}x scale (> 2x)");
        std::process::exit(1);
    }
    if full_growth < 2.0 * delta_flatness.max(1.0) {
        eprintln!("FAIL: full-rewrite bytes grew only {full_growth:.1}x at {top}x scale");
        std::process::exit(1);
    }
    if per_context > doc_bytes / 2.0 {
        eprintln!(
            "FAIL: a Context adds {per_context:.0} B to a full snapshot; its documents ({doc_bytes:.0} B each) are being copied per Context"
        );
        std::process::exit(1);
    }
    if *insert_frames.last().unwrap() > doc_bytes / 2.0 {
        eprintln!("FAIL: an insert frame over known documents carries their text");
        std::process::exit(1);
    }
    if reduction < 5.0 {
        eprintln!("FAIL: group commit cut fsyncs only {reduction:.1}x (< 5x)");
        std::process::exit(1);
    }
}
