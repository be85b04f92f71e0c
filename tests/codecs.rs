//! One property harness over every durable text format: the semantic
//! cache snapshot, the ledger record, the ledger snapshot, the
//! Context-store snapshot, the runtime's delta frame (the cache's
//! section alone, the Context store's alone, and both together), the
//! log's record framing, the manifest and the compiled Pyrite artifact. Each is driven through its public writer
//! and reader, and each must hold the same three properties:
//!
//! 1. decode∘encode is the identity on encoder output (for the bytecode
//!    artifact also on the decoded program and its content hash);
//! 2. a body that is edited — bytes flipped or replaced, truncated,
//!    lines (fields, for a WAL payload) dropped or duplicated — and
//!    re-framed so its checksum passes never panics the decoder;
//! 3. whatever such a body decodes to is a fixpoint of decode∘encode.
//!
//! A delta frame decodes into a whole store, so its fixpoint is that of
//! the store's snapshot. The log's framing and the manifest also show
//! that every strict prefix of an encoding is refused or, for the log,
//! read as an exact prefix of whole units.

use aida::core::manager::encode_delta_frame;
use aida::core::{Context, Runtime};
use aida::data::{DataLake, Document, Field, Schema, Table, Value};
use aida::llm::cache::Lookup;
use aida::llm::snapshot::{
    decode_file, encode_file, read_records, Log, LogRecord, Manifest, StoreId,
};
use aida::llm::{CacheKey, LlmResponse, SemanticCache, UsageSnapshot};
use aida::script::CompiledProgram;
use aida::serve::{LedgerRecord, LedgerWal, Spend, TenantId, TenantLedger};
use aida_testkit::TestDir;
use proptest::prelude::*;
use std::fs;
use std::sync::Arc;

mod common;

/// One edit to an encoded body.
#[derive(Debug, Clone)]
enum Edit {
    /// The byte at the index becomes one the formats treat specially
    /// (even `byte`) or has its bits flipped by `byte` (odd).
    Byte(usize, u8),
    /// Everything from the index on is cut.
    Truncate(usize),
    /// The line (field) at the index is dropped.
    Drop(usize),
    /// The line (field) at the index is written twice.
    Duplicate(usize),
}

/// Separators, escapes, flag and sign characters, digits at their
/// extremes, and value tags.
const SPECIAL: &[u8] = b"01 9\t\n\\-=,[]finsl";

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec(
        (0u8..4, any::<usize>(), any::<u8>()).prop_map(|(kind, at, byte)| match kind {
            0 => Edit::Byte(at, byte),
            1 => Edit::Truncate(at),
            2 => Edit::Drop(at),
            _ => Edit::Duplicate(at),
        }),
        1..4,
    )
}

/// Applies `edits` to `body`, whose records `sep` separates.
fn edited(body: &str, edits: &[Edit], sep: char) -> String {
    let mut text = body.to_string();
    for edit in edits {
        text = match *edit {
            Edit::Byte(at, byte) => {
                let mut bytes = text.into_bytes();
                let len = bytes.len().max(1);
                if let Some(b) = bytes.get_mut(at % len) {
                    *b = match byte % 2 {
                        0 => SPECIAL[byte as usize / 2 % SPECIAL.len()],
                        _ => *b ^ byte,
                    };
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
            Edit::Truncate(at) => {
                let bytes = text.as_bytes();
                String::from_utf8_lossy(&bytes[..at % (bytes.len() + 1)]).into_owned()
            }
            Edit::Drop(at) | Edit::Duplicate(at) => {
                let mut parts: Vec<&str> = text.split_inclusive(sep).collect();
                if !parts.is_empty() {
                    let i = at % parts.len();
                    match edit {
                        Edit::Drop(_) => drop(parts.remove(i)),
                        _ => parts.insert(i, parts[i]),
                    }
                }
                parts.concat()
            }
        };
    }
    text
}

/// Checks the three properties for one format. `encoded` is encoder
/// output; `round_trip` decodes a text and encodes what it decoded, or
/// is `None` when the decoder rejects the text. A body is framed under
/// `magic`; `None` marks a WAL payload, whose record checksum is computed
/// over whatever payload it is handed.
fn check(
    magic: Option<&str>,
    encoded: &str,
    edits: &[Edit],
    round_trip: impl Fn(&str) -> Option<String>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(round_trip(encoded), Some(encoded.to_string()));
    let text = match magic {
        Some(magic) => {
            let body = decode_file(magic, encoded).expect("encoder output is framed");
            encode_file(magic, &edited(body, edits, '\n'))
        }
        None => edited(encoded, edits, '\t'),
    };
    if let Some(once) = round_trip(&text) {
        prop_assert_eq!(
            round_trip(&once),
            Some(once.clone()),
            "what {:?} decodes to is a fixpoint",
            text
        );
    }
    Ok(())
}

// ---- generators ---------------------------------------------------------

/// Every byte the codecs escape or split on, and multi-byte characters.
const ALPHABET: [char; 16] = [
    '\\', '\t', '\n', '\r', ',', '[', ']', ' ', '=', 'a', 'n', 't', '0', '9', 'é', '語',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        text().prop_map(|s| Value::Str(s.as_str().into())),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop::collection::vec(inner, 0..3).prop_map(Value::List)
    })
}

/// A document: name, content and labels.
type DocSpec = (String, String, Vec<(String, Value)>);

/// A store's Contexts: an instruction, a cost (any bits), indices into
/// the shared documents, and maybe a findings table.
type ContextSpec = (String, u64, Vec<usize>, Option<(usize, Vec<Value>)>);

/// Documents (name, content, labels) and the Contexts over them.
fn store() -> impl Strategy<Value = (Vec<DocSpec>, Vec<ContextSpec>)> {
    let doc = (
        text(),
        text(),
        prop::collection::vec((text(), value()), 0..3),
    );
    let findings = (1usize..3, prop::collection::vec(value(), 0..6));
    let context = (
        text(),
        any::<u64>(),
        prop::collection::vec(0usize..4, 0..4),
        prop_oneof![Just(None), findings.prop_map(Some)],
    );
    (
        prop::collection::vec(doc, 1..4),
        prop::collection::vec(context, 1..4),
    )
}

fn runtime(capacity: usize) -> Runtime {
    Runtime::builder()
        .seed(5)
        .context_capacity(capacity)
        .build()
}

/// Registers `contexts` over `docs` in `rt`'s manager. Contexts pair
/// up, `(0, 1)`, `(2, 3)`, …: the pair shares the first one's
/// instruction as its description and the first one's findings (built
/// afresh for each), so the pool defines some once and refers back.
fn register(rt: &Runtime, docs: &[DocSpec], contexts: &[ContextSpec]) {
    for (i, (instruction, cost_bits, picks, _)) in contexts.iter().enumerate() {
        let (description, _, _, findings) = &contexts[i - i % 2];
        let lake = DataLake::from_docs(picks.iter().map(|&pick| {
            let (name, content, labels) = &docs[pick % docs.len()];
            labels.iter().fold(
                Document::new(name.as_str(), content.as_str()),
                |doc, (k, v)| doc.with_label(k.as_str(), v.clone()),
            )
        }));
        let mut ctx = Context::builder(format!("ctx{i}"), lake)
            .description(description.as_str())
            .build(rt);
        if let Some((ncols, cells)) = findings {
            let columns = (0..*ncols)
                .map(|c| Field::described(format!("c{c}"), "d"))
                .collect();
            let mut table = Table::new(Schema::from_fields(columns));
            for row in cells.chunks_exact(*ncols) {
                table.push_row(row.to_vec()).unwrap();
            }
            ctx.findings = Some(Arc::new(table));
        }
        rt.manager()
            .register(instruction, ctx, f64::from_bits(*cost_bits));
    }
}

/// Loads a Context-store snapshot (and frames) into a fresh runtime and
/// writes its snapshot; `None` when the snapshot is rejected or, with a
/// frame, when the frame does not apply.
fn store_round_trip(capacity: usize, snapshot: &str, frames: &[(u64, String)]) -> Option<String> {
    let rt = runtime(capacity);
    let manager = rt.manager();
    let rebuild =
        |id: &str, lake, desc: &str| Context::builder(id, lake).description(desc).build(&rt);
    let mut replica = manager.decode_replica(snapshot, &rebuild).ok()?;
    for (_, section) in frames {
        replica.apply(manager.decode_section(&replica, section, &rebuild).ok()?);
    }
    manager.install(replica);
    Some(manager.encode_snapshot())
}

/// A delta-mode runtime over `dir` whose semantic cache is durable and,
/// with `state`, its Context store too (capacity 2, so inserts evict).
fn durable_runtime(dir: &TestDir, state: bool) -> Runtime {
    let mut builder = Runtime::builder()
        .seed(5)
        .context_capacity(2)
        .semantic_cache(64)
        .delta_checkpoints(true)
        .cache_path(dir.file("cache.snap"));
    if state {
        builder = builder.state_path(dir.file("state.snap"));
    }
    builder.build()
}

/// Uses the cache entry `i` of `texts` (wrapping): a miss admits it, a
/// hit re-ticks it.
fn use_entry(rt: &Runtime, texts: &[(Value, String)], i: usize) {
    let cache = rt.semantic_cache().unwrap();
    if let Lookup::Compute(pending) = cache.begin(CacheKey {
        hi: 7,
        lo: i as u64,
    }) {
        let (value, text) = texts[i % texts.len()].clone();
        cache.admit(
            pending,
            LlmResponse {
                value,
                text,
                input_tokens: i,
                output_tokens: 1,
                latency_s: 0.5,
                corrupted: false,
                receipt: UsageSnapshot::default(),
            },
        );
    }
}

/// `rt`'s stores as full snapshots: the Context store's and the cache's.
fn durable_bytes(rt: &Runtime, dir: &TestDir) -> (String, String) {
    let other = dir.file("other.snap");
    rt.semantic_cache().unwrap().save(&other).unwrap();
    (
        rt.manager().encode_snapshot(),
        fs::read_to_string(&other).unwrap(),
    )
}

/// What a runtime built over `dir` recovers, with its log replaced by
/// `records` (re-checksummed) when given.
fn recovered(dir: &TestDir, state: bool, records: Option<&[LogRecord]>) -> (String, String) {
    if let Some(records) = records {
        common::write_log(&durable_runtime(dir, state), records);
    }
    durable_bytes(&durable_runtime(dir, state), dir)
}

/// Recovers from the unit `records` with each payload edited by `edits`,
/// then saves what it recovered as the snapshots of a log-less restart:
/// the second recovery must equal the first.
fn check_chain_edits(
    dir: &TestDir,
    state: bool,
    records: &[LogRecord],
    edits: &[Edit],
) -> Result<(), TestCaseError> {
    let mut records = records.to_vec();
    for record in &mut records {
        record.payload = edited(&record.payload, edits, '\t');
    }
    let once = recovered(dir, state, Some(&records));
    let rt = durable_runtime(dir, state);
    let log = rt.log().unwrap().lock();
    if state {
        fs::write(log.snapshot_path(StoreId::State).unwrap(), &once.0).unwrap();
    }
    fs::write(log.snapshot_path(StoreId::Cache).unwrap(), &once.1).unwrap();
    drop(log);
    common::write_log(&rt, &[]);
    prop_assert_eq!(recovered(dir, state, None), once);
    Ok(())
}

/// Programs that together use every opcode and every operator the
/// compiler emits, escaped text, and a float.
const PROGRAMS: &[&str] = &[
    "total = 0\nfor n in [1, 2, 3]:\n    if n % 2 == 1:\n        total += n\nd = {'k': total}\ntotal",
    "def f(a, b):\n    c = a + b\n    return c\nfs = [f]\nfs[0](1, 2) + f(3, 4)",
    "xs = [x * 2 for x in range(5) if x != 3]\nys = xs[1:-1]\nxs[0] = -ys[0]\nnot (1 in xs) or 2 not in ys and 3 >= 1",
    "s = 'a\\tb c\\\\ d'\nt = s.upper().split(' ')\nlen(t) // 2 - 1.5 * 2 / 4 <= 3",
    "n = 0\nwhile True:\n    n += 1\n    if n > 9:\n        break\n    if n < 3:\n        continue\nfor k in [1, 2]:\n    if k == 2:\n        break\nn",
    "x = None\ny = False\nfor a, b in [[1, 2]]:\n    x = a\nbreak",
    "def g(h):\n    def twice(v):\n        return h(h(v))\n    return twice\ng(str)(7)",
];

// ---- the formats --------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 2048 }))]

    /// The semantic cache snapshot: entries written least recent first.
    #[test]
    fn cache_snapshot(
        entries in prop::collection::vec(
            ((any::<u64>(), 0usize..1 << 40, 0usize..1 << 20), (any::<u64>(), any::<bool>()), (value(), text())),
            0..5,
        ),
        edits in edits(),
    ) {
        let dir = TestDir::new("codec-cache");
        let cache = SemanticCache::with_capacity(0);
        for (i, ((hi, input_tokens, output_tokens), (latency_bits, corrupted), (value, text))) in
            entries.into_iter().enumerate()
        {
            let Lookup::Compute(pending) = cache.begin(CacheKey { hi, lo: i as u64 }) else {
                panic!("a fresh key is computed");
            };
            cache.admit(pending, LlmResponse {
                value,
                text,
                input_tokens,
                output_tokens,
                latency_s: f64::from_bits(latency_bits),
                corrupted,
                receipt: UsageSnapshot::default(),
            });
        }
        let path = dir.file("cache.snap");
        cache.save(&path).unwrap();
        let encoded = fs::read_to_string(&path).unwrap();
        check(Some("aida-semcache v1"), &encoded, &edits, |text| {
            fs::write(&path, text).unwrap();
            let cache = SemanticCache::with_capacity(0);
            cache.load(&path).ok()?;
            cache.save(&path).unwrap();
            Some(fs::read_to_string(&path).unwrap())
        })?;
    }

    /// The semantic cache's delta frame, as a runtime whose only durable
    /// store is the cache writes it to its chain: entries admitted since
    /// the snapshot in full, re-ticked ones by key. A frame decodes into
    /// a whole cache, so its fixpoint is the cache snapshot's.
    #[test]
    fn cache_delta_frame(
        texts in prop::collection::vec((value(), text()), 1..5),
        later in (prop::collection::vec(0usize..5, 0..4), 0usize..3),
        edits in edits(),
    ) {
        let ((retick, added), dir) = (later, TestDir::new("codec-cache-frame"));
        let rt = durable_runtime(&dir, false);
        (0..texts.len()).for_each(|i| use_entry(&rt, &texts, i));
        rt.save_state().unwrap();
        retick.iter().map(|i| i % texts.len()).chain(texts.len()..texts.len() + added)
            .for_each(|i| use_entry(&rt, &texts, i));
        rt.save_state().unwrap();
        let records = common::log_records(&rt);
        prop_assert!(records.len() <= 1);
        let expected = durable_bytes(&rt, &dir);
        prop_assert_eq!(&recovered(&dir, false, None), &expected);
        if !records.is_empty() {
            check_chain_edits(&dir, false, &records, &edits)?;
        }
    }

    /// The combined delta frame of a runtime with both durable stores:
    /// the Context store's section (inserts over new and pooled
    /// documents, recency bumps, capacity evictions) behind its length,
    /// then the cache's. Base plus frame recovers both live stores; an
    /// edited frame never panics recovery, and what it recovers to is a
    /// fixpoint of saving and recovering.
    #[test]
    fn combined_delta_frame(
        store in store(),
        later in (prop::collection::vec(0usize..4, 0..4), prop::collection::vec(0usize..4, 0..3)),
        texts in prop::collection::vec((value(), text()), 1..4),
        uses in prop::collection::vec(0usize..6, 0..5),
        edits in edits(),
    ) {
        let ((docs, contexts), (more, bumps)) = (store, later);
        let dir = TestDir::new("codec-combined-frame");
        let rt = durable_runtime(&dir, true);
        register(&rt, &docs, &contexts);
        (0..texts.len()).for_each(|i| use_entry(&rt, &texts, i));
        rt.save_state().unwrap();
        let added: Vec<ContextSpec> = more
            .iter()
            .map(|&pick| (format!("later {pick}"), 1.0f64.to_bits(), vec![pick, pick + 1], None))
            .collect();
        register(&rt, &docs, &added);
        for &bump in &bumps {
            let (instruction, ..) = &contexts[bump % contexts.len()];
            rt.manager().reuse(instruction, 0.999);
        }
        uses.iter().for_each(|&i| use_entry(&rt, &texts, i));
        rt.save_state().unwrap();
        let records = common::log_records(&rt);
        prop_assert!(records.len() <= 2);
        let expected = durable_bytes(&rt, &dir);
        prop_assert_eq!(&recovered(&dir, true, None), &expected);
        if !records.is_empty() {
            check_chain_edits(&dir, true, &records, &edits)?;
        }
    }

    /// A ledger WAL record (payload; the WAL frames and checksums it).
    #[test]
    fn ledger_record(record in common::ledger_records(), edits in edits()) {
        let encoded = record.encode();
        prop_assert!(!encoded.contains('\n'));
        check(None, &encoded, &edits, |text| {
            LedgerRecord::decode(text).ok().map(|r| r.encode())
        })?;
    }

    /// The ledger snapshot a compaction writes: one spend line per
    /// tenant (the manifest says which log records it covers).
    #[test]
    fn ledger_snapshot(
        spends in prop::collection::vec(
            (text(), any::<u64>(), (any::<u64>(), any::<u64>()), (any::<u64>(), any::<u64>())),
            0..4,
        ),
        admits in 0usize..4,
        edits in edits(),
    ) {
        let dir = TestDir::new("codec-ledger");
        let wal_path = dir.file("ledger.wal");
        let current = || {
            let manifest = fs::read_to_string(dir.file("ledger.wal.manifest")).unwrap();
            let generation = Manifest::decode(&manifest).unwrap().stores[&StoreId::Ledger].0;
            dir.file(&format!("ledger.wal.{generation:016x}"))
        };
        let mut ledger = TenantLedger::new();
        for (tenant, usd_bits, (tokens, calls), (cache_hits, cache_coalesced)) in spends {
            ledger.charge(&TenantId::new(tenant), Spend {
                usd: f64::from_bits(usd_bits),
                tokens,
                calls,
                cache_hits,
                cache_coalesced,
            });
        }
        let mut wal = LedgerWal::open(&wal_path);
        for _ in 0..admits {
            wal.append(&LedgerRecord::Admit { tenant: TenantId::new("t") }).unwrap();
        }
        wal.compact(&ledger).unwrap();
        let encoded = fs::read_to_string(current()).unwrap();
        check(Some("aida-ledger v2"), &encoded, &edits, |text| {
            fs::write(current(), text).unwrap();
            let mut ledger = TenantLedger::new();
            let mut wal = LedgerWal::open(&wal_path);
            wal.recover(&mut ledger).ok()?;
            wal.compact(&ledger).unwrap();
            Some(fs::read_to_string(current()).unwrap())
        })?;
    }

    /// The log's record framing: records of any store, linked into
    /// units, with payloads of any text, as a log commits them. Every
    /// strict prefix reads as an exact prefix of whole units, and edited
    /// bytes read as records that are a fixpoint of committing and
    /// reading again.
    #[test]
    fn log_records(
        records in prop::collection::vec((0usize..3, any::<bool>(), text()), 1..6),
        edits in edits(),
    ) {
        let stores = [StoreId::Ledger, StoreId::State, StoreId::Cache];
        let last = records.len() - 1;
        let records: Vec<LogRecord> = records
            .into_iter()
            .enumerate()
            .map(|(i, (store, linked, payload))| LogRecord {
                seq: i as u64,
                store: stores[store],
                linked: linked && i < last,
                payload,
            })
            .collect();
        let dir = TestDir::new("codec-log");
        // What a fresh log commits for `records`.
        let encode = |records: &[LogRecord]| {
            let segment = dir.file("svc.0000000000000000.log");
            let _ = fs::remove_file(&segment);
            let mut log = Log::open(dir.file("svc"));
            for r in records {
                log.stage(r.store, r.linked, |out| out.push_str(&r.payload)).unwrap();
            }
            log.commit(None).unwrap();
            fs::read(&segment).unwrap_or_default()
        };
        let encoded = encode(&records);
        let ends: Vec<usize> = (0..=records.len()).map(|n| encode(&records[..n]).len()).collect();
        let read = read_records(&encoded, 0);
        prop_assert_eq!(&read.records, &records);
        prop_assert!(!read.dropped_tail && read.valid_len == encoded.len());
        for cut in 0..encoded.len() {
            let read = read_records(&encoded[..cut], 0);
            let n = read.records.len();
            prop_assert_eq!(&read.records[..], &records[..n], "cut {}", cut);
            prop_assert!(n == 0 || !read.records[n - 1].linked, "cut {}: a unit left open", cut);
            prop_assert_eq!(read.valid_len, ends[n]);
            prop_assert!(n < records.len() && read.dropped_tail == (cut != read.valid_len));
        }
        let damaged = edited(&String::from_utf8_lossy(&encoded), &edits, '\n');
        let once = read_records(damaged.as_bytes(), 0).records;
        let again = read_records(&encode(&once), 0).records;
        prop_assert_eq!(once, again);
    }

    /// The manifest: a generation, and per store the generation of its
    /// snapshot and the sequence number the snapshot covers.
    #[test]
    fn manifest(
        generation in any::<u64>(),
        stores in prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
        edits in edits(),
    ) {
        let kinds = [StoreId::Ledger, StoreId::State, StoreId::Cache];
        let manifest = Manifest {
            generation,
            stores: kinds
                .into_iter()
                .zip(stores)
                .map(|(store, (gen, covered))| (store, (gen % generation.saturating_add(1), covered)))
                .collect(),
        };
        let encoded = manifest.encode();
        prop_assert_eq!(Manifest::decode(&encoded).unwrap(), manifest);
        for cut in 0..encoded.len() {
            prop_assert!(Manifest::decode(&encoded[..cut]).is_err(), "cut {}", cut);
        }
        check(Some("aida-manifest v1"), &encoded, &edits, |text| {
            Manifest::decode(text).ok().map(|m| m.encode())
        })?;
    }

    /// The Context-store snapshot: the pool of documents, descriptions
    /// and findings, and the Contexts referring to it.
    #[test]
    fn context_store_snapshot(store in store(), edits in edits()) {
        let (docs, contexts) = store;
        let rt = runtime(0);
        register(&rt, &docs, &contexts);
        let encoded = rt.manager().encode_snapshot();
        check(Some("aida-ctxstore v3"), &encoded, &edits, |text| {
            store_round_trip(0, text, &[])
        })?;
    }

    /// A delta frame over a snapshot: inserts (defining new documents
    /// and reusing pooled ones), recency bumps and capacity evictions.
    #[test]
    fn context_store_delta_frame(
        store in store(),
        later in (prop::collection::vec(0usize..4, 0..4), prop::collection::vec(0usize..4, 0..3)),
        capacity in 0usize..4,
        edits in edits(),
    ) {
        let ((docs, contexts), (more, bumps)) = (store, later);
        let rt = runtime(capacity);
        rt.manager().set_journal(true);
        register(&rt, &docs, &contexts);
        let (snapshot, mut pool) = rt.manager().checkpoint_snapshot();
        let added: Vec<ContextSpec> = more
            .iter()
            .map(|&pick| (format!("later {pick}"), 1.0f64.to_bits(), vec![pick, pick + 1], None))
            .collect();
        register(&rt, &docs, &added);
        for &bump in &bumps {
            let (instruction, ..) = &contexts[bump % contexts.len()];
            rt.manager().reuse(instruction, 0.999);
        }
        let ops = rt.manager().drain_journal();
        let mut frame = String::new();
        encode_delta_frame(&ops, &mut pool, &mut frame);
        prop_assert!(!frame.contains('\n'));
        let expected = rt.manager().encode_snapshot();
        prop_assert_eq!(
            store_round_trip(capacity, &snapshot, &[(0, frame.clone())]),
            Some(expected)
        );
        let frames = [(0, edited(&frame, &edits, '\t'))];
        if let Some(once) = store_round_trip(capacity, &snapshot, &frames) {
            prop_assert_eq!(store_round_trip(capacity, &once, &[]), Some(once));
        }
    }

    /// The compiled Pyrite artifact, instructions and cost bound.
    #[test]
    fn bytecode_artifact(
        pick in 0usize..PROGRAMS.len() + 1,
        literals in (any::<i64>(), any::<u64>(), text()),
        edits in edits(),
    ) {
        let (int, float_bits, word) = literals;
        let float = f64::from_bits(float_bits);
        let source = match PROGRAMS.get(pick) {
            Some(source) => source.to_string(),
            // Literals the lexer accepts: a finite float, quote-free text.
            None => format!(
                "x = {}\ny = {:?}\ns = '{}'\n[x, y, s]",
                int.unsigned_abs(),
                if float.is_finite() { float.abs() } else { 0.5 },
                word.replace(['\\', '\n', '\r'], "")
            ),
        };
        let program = aida::script::compile_source(&source).expect("compiles");
        let encoded = program.encode();
        let back = CompiledProgram::decode(&encoded).unwrap();
        prop_assert_eq!(&back, &program);
        prop_assert_eq!(back.content_hash(), program.content_hash());
        check(Some("aida-pyrite-bytecode v1"), &encoded, &edits, |text| {
            CompiledProgram::decode(text).ok().map(|p| p.encode())
        })?;
    }
}
