//! The ContextManager: materialized-view-style reuse of Contexts.
//!
//! Every `search`/`compute` execution materializes a Context (a narrowed
//! lake + an enriched description + structured findings). The manager
//! embeds each description and, when a new instruction arrives, retrieves
//! the most similar materialized Context; above the runtime's similarity
//! threshold the operator reuses it instead of re-running an agent — the
//! paper's §3 physical optimization (and its §2.4 cache).
//!
//! Long-running service processes (see `aida-serve`) keep one manager
//! alive across thousands of queries, so the store is optionally bounded:
//! [`ContextManager::with_capacity`] caps the number of materializations
//! and evicts **cost-aware LRU** — the victim is the entry cheapest to
//! recreate (`original_cost`), ties broken by least-recent use — so a $2
//! materialization is never dropped to make room for a $0.001 one.

use crate::context::Context;
use aida_data::{DataLake, Document, Field, Schema, Table};
use aida_llm::embed::{cosine, Embedder};
use aida_llm::noise::hash_str;
use aida_llm::snapshot::{self, decode_value, encode_value, esc, unesc, SnapshotError};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached materialization.
#[derive(Clone)]
pub struct MaterializedContext {
    /// The instruction whose execution produced this Context.
    pub instruction: String,
    /// The materialized Context.
    pub context: Context,
    /// Embedding of `instruction` + description (retrieval key).
    embedding: Vec<f32>,
    /// What the producing execution cost (for reporting savings; also the
    /// primary eviction key — cheap materializations are evicted first).
    pub original_cost: f64,
    /// Logical tick of the last registration or reuse hit (LRU tiebreak).
    last_used: u64,
}

#[derive(Default)]
struct Store {
    entries: Vec<MaterializedContext>,
    /// Monotonic logical time: bumped on every register and reuse hit.
    tick: u64,
    /// Maximum entries kept (0 = unbounded).
    capacity: usize,
    /// When present, every mutation appends its operation here. The
    /// runtime's incremental checkpointer drains the journal and encodes
    /// it — at the checkpoint, never on the query path — into one
    /// checksummed delta frame, so checkpoint cost tracks what changed
    /// instead of everything materialized.
    journal: Option<Vec<JournalOp>>,
}

impl Store {
    fn journal_push(&mut self, op: JournalOp) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(op);
        }
    }
}

/// One journaled store mutation. Indices address the entry order at the
/// time of the mutation, so operations replay in emission order on top
/// of the exact base they extend.
pub enum JournalOp {
    /// A registration: the entry as inserted. A clone, so its documents,
    /// findings and indexes are the live entry's `Arc`s.
    Insert(Box<MaterializedContext>),
    /// A reuse hit moved entry `index`'s recency to `tick`.
    Bump {
        /// Position of the entry at the time of the hit.
        index: usize,
        /// Its new `last_used`.
        tick: u64,
    },
    /// The capacity bound dropped the entry at this position.
    Evict(usize),
}

/// A shared registry of materialized Contexts.
#[derive(Clone, Default)]
pub struct ContextManager {
    inner: Arc<RwLock<Store>>,
    embedder: Embedder,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
}

impl ContextManager {
    /// Creates an empty, unbounded manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty manager holding at most `capacity` Contexts
    /// (`0` means unbounded). Over capacity, the cheapest-to-recreate
    /// entry is evicted, ties broken by least-recent use.
    pub fn with_capacity(capacity: usize) -> Self {
        let manager = Self::default();
        manager.inner.write().capacity = capacity;
        manager
    }

    /// The capacity bound (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.inner.read().capacity
    }

    /// Number of materialized Contexts.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// True when nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    /// Registers a materialization produced by `instruction`, evicting if
    /// the capacity bound is exceeded.
    pub fn register(&self, instruction: &str, context: Context, original_cost: f64) {
        // The retrieval key is the instruction alone: descriptions grow
        // with every enrichment and would dilute the match.
        let embedding = self.embedder.embed(instruction);
        let mut store = self.inner.write();
        store.tick += 1;
        let last_used = store.tick;
        let entry = MaterializedContext {
            instruction: instruction.to_string(),
            context,
            embedding,
            original_cost,
            last_used,
        };
        if let Some(journal) = store.journal.as_mut() {
            journal.push(JournalOp::Insert(Box::new(entry.clone())));
        }
        store.entries.push(entry);
        self.evict_over_capacity(&mut store);
    }

    /// Applies the capacity bound: evicts the cheapest-to-recreate entry
    /// (ties broken by least-recent use) until the store fits. Shared by
    /// registration and snapshot restore so both honor the same policy.
    fn evict_over_capacity(&self, store: &mut Store) {
        while store.capacity > 0 && store.entries.len() > store.capacity {
            let victim = store
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.original_cost
                        .total_cmp(&b.original_cost)
                        .then(a.last_used.cmp(&b.last_used))
                })
                .map(|(i, _)| i);
            // The loop condition guarantees entries is non-empty, but the
            // restore path runs this during recovery, which must never
            // panic (lint rule P1): bail instead.
            let Some(victim) = victim else { break };
            store.journal_push(JournalOp::Evict(victim));
            store.entries.remove(victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retrieves a reusable Context at or above `threshold`, also
    /// returning the best similarity observed (0.0 when nothing is
    /// materialized). Every lookup bumps the hit/miss counters; a hit
    /// refreshes the entry's recency. The scan and the recency bump are
    /// one atomic step, so concurrent callers never observe a half-done
    /// lookup and the hit+miss totals always reconcile with call counts.
    pub fn reuse_scored(
        &self,
        instruction: &str,
        threshold: f32,
    ) -> (Option<MaterializedContext>, f32) {
        let q = self.embedder.embed(instruction);
        let mut store = self.inner.write();
        let best = best_match(&store.entries, &q);
        let best_sim = best.map(|(_, sim)| sim).unwrap_or(0.0);
        match best.filter(|(_, sim)| *sim >= threshold) {
            Some((index, sim)) => {
                store.tick += 1;
                let tick = store.tick;
                store.entries[index].last_used = tick;
                store.journal_push(JournalOp::Bump { index, tick });
                self.hits.fetch_add(1, Ordering::Relaxed);
                (Some(store.entries[index].clone()), sim)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (None, best_sim)
            }
        }
    }

    /// Retrieves a reusable Context at or above `threshold`.
    pub fn reuse(&self, instruction: &str, threshold: f32) -> Option<MaterializedContext> {
        self.reuse_scored(instruction, threshold).0
    }

    /// `(hits, misses)` across every reuse lookup so far.
    pub fn reuse_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Drops every materialization (tests/trials). Counters survive.
    /// Any pending journal is dropped too — the next full snapshot is
    /// the new baseline.
    pub fn clear(&self) {
        let mut store = self.inner.write();
        store.entries.clear();
        if let Some(journal) = store.journal.as_mut() {
            journal.clear();
        }
    }

    /// Turns the mutation journal on (or off). Enabling starts from an
    /// empty journal; the runtime drains it into delta frames between
    /// full snapshots.
    pub fn set_journal(&self, enabled: bool) {
        self.inner.write().journal = enabled.then(Vec::new);
    }

    /// Takes the pending operations, leaving the journal empty.
    /// [`encode_delta_frame`] turns them into one frame
    /// [`ContextManager::load_chain`] can replay.
    pub fn drain_journal(&self) -> Vec<JournalOp> {
        let mut store = self.inner.write();
        store
            .journal
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Returns drained operations to the FRONT of the journal,
    /// preserving emission order. A failed frame append must not
    /// silently drop mutations: the caller puts them back and the next
    /// frame carries them.
    pub fn restore_journal(&self, mut ops: Vec<JournalOp>) {
        let mut store = self.inner.write();
        if let Some(journal) = store.journal.as_mut() {
            ops.append(journal);
            *journal = ops;
        }
    }

    /// Encodes the whole store — every materialization with its lineage
    /// (producing instruction), cost metadata, LRU state, documents
    /// (including oracle labels), and findings table — as a versioned,
    /// checksummed snapshot. Entries are written in registration order so
    /// a reload preserves the deterministic earlier-entry-wins tie-break;
    /// each distinct document is written once, before the first entry
    /// that holds it.
    pub fn encode_snapshot(&self) -> String {
        self.encode_snapshot_pooled().0
    }

    /// [`ContextManager::encode_snapshot`] plus the pool of documents it
    /// defined: the delta chain extending this snapshot refers into it.
    pub fn encode_snapshot_pooled(&self) -> (String, DocPool) {
        let store = self.inner.read();
        let mut pool = DocPool::default();
        let mut body = format!("T\t{}", store.tick);
        for entry in &store.entries {
            encode_entry(entry, &mut pool, '\n', &mut body);
        }
        body.push('\n');
        (snapshot::encode_file(STORE_MAGIC, &body), pool)
    }

    /// Restores the store from a snapshot produced by
    /// [`ContextManager::encode_snapshot`], replacing any current
    /// entries. `rebuild` constructs a Context from `(id, lake,
    /// description)` — the caller supplies it because Context
    /// construction needs a Runtime. Embeddings are recomputed
    /// deterministically from each instruction; LRU ticks and costs are
    /// restored exactly, every restored Context holding a document
    /// shares the one `Arc` its pool line became, and the store is
    /// trimmed to the capacity bound with the standard eviction policy.
    /// Any format, count, or checksum violation returns
    /// [`SnapshotError`] and leaves the store untouched — callers start
    /// cold instead of trusting a corrupt file.
    ///
    /// Then replays the delta frames
    /// (`(seq, payload)` as the WAL replay returns them) on top. Frames
    /// are trusted up to the first violation — a base stamp or pool
    /// length that does not match, a malformed record, a document or
    /// entry index out of range — and a frame applies whole or not at
    /// all, so the result is the snapshot plus an exact frame prefix.
    /// Returns `(contexts restored after trimming, frames applied)`.
    pub fn load_chain(
        &self,
        text: &str,
        frames: &[(u64, String)],
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<(usize, usize), SnapshotError> {
        let body = snapshot::decode_file(STORE_MAGIC, text)?
            .strip_suffix('\n')
            .ok_or_else(|| fail("unterminated body"))?;
        let mut fields = Fields(body.split(SEPARATORS));
        if fields.next()? != "T" {
            return Err(fail("bad tick line"));
        }
        let mut replica = Replica {
            tick: fields.num("bad tick line")?,
            ..Replica::default()
        };
        let ops = self.decode_ops(&mut fields, &mut replica.pool, rebuild)?;
        if !ops.iter().all(|op| matches!(op, JournalOp::Insert(_))) {
            return Err(fail("journal record in a snapshot"));
        }
        replica.replay_ops(ops)?;
        let base_sum = snapshot::fnv64(text.as_bytes());
        let applied = frames
            .iter()
            .take_while(|(_, payload)| {
                self.replay_frame(&mut replica, base_sum, payload, rebuild)
                    .is_ok()
            })
            .count();
        let mut store = self.inner.write();
        store.entries = replica.entries;
        // The restored counter must stay strictly ahead of every
        // restored `last_used`, even for a snapshot whose `T` line
        // under-reports the tick (hand-edited or from a writer crash):
        // otherwise a post-restore recency bump could collide with a
        // restored tick and corrupt the LRU order.
        store.tick = store.tick.max(replica.tick);
        self.evictions.fetch_add(replica.evicted, Ordering::Relaxed);
        // A chain cut between an insert and its eviction leaves the
        // replica over capacity; a stale snapshot can be, too.
        self.evict_over_capacity(&mut store);
        // The restore is a fresh baseline: any journal records from the
        // trim above describe mutations already visible in the loaded
        // state, not changes a delta frame still needs to carry.
        if let Some(journal) = store.journal.as_mut() {
            journal.clear();
        }
        Ok((store.entries.len(), applied))
    }
}

const STORE_MAGIC: &str = "aida-ctxstore v2";

// ---- snapshot and delta-frame encoding ---------------------------------
//
// Tagged records of tab-separated fields (escaping via the shared
// `snapshot` codec, applied once, to fields):
//   P  <name> <content> <nlabels> (<key> <value-enc>)*
//   C  <instruction> <cost_bits:hex16> <last_used> <id> <description>
//      <has_findings 0|1> <ndocs> (<pool-index>)*
//   F  <ncols> (<col-name> <col-desc>)* <nrows> (<cell-enc>)*
//   B  <entry-index> <tick>
//   E  <entry-index>
//
// A `P` record defines the next document of the file's pool (indices
// count `P` records from 0); a `C` record refers to documents by index
// — backwards only — and is followed by its `F` record when it has
// findings. A snapshot body is `T <tick>` and then `P`/`C`/`F` records,
// one per line, each document before the first entry that holds it. A
// delta frame is ONE line, `<base_sum:hex16> <pool-length>` and then
// records of any tag separated by tabs: every record says how many
// fields it has, so no second level of escaping is needed. The chain's
// pool is the snapshot's plus what earlier frames defined; a frame's
// stamp names both, so it applies to nothing else.
//
// Documents round-trip through `Document::new(name, content)` (which
// derives `id` and `kind` from the name, the universal construction in
// this codebase) plus explicit labels, so the oracle sees identical
// ground truth after a restore.

/// What separates fields: a tab, or the newline between the records of
/// a snapshot body. Neither survives escaping inside a field.
const SEPARATORS: [char; 2] = ['\t', '\n'];

/// The documents a state file has defined so far, in definition order:
/// the encoder's side of the pool. A document's text is written when it
/// is first referred to and never again in that file.
#[derive(Default)]
pub struct DocPool {
    docs: Vec<Arc<Document>>,
    /// `Arc` address → index. The pool holds the `Arc`, so the address
    /// cannot be reused while it is a key.
    by_ptr: HashMap<usize, usize>,
    /// `(name, text)` hash → candidates, confirmed by full equality: a
    /// collision costs a comparison, never an alias.
    by_hash: HashMap<u64, Vec<usize>>,
}

impl DocPool {
    /// How many documents are defined so far.
    pub fn defined(&self) -> usize {
        self.docs.len()
    }

    /// Forgets the documents defined at or after `len` — the roll-back
    /// of a frame that did not reach the disk.
    pub fn truncate(&mut self, len: usize) {
        for doc in self.docs.drain(len.min(self.docs.len())..) {
            self.by_ptr.remove(&(Arc::as_ptr(&doc) as usize));
            if let Some(candidates) = self.by_hash.get_mut(&doc_hash(&doc)) {
                candidates.retain(|index| *index < len);
            }
        }
    }

    /// The index of `doc`, which is defined (a `P` record after `sep`)
    /// if this is the first reference to it.
    fn intern(&mut self, doc: &Arc<Document>, sep: char, out: &mut String) -> usize {
        let ptr = Arc::as_ptr(doc) as usize;
        if let Some(&index) = self.by_ptr.get(&ptr) {
            return index;
        }
        let candidates = self.by_hash.entry(doc_hash(doc)).or_default();
        if let Some(&index) = candidates.iter().find(|&&i| *self.docs[i] == **doc) {
            return index;
        }
        let index = self.docs.len();
        candidates.push(index);
        self.by_ptr.insert(ptr, index);
        self.docs.push(Arc::clone(doc));
        out.push(sep);
        out.push_str("P\t");
        esc(&doc.name, out);
        out.push('\t');
        esc(&doc.content, out);
        let _ = write!(out, "\t{}", doc.labels.len());
        for (key, value) in &doc.labels {
            out.push('\t');
            esc(key, out);
            out.push('\t');
            encode_value(value, out);
        }
        index
    }
}

fn doc_hash(doc: &Document) -> u64 {
    hash_str(&doc.name) ^ doc.text_hash(hash_str).rotate_left(32)
}

/// Appends `entry` — first the documents `pool` has not seen, then its
/// `C` (and `F`) record — each record preceded by `sep`.
fn encode_entry(entry: &MaterializedContext, pool: &mut DocPool, sep: char, out: &mut String) {
    let docs = entry.context.lake().docs();
    let indices: Vec<usize> = docs.iter().map(|doc| pool.intern(doc, sep, out)).collect();
    out.push(sep);
    out.push_str("C\t");
    esc(&entry.instruction, out);
    let _ = write!(
        out,
        "\t{:016x}\t{}\t",
        entry.original_cost.to_bits(),
        entry.last_used
    );
    esc(&entry.context.id, out);
    out.push('\t');
    esc(&entry.context.description, out);
    let has_findings = u8::from(entry.context.findings.is_some());
    let _ = write!(out, "\t{has_findings}\t{}", docs.len());
    for index in indices {
        let _ = write!(out, "\t{index}");
    }
    if let Some(findings) = &entry.context.findings {
        out.push(sep);
        let fields = findings.schema().fields();
        let _ = write!(out, "F\t{}", fields.len());
        for field in fields {
            out.push('\t');
            esc(&field.name, out);
            out.push('\t');
            esc(&field.desc, out);
        }
        let _ = write!(out, "\t{}", findings.len());
        for row in findings.rows() {
            for cell in row {
                out.push('\t');
                encode_value(cell, out);
            }
        }
    }
}

/// Encodes drained journal operations as one delta-frame payload (a
/// single newline-free WAL line) stamped with the snapshot it extends
/// and the length of the chain's pool before it. Documents the frame
/// introduces are defined in it and added to `pool`; the caller rolls
/// `pool` back ([`DocPool::truncate`]) if the frame does not reach the
/// disk.
pub fn encode_delta_frame(base_sum: u64, ops: &[JournalOp], pool: &mut DocPool) -> String {
    let mut out = format!("{base_sum:016x}\t{}", pool.defined());
    for op in ops {
        let _ = match op {
            JournalOp::Insert(entry) => {
                encode_entry(entry, pool, '\t', &mut out);
                Ok(())
            }
            JournalOp::Bump { index, tick } => write!(out, "\tB\t{index}\t{tick}"),
            JournalOp::Evict(index) => write!(out, "\tE\t{index}"),
        };
    }
    out
}

fn fail(msg: &str) -> SnapshotError {
    SnapshotError::Format(msg.to_string())
}

/// Cursor over the fields of a snapshot body or a frame payload.
struct Fields<'a>(std::str::Split<'a, [char; 2]>);

impl<'a> Fields<'a> {
    fn next(&mut self) -> Result<&'a str, SnapshotError> {
        self.0.next().ok_or_else(|| fail("truncated record"))
    }

    fn text(&mut self) -> Result<String, SnapshotError> {
        Ok(unesc(self.next()?)?.into_owned())
    }

    fn num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, SnapshotError> {
        self.next()?.parse().map_err(|_| fail(what))
    }
}

/// A store rebuilt off to the side, swapped in whole once the snapshot
/// and as much of its chain as can be trusted have replayed.
#[derive(Default)]
struct Replica {
    entries: Vec<MaterializedContext>,
    tick: u64,
    evicted: u64,
    /// Decoder's side of the pool: one `Arc` per `P` record.
    pool: Vec<Arc<Document>>,
}

impl Replica {
    /// Applies operations all or none: every index is checked against
    /// the entry count its operation will see before the first applies.
    fn replay_ops(&mut self, ops: Vec<JournalOp>) -> Result<(), SnapshotError> {
        let mut len = self.entries.len();
        for op in &ops {
            match op {
                JournalOp::Insert(_) => len += 1,
                JournalOp::Bump { index, .. } if *index < len => {}
                JournalOp::Evict(index) if *index < len => len -= 1,
                _ => return Err(fail("entry index out of range")),
            }
        }
        for op in ops {
            match op {
                JournalOp::Insert(entry) => {
                    self.tick = self.tick.max(entry.last_used);
                    self.entries.push(*entry);
                }
                JournalOp::Bump { index, tick } => {
                    if let Some(entry) = self.entries.get_mut(index) {
                        entry.last_used = tick;
                    }
                    self.tick = self.tick.max(tick);
                }
                JournalOp::Evict(index) => {
                    self.entries.remove(index);
                    self.evicted += 1;
                }
            }
        }
        Ok(())
    }
}

impl ContextManager {
    /// Replays one delta frame onto `replica` if it extends exactly this
    /// base and this pool.
    fn replay_frame(
        &self,
        replica: &mut Replica,
        base_sum: u64,
        payload: &str,
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<(), SnapshotError> {
        let mut fields = Fields(payload.split(SEPARATORS));
        if u64::from_str_radix(fields.next()?, 16) != Ok(base_sum) {
            return Err(fail("frame of another snapshot"));
        }
        if fields.num::<usize>("bad pool length")? != replica.pool.len() {
            return Err(fail("frame of another pool"));
        }
        let ops = self.decode_ops(&mut fields, &mut replica.pool, rebuild)?;
        replica.replay_ops(ops)
    }

    /// Decodes records until the fields run out. `P` records extend
    /// `pool`; every other record becomes the operation it journals.
    fn decode_ops(
        &self,
        fields: &mut Fields,
        pool: &mut Vec<Arc<Document>>,
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<Vec<JournalOp>, SnapshotError> {
        let mut ops = Vec::new();
        while let Some(tag) = fields.0.next() {
            ops.push(match tag {
                "P" => {
                    pool.push(Arc::new(decode_doc(fields)?));
                    continue;
                }
                "C" => JournalOp::Insert(Box::new(self.decode_entry(fields, pool, rebuild)?)),
                "B" => JournalOp::Bump {
                    index: fields.num("bad bump record")?,
                    tick: fields.num("bad bump record")?,
                },
                "E" => JournalOp::Evict(fields.num("bad evict record")?),
                _ => return Err(fail("unknown record tag")),
            });
        }
        Ok(ops)
    }

    /// Decodes the fields of a `C` record (and its `F` record), taking
    /// its documents from `pool`: the lakes of all entries that hold a
    /// document share its one `Arc`, memo slots included.
    fn decode_entry(
        &self,
        fields: &mut Fields,
        pool: &[Arc<Document>],
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<MaterializedContext, SnapshotError> {
        let instruction = fields.text()?;
        let original_cost = u64::from_str_radix(fields.next()?, 16)
            .map(f64::from_bits)
            .map_err(|_| fail("bad cost bits"))?;
        let last_used = fields.num("bad last_used")?;
        let id = fields.text()?;
        let description = fields.text()?;
        let has_findings = match fields.next()? {
            "0" => false,
            "1" => true,
            _ => return Err(fail("bad findings flag")),
        };
        let ndocs: usize = fields.num("bad doc count")?;
        let mut docs = Vec::new();
        for _ in 0..ndocs {
            let index: usize = fields.num("bad document index")?;
            let doc = pool
                .get(index)
                .ok_or_else(|| fail("document index past the pool"))?;
            docs.push(Arc::clone(doc));
        }
        let mut context = rebuild(&id, DataLake::from_arcs(docs), &description);
        if has_findings {
            if fields.next()? != "F" {
                return Err(fail("missing findings record"));
            }
            context.findings = Some(Arc::new(decode_findings(fields)?));
        }
        Ok(MaterializedContext {
            embedding: self.embedder.embed(&instruction),
            instruction,
            context,
            original_cost,
            last_used,
        })
    }
}

fn decode_doc(fields: &mut Fields) -> Result<Document, SnapshotError> {
    let mut doc = Document::new(fields.text()?, fields.text()?);
    for _ in 0..fields.num::<usize>("bad label count")? {
        doc = doc.with_label(fields.text()?, decode_value(fields.next()?)?);
    }
    Ok(doc)
}

fn decode_findings(fields: &mut Fields) -> Result<Table, SnapshotError> {
    let ncols: usize = fields.num("bad column count")?;
    let mut columns = Vec::new();
    for _ in 0..ncols {
        columns.push(Field::described(fields.text()?, fields.text()?));
    }
    let mut table = Table::new(Schema::from_fields(columns));
    let nrows: usize = fields.num("bad row count")?;
    if ncols == 0 && nrows > 0 {
        // Rows that consume no field would let one number spin the loop.
        return Err(fail("findings rows without columns"));
    }
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(decode_value(fields.next()?)?);
        }
        table
            .push_row(row)
            .map_err(|_| fail("bad findings row arity"))?;
    }
    Ok(table)
}

/// Index and similarity of the best match against `query`, earlier entries
/// winning ties.
fn best_match(entries: &[MaterializedContext], query: &[f32]) -> Option<(usize, f32)> {
    let mut best: Option<(usize, f32)> = None;
    for (i, entry) in entries.iter().enumerate() {
        let sim = cosine(query, &entry.embedding);
        if best.is_none_or(|(_, s)| sim > s) {
            best = Some((i, sim));
        }
    }
    best
}

impl std::fmt::Debug for ContextManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContextManager({} materialized)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ContextManager {
        /// The materialized Context most similar to `instruction`, with
        /// its similarity score; read-only, so recency and the hit/miss
        /// counters stay untouched.
        pub(crate) fn find_similar(&self, instruction: &str) -> Option<(MaterializedContext, f32)> {
            let q = self.embedder.embed(instruction);
            let store = self.inner.read();
            best_match(&store.entries, &q).map(|(i, s)| (store.entries[i].clone(), s))
        }

        fn load_snapshot(
            &self,
            text: &str,
            rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
        ) -> Result<usize, SnapshotError> {
            self.load_chain(text, &[], rebuild).map(|(n, _)| n)
        }
    }
    use crate::runtime::Runtime;
    use aida_data::{DataLake, Document};

    fn ctx(rt: &Runtime, desc: &str) -> Context {
        Context::builder("c", DataLake::from_docs([Document::new("a.txt", "x")]))
            .description(desc)
            .build(rt)
    }

    #[test]
    fn register_and_retrieve_by_similarity() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.register(
            "find the number of identity theft reports in 2001",
            ctx(&rt, "FINDINGS: identity theft reports 2001: 86250"),
            1.2,
        );
        manager.register(
            "summarize pipeline maintenance schedules",
            ctx(&rt, "FINDINGS: maintenance windows for gas pipelines"),
            0.8,
        );
        let (hit, sim) = manager
            .find_similar("find the number of identity theft reports in 2024")
            .unwrap();
        assert!(hit.instruction.contains("identity theft"));
        assert!(sim > 0.4, "similar instructions should score high: {sim}");
    }

    #[test]
    fn reuse_respects_threshold() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.register(
            "find identity theft reports in 2001",
            ctx(&rt, "FINDINGS: thefts 2001"),
            1.0,
        );
        assert!(manager
            .reuse("find identity theft reports in 2024", 0.99)
            .is_none());
        assert!(manager
            .reuse("find identity theft reports in 2001", 0.95)
            .is_some());
        // A completely unrelated instruction never reuses.
        assert!(manager
            .reuse("weather forecast for tokyo marathon", 0.5)
            .is_none());
    }

    #[test]
    fn reuse_stats_count_hits_and_misses() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        assert_eq!(manager.reuse_stats(), (0, 0));
        // A lookup against an empty manager is a miss.
        assert!(manager.reuse("anything", 0.5).is_none());
        assert_eq!(manager.reuse_stats(), (0, 1));
        manager.register(
            "find identity theft reports in 2001",
            ctx(&rt, "FINDINGS: thefts 2001"),
            1.0,
        );
        let (hit, sim) = manager.reuse_scored("find identity theft reports in 2001", 0.95);
        assert!(hit.is_some());
        assert!(sim >= 0.95);
        let (missed, best) = manager.reuse_scored("weather forecast for tokyo marathon", 0.5);
        assert!(missed.is_none());
        assert!(
            best < 0.5,
            "best similarity is still reported on a miss: {best}"
        );
        assert_eq!(manager.reuse_stats(), (1, 2));
        // Clones share the counters.
        assert_eq!(manager.clone().reuse_stats(), (1, 2));
    }

    #[test]
    fn empty_manager_finds_nothing() {
        let manager = ContextManager::new();
        assert!(manager.find_similar("anything").is_none());
        assert!(manager.is_empty());
    }

    #[test]
    fn clear_empties_and_clones_share() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        let clone = manager.clone();
        manager.register("i", ctx(&rt, "d"), 0.1);
        assert_eq!(clone.len(), 1);
        clone.clear();
        assert!(manager.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_cheapest_first() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::with_capacity(2);
        assert_eq!(manager.capacity(), 2);
        manager.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        manager.register("cheap keyword probe", ctx(&rt, "b"), 0.01);
        manager.register("medium targeted extraction", ctx(&rt, "c"), 0.5);
        // The $0.01 entry is the victim, not the oldest ($2.00) one.
        assert_eq!(manager.len(), 2);
        assert_eq!(manager.evictions(), 1);
        let kept: Vec<String> = [
            "expensive exhaustive legal scan",
            "medium targeted extraction",
        ]
        .iter()
        .map(|i| {
            manager
                .find_similar(i)
                .map(|(m, _)| m.instruction)
                .unwrap_or_default()
        })
        .collect();
        assert!(kept.iter().any(|i| i.contains("expensive")));
        assert!(kept.iter().any(|i| i.contains("medium")));
    }

    #[test]
    fn eviction_ties_break_by_recency() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::with_capacity(2);
        manager.register("alpha instruction about pipelines", ctx(&rt, "a"), 1.0);
        manager.register("beta instruction about reports", ctx(&rt, "b"), 1.0);
        // Touch alpha so beta becomes the least-recently-used equal-cost
        // entry.
        assert!(manager
            .reuse("alpha instruction about pipelines", 0.95)
            .is_some());
        manager.register("gamma instruction about filings", ctx(&rt, "c"), 1.0);
        assert_eq!(manager.len(), 2);
        let (hit, sim) = manager
            .find_similar("beta instruction about reports")
            .unwrap();
        assert!(
            sim < 0.95 || !hit.instruction.contains("beta"),
            "beta should have been evicted (best match now {} at {sim})",
            hit.instruction
        );
    }

    #[test]
    fn snapshot_round_trips_store_and_rejects_corruption() {
        use aida_data::Value;
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        let lake = DataLake::from_docs([
            Document::new("a.txt", "alpha text\twith tabs\nand lines")
                .with_label("amount", Value::Int(42)),
            Document::new("b.csv", "k,v\nx,7"),
        ]);
        let mut context = Context::builder("legal/1", lake)
            .description("FINDINGS: alpha amount is 42")
            .build(&rt);
        let mut table = Table::new(Schema::of(["k", "v"]));
        table
            .push_row(vec![Value::Str("x, [tricky]".into()), Value::Int(7)])
            .unwrap();
        context.findings = Some(Arc::new(table));
        manager.register("find the alpha amount", context, 1.25);
        manager.register("summarize beta filings", ctx(&rt, "FINDINGS: beta"), 0.5);

        let snap = manager.encode_snapshot();
        let restored = ContextManager::new();
        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            Context::builder(id, lake).description(desc).build(&rt)
        };
        assert_eq!(restored.load_snapshot(&snap, &rebuild).unwrap(), 2);
        // Re-encoding the restored store reproduces the snapshot byte for
        // byte: lineage, costs, LRU ticks, docs, and findings all survive.
        assert_eq!(restored.encode_snapshot(), snap);
        let (hit, sim) = restored.find_similar("find the alpha amount").unwrap();
        assert!(sim > 0.95, "restored instruction should match: {sim}");
        assert_eq!(hit.context.id, "legal/1");
        assert_eq!(
            hit.context.lake().docs()[0].label("amount"),
            Some(&Value::Int(42))
        );
        let findings = hit.context.findings.expect("findings survive");
        assert_eq!(
            findings.cell(0, "k"),
            Some(&Value::Str("x, [tricky]".into()))
        );

        // One flipped byte breaks the checksum; the store is untouched.
        let mut bytes = snap.clone().into_bytes();
        let at = bytes.len() - 2;
        bytes[at] = bytes[at].wrapping_add(1);
        let garbled = String::from_utf8(bytes).unwrap();
        let cold = ContextManager::new();
        assert!(matches!(
            cold.load_snapshot(&garbled, &rebuild),
            Err(SnapshotError::Format(_))
        ));
        assert!(cold.is_empty());
    }

    #[test]
    fn snapshot_restore_respects_capacity_bound() {
        let rt = Runtime::builder().build();
        let big = ContextManager::new();
        big.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        big.register("cheap keyword probe", ctx(&rt, "b"), 0.01);
        big.register("medium targeted extraction", ctx(&rt, "c"), 0.5);
        let snap = big.encode_snapshot();
        // A smaller manager trims the restored store with the standard
        // cost-aware policy instead of silently exceeding its bound.
        let small = ContextManager::with_capacity(2);
        let rebuild = |id: &str, lake: DataLake, desc: &str| {
            Context::builder(id, lake).description(desc).build(&rt)
        };
        assert_eq!(small.load_snapshot(&snap, &rebuild).unwrap(), 2);
        assert_eq!(small.evictions(), 1);
        let (hit, _) = small.find_similar("cheap keyword probe").unwrap();
        assert!(
            !hit.instruction.contains("cheap"),
            "the cheapest entry is the trim victim"
        );
    }

    fn rebuild_with(rt: &Runtime) -> impl Fn(&str, DataLake, &str) -> Context + '_ {
        |id, lake, desc| Context::builder(id, lake).description(desc).build(rt)
    }

    /// `(seq, payload)` records as the WAL replay hands them to
    /// `load_chain`.
    fn chain(frames: &[String]) -> Vec<(u64, String)> {
        (0u64..).zip(frames.iter().cloned()).collect()
    }

    #[test]
    fn journal_replay_reproduces_the_store_byte_for_byte() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::with_capacity(2);
        manager.set_journal(true);

        // Baseline: one entry, then a full snapshot drains nothing (the
        // runtime clears via drain) — replay starts from this base.
        manager.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        let (base, mut pool) = manager.encode_snapshot_pooled();
        let drained = manager.drain_journal();
        assert_eq!(drained.len(), 1, "register journals one insert");
        let base_sum = snapshot::fnv64(base.as_bytes());

        // Mutations after the base: insert, recency bump, insert that
        // evicts (capacity 2 — the cheap probe is the victim).
        manager.register("cheap keyword probe", ctx(&rt, "b"), 0.01);
        assert!(manager
            .reuse("expensive exhaustive legal scan", 0.95)
            .is_some());
        manager.register("medium targeted extraction", ctx(&rt, "c"), 0.5);
        let ops = manager.drain_journal();
        assert!(manager.drain_journal().is_empty());
        assert!(
            ops.iter().any(|op| matches!(op, JournalOp::Evict(_))),
            "the over-capacity insert journals its eviction"
        );
        let frame = encode_delta_frame(base_sum, &ops, &mut pool);
        assert!(!frame.contains('\n'), "a frame is one WAL line");

        let rebuild = rebuild_with(&rt);
        let replica = ContextManager::with_capacity(2);
        let loaded = replica.load_chain(&base, &chain(&[frame]), &rebuild);
        assert_eq!(loaded.unwrap(), (2, 1));
        assert_eq!(replica.encode_snapshot(), manager.encode_snapshot());
        assert_eq!(replica.evictions(), 1, "the eviction replayed as one");

        // Structural violations reject the frame whole — and with it the
        // rest of the chain — instead of applying garbage, and an
        // in-range operation ahead of the bad one is not applied either
        // (a frame is all or nothing): the snapshot alone is what loads.
        // So it is for frames stamped for another snapshot or another
        // pool length.
        let stamp = format!("{base_sum:016x}\t1");
        for bad in [
            format!("{stamp}\tB\t99\t7"),
            format!("{stamp}\tE\t99"),
            format!("{stamp}\tX\tnope"),
            format!("{stamp}\tC\ttruncated"),
            format!("{stamp}\tB\t0\t9\tE\t5"),
            format!("{stamp}\tC\ti\t0\t9\tid\td\t1\t0\tF\t0\t18446744073709551615"),
            format!("{:016x}\t1\tB\t0\t9", base_sum ^ 1),
            format!("{base_sum:016x}\t0\tB\t0\t9"),
        ] {
            let cold = ContextManager::with_capacity(2);
            let loaded = cold.load_chain(&base, &chain(std::slice::from_ref(&bad)), &rebuild);
            assert_eq!(loaded.unwrap(), (1, 0), "{bad:?}");
            assert_eq!(cold.encode_snapshot(), base, "{bad:?}");
        }
    }

    /// Two Contexts narrowed from one lake: the snapshot holds each
    /// shared document once, the restored Contexts share one `Arc` per
    /// document, and the restored store re-encodes to the same bytes.
    #[test]
    fn shared_documents_are_pooled_once_and_restore_shared() {
        let rt = Runtime::builder().build();
        let lake = DataLake::from_docs([
            Document::new("a.txt", "alpha body, long enough to be worth pooling"),
            Document::new("b.txt", "beta body"),
            Document::new("c.txt", "gamma body"),
        ]);
        let narrowed = |names: &[&str]| {
            let docs = names.iter().map(|n| Arc::clone(lake.get(n).unwrap()));
            Context::builder("narrowed", DataLake::from_arcs(docs))
                .description("narrowed from the shared lake")
                .build(&rt)
        };
        let manager = ContextManager::new();
        manager.register("alpha and beta", narrowed(&["a.txt", "b.txt"]), 1.0);
        manager.register("beta and gamma", narrowed(&["b.txt", "c.txt"]), 2.0);
        manager.register("all of them", narrowed(&["c.txt", "a.txt", "b.txt"]), 3.0);

        let (snap, pool) = manager.encode_snapshot_pooled();
        assert_eq!(pool.defined(), 3);
        let pool_lines = snap.lines().filter(|l| l.starts_with("P\t")).count();
        assert_eq!(pool_lines, 3, "each shared document is written once");
        assert_eq!(snap.matches("alpha body").count(), 1);
        assert!(
            snap.contains("\t0\t3\t2\t0\t1\n"),
            "the third entry refers to c, a, b by pool index: {snap}"
        );

        let restored = ContextManager::new();
        assert_eq!(
            restored.load_snapshot(&snap, &rebuild_with(&rt)).unwrap(),
            3
        );
        assert_eq!(restored.encode_snapshot(), snap);
        let beta_of = |instruction: &str| {
            let (hit, _) = restored.find_similar(instruction).unwrap();
            Arc::clone(hit.context.lake().get("b.txt").unwrap())
        };
        let first = beta_of("alpha and beta");
        assert!(Arc::ptr_eq(&first, &beta_of("beta and gamma")));
        assert!(Arc::ptr_eq(&first, &beta_of("all of them")));
    }

    /// Same name with different content, and same content with different
    /// labels, are different documents: separate pool entries that
    /// round-trip distinct. Equal documents behind different `Arc`s are
    /// one.
    #[test]
    fn pool_keys_on_the_whole_document_not_its_name_or_text() {
        use aida_data::Value;
        let rt = Runtime::builder().build();
        let one = |doc: Document| {
            Context::builder("c", DataLake::from_docs([doc]))
                .description("d")
                .build(&rt)
        };
        let manager = ContextManager::new();
        manager.register("v1 of the file", one(Document::new("a.txt", "old")), 1.0);
        manager.register("v2 of the file", one(Document::new("a.txt", "new")), 1.0);
        let labelled = |n: i64| Document::new("a.txt", "new").with_label("n", Value::Int(n));
        manager.register("labelled seven", one(labelled(7)), 1.0);
        manager.register("labelled eight", one(labelled(8)), 1.0);
        manager.register("labelled seven again", one(labelled(7)), 1.0);

        let (snap, pool) = manager.encode_snapshot_pooled();
        assert_eq!(pool.defined(), 4, "{snap}");
        let restored = ContextManager::new();
        assert_eq!(
            restored.load_snapshot(&snap, &rebuild_with(&rt)).unwrap(),
            5
        );
        assert_eq!(restored.encode_snapshot(), snap);
        let doc_of = |instruction: &str| {
            let (hit, _) = restored.find_similar(instruction).unwrap();
            Arc::clone(&hit.context.lake().docs()[0])
        };
        assert_eq!(&*doc_of("v1 of the file").content, "old");
        assert_eq!(&*doc_of("v2 of the file").content, "new");
        assert_eq!(doc_of("v2 of the file").label("n"), None);
        assert_eq!(doc_of("labelled eight").label("n"), Some(&Value::Int(8)));
        assert!(Arc::ptr_eq(
            &doc_of("labelled seven"),
            &doc_of("labelled seven again")
        ));
    }

    /// A rolled-back frame leaves the pool exactly as it was: the retry
    /// defines the same documents at the same indices.
    #[test]
    fn pool_truncate_undoes_a_frame() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.set_journal(true);
        manager.register("base entry", ctx(&rt, "base"), 1.0);
        let (_, mut pool) = manager.encode_snapshot_pooled();
        manager.drain_journal();
        let fresh =
            Context::builder("n", DataLake::from_docs([Document::new("n.txt", "new")])).build(&rt);
        manager.register("new entry", fresh, 1.0);
        let ops = manager.drain_journal();
        let first = encode_delta_frame(7, &ops, &mut pool);
        assert_eq!(pool.defined(), 2);
        assert!(first.contains("\tP\tn.txt\tnew\t0\tC\t"), "{first}");
        pool.truncate(1);
        assert_eq!(pool.defined(), 1);
        assert_eq!(encode_delta_frame(7, &ops, &mut pool), first);
        // Once the frame is durable, a later one refers back to it.
        let again = encode_delta_frame(7, &ops, &mut pool);
        assert!(!again.contains("\tP\t") && again.starts_with("0000000000000007\t2\tC\t"));
    }

    mod props {
        use super::*;
        use aida_data::Value;
        use proptest::prelude::*;

        /// `(lake indices, cost, findings cells)` per entry.
        type EntrySpec = (Vec<usize>, f64, Option<Vec<String>>);

        fn entry_strategy() -> impl Strategy<Value = EntrySpec> {
            (
                prop::collection::vec(0usize..6, 0..5),
                0.5f64..50.0,
                prop_oneof![
                    Just(None),
                    prop::collection::vec("[a-z\t\\\\,\\[ é]{0,8}", 0..4).prop_map(Some)
                ],
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `load_snapshot ∘ encode_snapshot` is the identity, and the
            /// restored store re-encodes byte-identically, for stores
            /// with arbitrary sharing, evictions, recency bumps and
            /// findings tables; a delta chain over the same history
            /// replays to the same bytes.
            #[test]
            fn pooled_snapshot_round_trips_arbitrary_sharing(
                texts in prop::collection::vec("[a-c\t\n\\\\ é]{0,12}", 6..7),
                entries in prop::collection::vec(entry_strategy(), 1..8),
                capacity in 0usize..5,
                split in 0usize..8,
            ) {
                let rt = Runtime::builder().build();
                // Documents 4 and 5 share a name with 0 and 1 (different
                // Arcs, maybe equal text): the pool must tell them apart
                // exactly when they differ.
                let docs: Vec<Arc<Document>> = texts
                    .iter()
                    .enumerate()
                    .map(|(i, text)| {
                        let doc = Document::new(format!("d{}.txt", i % 4), text.as_str());
                        Arc::new(if i == 2 { doc.with_label("k", Value::Int(2)) } else { doc })
                    })
                    .collect();
                let manager = ContextManager::with_capacity(capacity);
                manager.set_journal(true);
                let mut base = None;
                for (i, (picks, cost, cells)) in entries.iter().enumerate() {
                    if i == split.min(entries.len() - 1) {
                        base = Some(manager.encode_snapshot_pooled());
                        manager.drain_journal();
                    }
                    // A lake holds one document per name.
                    let mut picked: Vec<Arc<Document>> = Vec::new();
                    for &pick in picks {
                        if !picked.iter().any(|d| d.name == docs[pick].name) {
                            picked.push(Arc::clone(&docs[pick]));
                        }
                    }
                    let mut context = Context::builder(format!("ctx{i}"), DataLake::from_arcs(picked))
                        .description(format!("desc\t{i}"))
                        .build(&rt);
                    if let Some(cells) = cells {
                        let mut table = Table::new(Schema::of(["cell"]));
                        for cell in cells {
                            table.push_row(vec![Value::Str(cell.as_str().into())]).unwrap();
                        }
                        context.findings = Some(Arc::new(table));
                    }
                    manager.register(&format!("instruction number {i}"), context, *cost);
                    manager.reuse(&format!("instruction number {}", i / 2), 0.99);
                }
                let snap = manager.encode_snapshot();
                let rebuild = rebuild_with(&rt);

                let restored = ContextManager::with_capacity(capacity);
                prop_assert_eq!(restored.load_snapshot(&snap, &rebuild).unwrap(), manager.len());
                prop_assert_eq!(restored.encode_snapshot(), snap.clone());

                let (base, mut pool) = base.expect("split is within the entries");
                let ops = manager.drain_journal();
                let mid = ops.len() / 2;
                let sum = snapshot::fnv64(base.as_bytes());
                let frames = chain(&[
                    encode_delta_frame(sum, &ops[..mid], &mut pool),
                    encode_delta_frame(sum, &ops[mid..], &mut pool),
                ]);
                let replayed = ContextManager::with_capacity(capacity);
                let loaded = replayed.load_chain(&base, &frames, &rebuild).unwrap();
                prop_assert_eq!(loaded, (manager.len(), 2));
                prop_assert_eq!(replayed.encode_snapshot(), snap);
            }
        }
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        for i in 0..32 {
            manager.register(&format!("instruction {i}"), ctx(&rt, "d"), 0.1);
        }
        assert_eq!(manager.len(), 32);
        assert_eq!(manager.evictions(), 0);
    }
}
