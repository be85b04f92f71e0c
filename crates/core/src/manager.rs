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
use aida_data::{DataLake, Document, Field, Schema, Table, Value};
use aida_llm::embed::{cosine_with_norms, norm, Embedder};
use aida_llm::noise::hash_str;
use aida_llm::snapshot::{self, encode_value, esc, push_hex16, push_u64, SnapshotError};
use parking_lot::RwLock;
use std::collections::HashMap;
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
    /// `norm(embedding)`, computed once: every reuse lookup compares its
    /// query with every entry.
    norm: f32,
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
        let norm = norm(&embedding);
        let mut store = self.inner.write();
        store.tick += 1;
        let last_used = store.tick;
        let entry = MaterializedContext {
            instruction: instruction.to_string(),
            context,
            embedding,
            norm,
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
    /// [`encode_delta_frame`] turns them into one delta section a
    /// [`StoreReplica`] can replay.
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
    /// each distinct document, description and findings table is written
    /// once, before the first entry that holds it.
    pub fn encode_snapshot(&self) -> String {
        encode_store(&self.inner.read()).0
    }

    /// [`ContextManager::encode_snapshot`] for a full checkpoint: also
    /// empties the journal, in the same critical section, and returns
    /// the pool the snapshot defined, which the delta sections after it
    /// refer into. The snapshot holds every mutation
    /// journaled before it and the journal every one after it, so a
    /// mutation made while the snapshot is being written is in exactly
    /// one of them.
    pub fn checkpoint_snapshot(&self) -> (String, DocPool) {
        let mut store = self.inner.write();
        if let Some(journal) = store.journal.as_mut() {
            journal.clear();
        }
        encode_store(&store)
    }

    /// Decodes a snapshot produced by [`ContextManager::encode_snapshot`]
    /// into a replica. `rebuild` constructs a Context from `(id, lake,
    /// description)` — the caller supplies it because Context
    /// construction needs a Runtime. Embeddings are recomputed
    /// deterministically from each instruction; LRU ticks and costs are
    /// restored exactly, and every restored Context holding a document or
    /// a findings table shares the one `Arc` its pool line became. Any
    /// format (or format version), count, or checksum violation is a
    /// [`SnapshotError`].
    pub fn decode_replica(
        &self,
        text: &str,
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<StoreReplica, SnapshotError> {
        let body = snapshot::decode_file(STORE_MAGIC, text)?
            .strip_suffix('\n')
            .ok_or_else(|| fail("unterminated body"))?;
        let mut fields = Fields::new(body.split(SEPARATORS));
        if fields.field()? != "T" {
            return Err(fail("bad tick line"));
        }
        let mut replica = StoreReplica {
            tick: fields.num("bad tick line")?,
            ..StoreReplica::default()
        };
        let section = self.decode_ops(&mut fields, &replica.pool, rebuild)?;
        if !section
            .ops
            .iter()
            .all(|op| matches!(op, JournalOp::Insert(_)))
        {
            return Err(fail("journal record in a snapshot"));
        }
        replica.apply(section);
        Ok(replica)
    }

    /// Decodes one delta section and checks it applies to `replica`:
    /// stamped for the replica's pool, well-formed, every pool index
    /// naming an item of its kind and every entry index in range.
    pub fn decode_section(
        &self,
        replica: &StoreReplica,
        section: &str,
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<StoreSection, SnapshotError> {
        let mut fields = Fields::new(section.split(SEPARATORS));
        if fields.num::<usize>("bad pool length")? != replica.pool.len() {
            return Err(fail("frame of another pool"));
        }
        let section = self.decode_ops(&mut fields, &replica.pool, rebuild)?;
        replica.check(&section.ops)?;
        Ok(section)
    }

    /// Replaces the store with `replica`, trimmed to the capacity bound
    /// with the standard eviction policy. The journal restarts empty: the
    /// replica is the new baseline. Returns the Contexts kept.
    pub fn install(&self, replica: StoreReplica) -> usize {
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
        store.entries.len()
    }
}

/// The snapshot of `store` and the pool it defined.
fn encode_store(store: &Store) -> (String, DocPool) {
    let mut pool = DocPool::default();
    let mut body = format!("T\t{}", store.tick);
    for entry in &store.entries {
        encode_entry(entry, &mut pool, '\n', &mut body);
    }
    body.push('\n');
    (snapshot::encode_file(STORE_MAGIC, &body), pool)
}

const STORE_MAGIC: &str = "aida-ctxstore v3";

// ---- snapshot and delta-frame encoding ---------------------------------
//
// Tagged records of tab-separated fields (escaping via the shared
// `snapshot` codec, applied once, to fields):
//   P  <name> <content> <nlabels> (<key> <value-enc>)*
//   D  <description>
//   F  <ncols> (<col-name> <col-desc>)* <nrows> (<cell-enc>)*
//   C  <instruction> <cost_bits:hex16> <last_used> <id> <description-index>
//      <findings-index | -> <ndocs> (<document-index>)*
//   B  <entry-index> <tick>
//   E  <entry-index>
//
// `P`, `D` and `F` each define the next item of the file's pool
// (indices count them from 0, whatever their kind); a `C` record refers
// to its items by index — backwards only, each of its field's kind, `-`
// for no findings. A snapshot body is `T <tick>` and then pool and `C`
// records, one per line, each item before the first entry that holds
// it. A delta section is ONE line, `<pool-length>` and then records of
// any tag separated by tabs: every record says how many fields it has,
// so no second level of escaping is needed. The pool is the snapshot's
// plus what earlier sections defined; the stamp says how long it must
// be. (v2 wrote descriptions and findings inline in `C` records; it is
// refused.)
//
// Documents round-trip through `Document::new(name, content)` (which
// derives `id` and `kind` from the name) plus explicit labels, so the
// oracle sees identical ground truth after a restore.

/// What separates fields: a tab, or the newline between the records of
/// a snapshot body. Neither survives escaping inside a field.
const SEPARATORS: [char; 2] = ['\t', '\n'];

/// One item of a state file's pool: what a `P`, `D` or `F` defines.
enum Pooled {
    Doc(Arc<Document>),
    Desc(Arc<str>),
    Findings(Arc<Table>),
}

impl Pooled {
    fn item(&self) -> Item<'_> {
        match self {
            Pooled::Doc(doc) => Item::Doc(doc),
            Pooled::Desc(text) => Item::Desc(text),
            Pooled::Findings(table) => Item::Findings(table),
        }
    }
}

/// A Context's part the encoder looks up in the pool, borrowed.
#[derive(Clone, Copy)]
enum Item<'a> {
    Doc(&'a Arc<Document>),
    Desc(&'a str),
    Findings(&'a Arc<Table>),
}

impl Item<'_> {
    /// The `Arc` address of a document or table.
    fn ptr(self) -> Option<usize> {
        match self {
            Item::Doc(doc) => Some(Arc::as_ptr(doc) as usize),
            Item::Desc(_) => None,
            Item::Findings(table) => Some(Arc::as_ptr(table) as usize),
        }
    }

    /// The fingerprint the pool files the item under. It reads a bounded
    /// part of a description or table (a document's text hash is
    /// computed once per document and kept), so looking up an item the
    /// pool holds costs no pass over its text.
    fn print(self) -> u64 {
        match self {
            Item::Doc(doc) => hash_str(&doc.name) ^ doc.text_hash(hash_str).rotate_left(32),
            Item::Desc(text) => text_print(text),
            Item::Findings(table) => {
                let first = table.rows().first().and_then(|row| row.first());
                let last = table.rows().last().and_then(|row| row.last());
                let [first, last] = [first, last].map(|cell| cell.map_or(0, value_print));
                let shape = (table.len() as u64) << 32 | table.schema().len() as u64;
                first ^ last.rotate_left(16) ^ shape
            }
        }
    }

    /// Whether both are the same item as the encoding writes it: floats
    /// by their bits, so `0.0` and `-0.0` differ and a NaN equals itself.
    fn same(self, other: Item) -> bool {
        match (self, other) {
            (Item::Doc(a), Item::Doc(b)) => {
                let (la, lb) = (a.labels(), b.labels());
                let mut labels = la.iter().zip(lb);
                let same_labels =
                    labels.all(|((ka, va), (kb, vb))| ka == kb && same_value((va, vb)));
                a.name == b.name && a.content == b.content && la.len() == lb.len() && same_labels
            }
            (Item::Desc(a), Item::Desc(b)) => a == b,
            // Every row has the schema's arity.
            (Item::Findings(a), Item::Findings(b)) => {
                let mut cells = a.rows().iter().flatten().zip(b.rows().iter().flatten());
                a.schema() == b.schema() && a.len() == b.len() && cells.all(same_value)
            }
            _ => false,
        }
    }

    fn pooled(self) -> Pooled {
        match self {
            Item::Doc(doc) => Pooled::Doc(Arc::clone(doc)),
            Item::Desc(text) => Pooled::Desc(text.into()),
            Item::Findings(table) => Pooled::Findings(Arc::clone(table)),
        }
    }

    /// Appends the pool record defining the item.
    fn encode(self, out: &mut String) {
        match self {
            Item::Doc(doc) => {
                out.push('P');
                tab_esc(out, &doc.name);
                tab_esc(out, &doc.content);
                tab_num(out, doc.labels().len() as u64);
                for (key, value) in doc.labels() {
                    tab_esc(out, key);
                    out.push('\t');
                    encode_value(value, out);
                }
            }
            Item::Desc(text) => {
                out.push('D');
                tab_esc(out, text);
            }
            Item::Findings(table) => {
                out.push('F');
                tab_num(out, table.schema().len() as u64);
                for field in table.schema().fields() {
                    tab_esc(out, &field.name);
                    tab_esc(out, &field.desc);
                }
                tab_num(out, table.len() as u64);
                for cell in table.rows().iter().flatten() {
                    out.push('\t');
                    encode_value(cell, out);
                }
            }
        }
    }
}

/// Appends a tab and `v` in decimal.
fn tab_num(out: &mut String, v: u64) {
    out.push('\t');
    push_u64(out, v);
}

/// Appends a tab and `text`, escaped.
fn tab_esc(out: &mut String, text: &str) {
    out.push('\t');
    esc(text, out);
}

/// Length and at most 16 bytes from each end of `text`.
fn text_print(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let head = &bytes[..bytes.len().min(16)];
    let tail = &bytes[bytes.len().saturating_sub(16)..];
    snapshot::fnv64(head) ^ snapshot::fnv64(tail).rotate_left(32) ^ bytes.len() as u64
}

/// A cell's part of a table fingerprint: bounded like [`text_print`].
fn value_print(value: &Value) -> u64 {
    match value {
        Value::Int(i) => *i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Str(s) => text_print(s),
        _ => 0,
    }
}

/// `Value` equality as the encoding sees it: floats by their bits.
fn same_value((a, b): (&Value, &Value)) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::List(x), Value::List(y)) => x.len() == y.len() && x.iter().zip(y).all(same_value),
        (Value::Float(_) | Value::List(_), _) => false,
        _ => a == b,
    }
}

/// The items a state file has defined so far, in definition order: the
/// encoder's side of the pool. An item is written when it is first
/// referred to and never again in that file.
#[derive(Default)]
pub struct DocPool {
    items: Vec<Pooled>,
    /// `Arc` address of a pooled document or table → index. The pool
    /// holds the `Arc`, so the address cannot be reused while it is a
    /// key.
    by_ptr: HashMap<usize, usize>,
    /// [`Item::print`] → candidates, confirmed by [`Item::same`]: a
    /// collision costs a comparison, never an alias.
    by_print: HashMap<u64, Vec<usize>>,
}

impl DocPool {
    /// How many items (documents, descriptions and findings tables) are
    /// defined so far.
    pub fn defined(&self) -> usize {
        self.items.len()
    }

    /// Forgets the items defined at or after `len` — the roll-back of a
    /// frame that did not reach the disk.
    pub fn truncate(&mut self, len: usize) {
        for pooled in self.items.drain(len.min(self.items.len())..) {
            let item = pooled.item();
            if let Some(ptr) = item.ptr() {
                self.by_ptr.remove(&ptr);
            }
            if let Some(candidates) = self.by_print.get_mut(&item.print()) {
                candidates.retain(|index| *index < len);
            }
        }
    }

    /// The index of `item`, which is defined (a pool record after `sep`)
    /// if this is the first reference to it.
    fn intern(&mut self, item: Item, sep: char, out: &mut String) -> usize {
        let ptr = item.ptr();
        if let Some(&index) = ptr.and_then(|ptr| self.by_ptr.get(&ptr)) {
            return index;
        }
        let candidates = self.by_print.entry(item.print()).or_default();
        let items = &self.items;
        if let Some(&index) = candidates.iter().find(|&&i| items[i].item().same(item)) {
            return index;
        }
        let index = items.len();
        candidates.push(index);
        if let Some(ptr) = ptr {
            self.by_ptr.insert(ptr, index);
        }
        self.items.push(item.pooled());
        out.push(sep);
        item.encode(out);
        index
    }
}

/// Appends `entry` — first the pool items it is the first to refer to,
/// then its `C` record — each record preceded by `sep`.
fn encode_entry(entry: &MaterializedContext, pool: &mut DocPool, sep: char, out: &mut String) {
    let context = &entry.context;
    let docs: Vec<usize> = (context.lake().docs().iter())
        .map(|doc| pool.intern(Item::Doc(doc), sep, out))
        .collect();
    let description = pool.intern(Item::Desc(&context.description), sep, out);
    let findings = (context.findings.as_ref()).map(|t| pool.intern(Item::Findings(t), sep, out));
    out.push(sep);
    out.push('C');
    tab_esc(out, &entry.instruction);
    out.push('\t');
    push_hex16(out, entry.original_cost.to_bits());
    tab_num(out, entry.last_used);
    tab_esc(out, &context.id);
    tab_num(out, description as u64);
    match findings {
        Some(index) => tab_num(out, index as u64),
        None => out.push_str("\t-"),
    }
    tab_num(out, docs.len() as u64);
    for index in docs {
        tab_num(out, index as u64);
    }
}

/// Appends drained journal operations to `out` as the Context store's
/// delta section (newline-free), stamped with the length of the pool
/// before it. Items the section introduces are defined in it and added
/// to `pool`; the caller rolls `pool` back ([`DocPool::truncate`]) if
/// the section does not reach the disk.
pub fn encode_delta_frame(ops: &[JournalOp], pool: &mut DocPool, out: &mut String) {
    push_u64(out, pool.defined() as u64);
    for op in ops {
        match op {
            JournalOp::Insert(entry) => encode_entry(entry, pool, '\t', out),
            JournalOp::Bump { index, tick } => {
                out.push_str("\tB");
                tab_num(out, *index as u64);
                tab_num(out, *tick);
            }
            JournalOp::Evict(index) => {
                out.push_str("\tE");
                tab_num(out, *index as u64);
            }
        }
    }
}

fn fail(msg: &str) -> SnapshotError {
    SnapshotError::Format(msg.to_string())
}

/// Cursor over the fields of a snapshot body or a frame payload.
type Fields<'a> = snapshot::Fields<std::str::Split<'a, [char; 2]>>;

/// A Context store rebuilt off to the side from a snapshot and the delta
/// sections extending it, swapped in whole ([`ContextManager::install`]).
#[derive(Default)]
pub struct StoreReplica {
    entries: Vec<MaterializedContext>,
    tick: u64,
    evicted: u64,
    /// Decoder's side of the pool: one item per pool record.
    pool: Vec<Pooled>,
}

/// A delta section decoded and checked against a [`StoreReplica`]: the
/// pool items it defines and the operations it journals, which apply
/// whole.
pub struct StoreSection {
    pooled: Vec<Pooled>,
    ops: Vec<JournalOp>,
}

impl StoreReplica {
    /// Checks every index against the entry count its operation will see.
    fn check(&self, ops: &[JournalOp]) -> Result<(), SnapshotError> {
        let mut len = self.entries.len();
        for op in ops {
            match op {
                JournalOp::Insert(_) => len += 1,
                JournalOp::Bump { index, .. } if *index < len => {}
                JournalOp::Evict(index) if *index < len => len -= 1,
                _ => return Err(fail("entry index out of range")),
            }
        }
        Ok(())
    }

    /// Applies a section [`ContextManager::decode_section`] checked
    /// against this replica.
    pub fn apply(&mut self, section: StoreSection) {
        self.pool.extend(section.pooled);
        for op in section.ops {
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
                    if index < self.entries.len() {
                        self.entries.remove(index);
                        self.evicted += 1;
                    }
                }
            }
        }
    }
}

impl ContextManager {
    /// Decodes records until the fields run out. Pool records define
    /// the items after `pool`; every other record becomes the operation
    /// it journals.
    fn decode_ops(
        &self,
        fields: &mut Fields,
        pool: &[Pooled],
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<StoreSection, SnapshotError> {
        let mut section = StoreSection {
            pooled: Vec::new(),
            ops: Vec::new(),
        };
        while let Some(tag) = fields.try_field() {
            section.ops.push(match tag {
                "P" | "D" | "F" => {
                    section.pooled.push(match tag {
                        "P" => Pooled::Doc(Arc::new(decode_doc(fields)?)),
                        "D" => Pooled::Desc(fields.text()?.into()),
                        _ => Pooled::Findings(Arc::new(decode_findings(fields)?)),
                    });
                    continue;
                }
                "C" => {
                    let pool = [pool, &section.pooled];
                    JournalOp::Insert(Box::new(self.decode_entry(fields, pool, rebuild)?))
                }
                "B" => JournalOp::Bump {
                    index: fields.num("bad bump record")?,
                    tick: fields.num("bad bump record")?,
                },
                "E" => JournalOp::Evict(fields.num("bad evict record")?),
                _ => return Err(fail("unknown record tag")),
            });
        }
        Ok(section)
    }

    /// Decodes the fields of a `C` record, taking its description,
    /// findings and documents from `pool`: the chain's pool, then the
    /// items its section defined so far. The Contexts that hold an item
    /// share its one `Arc`: a document's memo slots, a findings table.
    fn decode_entry(
        &self,
        fields: &mut Fields,
        pool: [&[Pooled]; 2],
        rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
    ) -> Result<MaterializedContext, SnapshotError> {
        let lookup = |index: usize| {
            pool[0].get(index).or_else(|| {
                let index = index.checked_sub(pool[0].len())?;
                pool[1].get(index)
            })
        };
        let instruction = fields.text()?;
        let original_cost = fields.f64_bits("bad cost bits")?;
        let last_used = fields.num("bad last_used")?;
        let id = fields.text()?;
        let Some(Pooled::Desc(description)) = lookup(fields.num("bad description index")?) else {
            return Err(fail("description index names no description"));
        };
        let findings = match fields.field()? {
            "-" => None,
            index => match index.parse().ok().and_then(lookup) {
                Some(Pooled::Findings(table)) => Some(Arc::clone(table)),
                _ => return Err(fail("findings index names no table")),
            },
        };
        let mut docs = Vec::new();
        for _ in 0..fields.num::<usize>("bad doc count")? {
            let Some(Pooled::Doc(doc)) = lookup(fields.num("bad document index")?) else {
                return Err(fail("document index names no document"));
            };
            docs.push(Arc::clone(doc));
        }
        let mut context = rebuild(&id, DataLake::from_arcs(docs), description);
        context.findings = findings;
        let embedding = self.embedder.embed(&instruction);
        Ok(MaterializedContext {
            norm: norm(&embedding),
            embedding,
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
        doc = doc.with_label(fields.text()?, fields.value()?);
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
            row.push(fields.value()?);
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
    let query_norm = norm(query);
    let mut best: Option<(usize, f32)> = None;
    for (i, entry) in entries.iter().enumerate() {
        let sim = cosine_with_norms(query, query_norm, &entry.embedding, entry.norm);
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

        /// Restores the store from a snapshot and the delta sections
        /// `frames` (`(seq, section)`), replacing any current entries.
        /// Sections are trusted up to the first that does not decode or
        /// apply ([`ContextManager::decode_section`]), and one applies whole
        /// or not at all, so the result is the snapshot plus an exact
        /// section prefix. A snapshot that does not decode returns
        /// [`SnapshotError`] and leaves the store untouched — callers start
        /// cold instead of trusting a corrupt file. Returns `(contexts
        /// restored after trimming, sections applied)`.
        fn load_chain(
            &self,
            text: &str,
            frames: &[(u64, String)],
            rebuild: &dyn Fn(&str, DataLake, &str) -> Context,
        ) -> Result<(usize, usize), SnapshotError> {
            let mut replica = self.decode_replica(text, rebuild)?;
            let mut applied = 0;
            for (_, section) in frames {
                let Ok(section) = self.decode_section(&replica, section, rebuild) else {
                    break;
                };
                replica.apply(section);
                applied += 1;
            }
            Ok((self.install(replica), applied))
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
    use aida_llm::embed::cosine;

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

    /// [`encode_delta_frame`]'s section, on its own.
    fn frame_of(ops: &[JournalOp], pool: &mut DocPool) -> String {
        let mut out = String::new();
        encode_delta_frame(ops, pool, &mut out);
        out
    }

    /// `(seq, payload)` records as the log hands them to `load_chain`.
    fn chain(frames: &[String]) -> Vec<(u64, String)> {
        (0u64..).zip(frames.iter().cloned()).collect()
    }

    /// A full checkpoint's snapshot and the emptying of the journal are
    /// one step. Here a `register` lands between encoding the snapshot
    /// and the next frame, as one from another thread would while the
    /// snapshot is committed: it must reach that frame, once. (Encoding
    /// first and draining after the commit, as separate steps, lost it.)
    #[test]
    fn a_register_during_a_full_checkpoint_reaches_the_next_frame() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.set_journal(true);
        manager.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        manager.register("cheap keyword probe", ctx(&rt, "b"), 0.01);
        let (base, mut pool) = manager.checkpoint_snapshot();
        manager.register("medium targeted extraction", ctx(&rt, "c"), 0.5);
        let ops = manager.drain_journal();
        assert_eq!(
            ops.len(),
            1,
            "the journal holds only what followed the snapshot"
        );
        let frame = frame_of(&ops, &mut pool);
        let replica = ContextManager::new();
        let loaded = replica.load_chain(&base, &chain(&[frame]), &rebuild_with(&rt));
        assert_eq!(loaded.unwrap(), (3, 1));
        assert_eq!(replica.encode_snapshot(), manager.encode_snapshot());
    }

    #[test]
    fn journal_replay_reproduces_the_store_byte_for_byte() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::with_capacity(2);
        manager.set_journal(true);

        // Baseline: one entry, then a full snapshot, which empties the
        // journal — replay starts from this base.
        manager.register("expensive exhaustive legal scan", ctx(&rt, "a"), 2.0);
        let (base, mut pool) = manager.checkpoint_snapshot();
        assert!(manager.drain_journal().is_empty(), "the snapshot holds it");

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
        let frame = frame_of(&ops, &mut pool);
        assert!(!frame.contains('\n'), "a section is one log record");

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
        // So it is for frames stamped for another pool length, and for
        // pool indices that name an item of another kind or none: the
        // base's pool is document `a.txt` (0) and description `a` (1).
        let stamp = "2";
        let entry = format!("{stamp}\tC\ti\t0\t9\tid");
        for bad in [
            format!("{stamp}\tB\t99\t7"),
            format!("{stamp}\tE\t99"),
            format!("{stamp}\tX\tnope"),
            format!("{stamp}\tC\ttruncated"),
            format!("{stamp}\tB\t0\t9\tE\t5"),
            format!("{stamp}\tF\t0\t18446744073709551615"),
            format!("{entry}\t0\t-\t0"),
            format!("{entry}\t1\t2\t0"),
            format!("{entry}\t1\t1\t0"),
            format!("{entry}\t1\t-\t1\t1"),
            format!("{entry}\t2\t-\t0\tD\tlate"),
            "3\tB\t0\t9".to_string(),
            "1\tB\t0\t9".to_string(),
        ] {
            let cold = ContextManager::with_capacity(2);
            let loaded = cold.load_chain(&base, &chain(std::slice::from_ref(&bad)), &rebuild);
            assert_eq!(loaded.unwrap(), (1, 0), "{bad:?}");
            assert_eq!(cold.encode_snapshot(), base, "{bad:?}");
        }
        // The same entry with indices of the right kinds applies.
        let fine = format!("{entry}\t1\t-\t1\t0");
        let cold = ContextManager::with_capacity(2);
        let loaded = cold.load_chain(&base, &chain(&[fine]), &rebuild);
        assert_eq!(loaded.unwrap(), (2, 1));
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

        let (snap, pool) = manager.checkpoint_snapshot();
        assert_eq!(pool.defined(), 4, "three documents and one description");
        let pool_lines = snap.lines().filter(|l| l.starts_with("P\t")).count();
        assert_eq!(pool_lines, 3, "each shared document is written once");
        assert_eq!(snap.matches("alpha body").count(), 1);
        assert!(
            snap.contains("\t2\t-\t3\t3\t0\t1\n"),
            "the third entry refers to its description and c, a, b by pool index: {snap}"
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

        let (snap, pool) = manager.checkpoint_snapshot();
        assert_eq!(pool.defined(), 5, "four documents, one description: {snap}");
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
    /// defines the same documents, descriptions and findings at the same
    /// indices.
    #[test]
    fn pool_truncate_undoes_a_frame() {
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.set_journal(true);
        manager.register("base entry", ctx(&rt, "base"), 1.0);
        let (_, mut pool) = manager.checkpoint_snapshot();
        assert_eq!(pool.defined(), 2, "a document and a description");
        let mut fresh = Context::builder("n", DataLake::from_docs([Document::new("n.txt", "new")]))
            .description("fresh")
            .build(&rt);
        fresh.findings = Some(Arc::new(Table::new(Schema::of(["k"]))));
        manager.register("new entry", fresh, 1.0);
        let ops = manager.drain_journal();
        let first = frame_of(&ops, &mut pool);
        assert_eq!(pool.defined(), 5);
        assert!(
            first.contains("\tP\tn.txt\tnew\t0\tD\tfresh\tF\t1\tk\t\t0\tC\t"),
            "{first}"
        );
        pool.truncate(2);
        assert_eq!(pool.defined(), 2);
        assert_eq!(frame_of(&ops, &mut pool), first);
        // Once the frame is durable, a later one refers back to it.
        let again = frame_of(&ops, &mut pool);
        assert!(!again.contains("\tP\t") && !again.contains("\tD\t") && !again.contains("\tF\t"));
        assert!(again.starts_with("5\tC\t") && again.ends_with("\t3\t4\t1\t2"));
    }

    /// Contexts registered with equal descriptions and equal findings
    /// (separate `String`s and `Arc`s) cost one pool record each, in a
    /// snapshot and in a frame, and restore sharing one findings `Arc`.
    #[test]
    fn repeated_descriptions_and_findings_are_pooled_once_and_restore_shared() {
        use aida_data::Value;
        let rt = Runtime::builder().build();
        let manager = ContextManager::new();
        manager.set_journal(true);
        let with = |description: &str, amount: i64| {
            let mut context = ctx(&rt, description);
            let mut table = Table::new(Schema::of(["amount"]));
            table.push_row(vec![Value::Int(amount)]).unwrap();
            context.findings = Some(Arc::new(table));
            context
        };
        manager.register("first question", with("FINDINGS: the total is 42", 42), 1.0);
        manager.register(
            "second question",
            with("FINDINGS: the total is 42", 42),
            1.0,
        );
        manager.register("third question", with("FINDINGS: the total is 7", 7), 1.0);
        let (snap, mut pool) = manager.checkpoint_snapshot();
        assert_eq!(snap.matches("the total is 42").count(), 1, "{snap}");
        assert_eq!(snap.lines().filter(|l| l.starts_with("F\t")).count(), 2);
        // A frame inserting the same description and findings again
        // defines nothing.
        manager.register(
            "fourth question",
            with("FINDINGS: the total is 42", 42),
            1.0,
        );
        let frame = frame_of(&manager.drain_journal(), &mut pool);
        assert!(
            !frame.contains("\tD\t") && !frame.contains("\tF\t"),
            "{frame}"
        );

        let restored = ContextManager::new();
        let loaded = restored.load_chain(&snap, &chain(&[frame]), &rebuild_with(&rt));
        assert_eq!(loaded.unwrap(), (4, 1));
        assert_eq!(restored.encode_snapshot(), manager.encode_snapshot());
        let findings_of = |instruction: &str| {
            let (hit, sim) = restored.find_similar(instruction).unwrap();
            assert!(sim > 0.99, "{instruction}");
            hit.context.findings.unwrap()
        };
        let first = findings_of("first question");
        assert!(Arc::ptr_eq(&first, &findings_of("second question")));
        assert!(Arc::ptr_eq(&first, &findings_of("fourth question")));
        assert!(!Arc::ptr_eq(&first, &findings_of("third question")));
    }

    /// `Table: PartialEq` says `0.0 == -0.0` and `NaN != NaN`; the pool
    /// compares floats by their bits, as the encoding writes them. Tables
    /// differing only in a zero's sign or a NaN's payload are pooled
    /// apart and come back bit for bit; a NaN table repeated is pooled
    /// once.
    #[test]
    fn findings_differing_in_float_bits_are_pooled_apart() {
        use aida_data::Value;
        let rt = Runtime::builder().build();
        let bits = [
            0.0f64.to_bits(),
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            f64::NAN.to_bits() | 1,
            f64::NAN.to_bits(),
        ];
        let manager = ContextManager::new();
        for (i, &b) in bits.iter().enumerate() {
            let mut context = ctx(&rt, "one description");
            let mut table = Table::new(Schema::of(["x", "in a list"]));
            let x = Value::Float(f64::from_bits(b));
            table
                .push_row(vec![x.clone(), Value::List(vec![x])])
                .unwrap();
            context.findings = Some(Arc::new(table));
            manager.register(&format!("question {i} about floats"), context, 1.0);
        }
        let (snap, pool) = manager.checkpoint_snapshot();
        let tables = snap.lines().filter(|l| l.starts_with("F\t")).count();
        assert_eq!(tables, 4, "{snap}");
        assert_eq!(
            pool.defined(),
            1 + 1 + 4,
            "a document, a description, four tables"
        );
        let restored = ContextManager::new();
        assert_eq!(
            restored.load_snapshot(&snap, &rebuild_with(&rt)).unwrap(),
            5
        );
        assert_eq!(restored.encode_snapshot(), snap);
        for (i, &b) in bits.iter().enumerate() {
            let (hit, _) = restored
                .find_similar(&format!("question {i} about floats"))
                .unwrap();
            let findings = hit.context.findings.unwrap();
            let (Some(Value::Float(x)), Some(Value::List(list))) =
                (findings.cell(0, "x"), findings.cell(0, "in a list"))
            else {
                panic!("a float and a list");
            };
            assert_eq!(x.to_bits(), b, "{i}");
            assert!(
                matches!(list[..], [Value::Float(f)] if f.to_bits() == b),
                "{i}"
            );
        }
    }

    mod props {
        use super::*;
        use aida_data::Value;
        use proptest::prelude::*;

        /// `(lake indices, cost, description, findings)` per entry. A
        /// description below 3 is one of three shared ones, 3 its own.
        /// Findings `(0, _)` are one shared table behind one `Arc`,
        /// `(1, _)` a table equal to it built afresh, and `(2, cells)` a
        /// table of the entry's own cells.
        type EntrySpec = (Vec<usize>, f64, usize, Option<(usize, Vec<String>)>);

        fn entry_strategy() -> impl Strategy<Value = EntrySpec> {
            (
                prop::collection::vec(0usize..6, 0..5),
                0.5f64..50.0,
                0usize..4,
                prop_oneof![
                    Just(None),
                    (
                        0usize..3,
                        prop::collection::vec("[a-z\t\\\\,\\[ é]{0,8}", 0..4)
                    )
                        .prop_map(Some)
                ],
            )
        }

        fn table_of(cells: &[String]) -> Table {
            let mut table = Table::new(Schema::of(["cell"]));
            for cell in cells {
                table
                    .push_row(vec![Value::Str(cell.as_str().into())])
                    .unwrap();
            }
            table
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
                let shared_cells = ["shared".to_string(), "table".to_string()];
                let shared = Arc::new(table_of(&shared_cells));
                let manager = ContextManager::with_capacity(capacity);
                manager.set_journal(true);
                let mut base = None;
                for (i, (picks, cost, desc, findings)) in entries.iter().enumerate() {
                    if i == split.min(entries.len() - 1) {
                        base = Some(manager.checkpoint_snapshot());
                    }
                    // A lake holds one document per name.
                    let mut picked: Vec<Arc<Document>> = Vec::new();
                    for &pick in picks {
                        if !picked.iter().any(|d| d.name == docs[pick].name) {
                            picked.push(Arc::clone(&docs[pick]));
                        }
                    }
                    let description = match desc {
                        0..3 => format!("desc\t{desc}"),
                        _ => format!("own desc\t{i}"),
                    };
                    let mut context = Context::builder(format!("ctx{i}"), DataLake::from_arcs(picked))
                        .description(description)
                        .build(&rt);
                    context.findings = findings.as_ref().map(|(kind, cells)| match kind {
                        0 => Arc::clone(&shared),
                        1 => Arc::new(table_of(&shared_cells)),
                        _ => Arc::new(table_of(cells)),
                    });
                    manager.register(&format!("instruction number {i}"), context, *cost);
                    manager.reuse(&format!("instruction number {}", i / 2), 0.99);
                }
                let snap = manager.encode_snapshot();
                // Each shared description and the shared table are
                // written at most once.
                for desc in 0..3 {
                    let line = format!("D\tdesc\\t{desc}\n");
                    prop_assert!(snap.matches(&line).count() <= 1);
                }
                prop_assert!(snap.matches("\tsshared\t").count() <= 1);
                let rebuild = rebuild_with(&rt);

                let restored = ContextManager::with_capacity(capacity);
                prop_assert_eq!(restored.load_snapshot(&snap, &rebuild).unwrap(), manager.len());
                prop_assert_eq!(restored.encode_snapshot(), snap.clone());

                let (base, mut pool) = base.expect("split is within the entries");
                let ops = manager.drain_journal();
                let mid = ops.len() / 2;
                let frames = chain(&[
                    frame_of(&ops[..mid], &mut pool),
                    frame_of(&ops[mid..], &mut pool),
                ]);
                let replayed = ContextManager::with_capacity(capacity);
                let loaded = replayed.load_chain(&base, &frames, &rebuild).unwrap();
                prop_assert_eq!(loaded, (manager.len(), 2));
                prop_assert_eq!(replayed.encode_snapshot(), snap);
            }
        }
    }

    /// The stored norms are recomputed on restore: after a checkpoint (a
    /// full snapshot, then a delta frame), a crash-stop and a restore,
    /// every lookup returns the same entry at the same similarity bits.
    #[test]
    fn restore_reuses_the_same_entries_at_the_same_similarity_bits() {
        let dir = std::env::temp_dir().join(format!("aida-manager-norms-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let state = dir.join("state.bin");
        let runtime = || {
            Runtime::builder()
                .state_path(&state)
                .delta_checkpoints(true)
                .build()
        };
        let topics = [
            "identity theft reports",
            "pipeline maintenance windows",
            "natural gas trades",
            "fraud complaints by state",
            "energy contracts signed",
            "court filings about wire fraud",
            "trading desk emails",
            "",
        ];
        let years = ["2001", "2019", "2024", "the last decade"];
        // Long enough that most embeddings' norms are not exactly 1.0.
        let instruction = |i: usize| {
            format!(
                "find the {} filed in {} across every state, with the agencies and amounts",
                topics[i % 8],
                years[(i / 8) % 4]
            )
        };

        let rt = runtime();
        for i in 0..40 {
            if i == 24 {
                assert!(rt.save_state().unwrap(), "the full snapshot");
            }
            rt.manager()
                .register(&instruction(i), ctx(&rt, "d"), i as f64);
        }
        assert!(rt.save_state().unwrap(), "the delta frame");
        // Reworded queries land between entries; the threshold splits
        // them into hits and misses.
        let queries: Vec<String> = (0..64)
            .map(|i| match i % 3 {
                0 => instruction(i),
                1 => format!("how many {}", instruction(i + 5)),
                _ => format!("{} {}", topics[i % 8], years[i % 4]),
            })
            .collect();
        let embedder = Embedder::default();
        let lookups = |manager: &ContextManager| -> Vec<(Option<String>, u32)> {
            queries
                .iter()
                .map(|q| {
                    let (hit, sim) = manager.reuse_scored(q, 0.8);
                    let hit = hit.map(|h| h.instruction);
                    if let Some(instruction) = &hit {
                        let fresh = cosine(&embedder.embed(q), &embedder.embed(instruction));
                        assert_eq!(sim.to_bits(), fresh.to_bits(), "{q:?}");
                    }
                    (hit, sim.to_bits())
                })
                .collect()
        };
        let before = lookups(rt.manager());
        drop(rt);

        let restored = runtime();
        assert_eq!(restored.load_state().unwrap(), 40);
        assert_eq!(lookups(restored.manager()), before);
        let hits = before.iter().filter(|(hit, _)| hit.is_some()).count();
        assert!((16..64).contains(&hits), "{hits} hits");
        let _ = std::fs::remove_dir_all(&dir);
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
