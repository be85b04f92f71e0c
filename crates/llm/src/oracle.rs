//! The ground-truth oracle behind the simulated LLM.
//!
//! A real model answers a semantic question by reading the document. The
//! simulator reproduces that with two mechanisms, tried in order:
//!
//! 1. **Registered rules** ([`OracleRule`]): workload generators know the
//!    true answer for the predicates/extractions their queries use (they
//!    planted it), so they register rules mapping instruction patterns to
//!    ground-truth labels or content-derived answers.
//! 2. **Generic reading** (in [`crate::sim`]): keyword-overlap filtering and
//!    line-oriented numeric extraction directly over the subject text.
//!
//! Either way, the *noise channel* then corrupts the answer according to the
//! model tier and the subject's difficulty, which is what makes cheap models
//! cheap.

use crate::cache::{self, KeyHasher};
use crate::{noise, sim, tokens};
use aida_data::{Document, Record, TableView, Value};
use parking_lot::RwLock;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// The thing a semantic question is being asked about.
#[derive(Debug, Clone)]
pub struct Subject<'a> {
    /// Name of the underlying document or record source.
    pub name: Cow<'a, str>,
    /// Visible text the "model" reads.
    pub text: Cow<'a, str>,
    /// Set when `text` *is* this document's shared text: its memoized
    /// readings (lowered text, table view, line spans, gram set, token
    /// count, hash) then replace re-walking the text per call.
    memo: Option<&'a Document>,
    /// The document the subject was taken from, text shared or not: it
    /// carries the hidden ground-truth labels and their memoized key hashes.
    origin: Option<&'a Document>,
}

/// The raw document contents a scanned record still carries, if any.
fn contents(record: &Record) -> Option<&Arc<str>> {
    match record.get("contents") {
        Some(Value::Str(contents)) => Some(contents),
        _ => None,
    }
}

/// The text a model "reads" for a record: the raw document contents when
/// the record still carries them, otherwise the rendered fields.
pub fn subject_text(record: &Record) -> Cow<'_, str> {
    match contents(record) {
        Some(contents) => Cow::Borrowed(contents),
        None => Cow::Owned(record.render()),
    }
}

impl<'a> Subject<'a> {
    /// A subject backed by a document (HTML is stripped to text).
    pub fn doc(doc: &'a Document) -> Subject<'a> {
        Subject {
            name: Cow::Borrowed(doc.name.as_str()),
            text: Cow::Borrowed(doc.shared_text()),
            memo: Some(doc),
            origin: Some(doc),
        }
    }

    /// A subject backed by a record (see [`subject_text`]), optionally
    /// linked to the document it was scanned from (which carries the
    /// ground-truth labels).
    pub fn record(record: &'a Record, origin: Option<&'a Document>) -> Subject<'a> {
        let shares_text =
            |doc: &&Document| contents(record).is_some_and(|c| Arc::ptr_eq(c, doc.shared_text()));
        Subject {
            name: Cow::Borrowed(record.source()),
            text: subject_text(record),
            memo: origin.filter(shares_text),
            origin,
        }
    }

    /// A plain-text subject with no labels.
    pub fn text_only(name: &'a str, text: &'a str) -> Subject<'a> {
        Subject {
            name: Cow::Borrowed(name),
            text: Cow::Borrowed(text),
            memo: None,
            origin: None,
        }
    }

    /// `tokens::count(text)`, from the document's memo when it has one.
    pub fn text_tokens(&self) -> usize {
        match self.memo {
            Some(doc) => doc.text_tokens(tokens::count),
            None => tokens::count(&self.text),
        }
    }

    /// `noise::hash_str(text)`, from the document's memo when it has one.
    pub fn text_hash(&self) -> u64 {
        match self.memo {
            Some(doc) => doc.text_hash(noise::hash_str),
            None => noise::hash_str(&self.text),
        }
    }

    /// Pushes the cache-key parts of the labels, `[hash_str(name),
    /// hash_value(value)]` per label in order, from the origin document's
    /// memo.
    pub(crate) fn push_label_parts(&self, key: &mut KeyHasher) {
        let Some(doc) = self.origin else { return };
        for [name, value] in doc.label_hashes(cache::label_hash) {
            key.push(*name);
            key.push(*value);
        }
    }

    /// `text` with ASCII letters lowered (byte offsets unchanged), from the
    /// document's memo when it has one.
    pub(crate) fn text_lower(&self) -> Cow<'_, str> {
        match self.memo {
            Some(doc) => Cow::Borrowed(doc.lowered_text()),
            None => Cow::Owned(self.text.to_ascii_lowercase()),
        }
    }

    /// The byte range of each of `text`'s lines ([`aida_data::line_spans`]),
    /// from the document's memo when it has one.
    pub(crate) fn line_spans(&self) -> Cow<'_, [Range<usize>]> {
        match self.memo {
            Some(doc) => Cow::Borrowed(doc.line_spans()),
            None => Cow::Owned(aida_data::line_spans(&self.text)),
        }
    }

    /// False only when the document's memoized gram set rules the lowered
    /// `needle` out of [`Subject::text_lower`]
    /// ([`aida_data::may_contain`]); true, "maybe", when the subject has
    /// no document memo.
    pub(crate) fn may_contain(&self, needle: &str) -> bool {
        self.memo
            .is_none_or(|doc| aida_data::may_contain(doc.grams(), needle))
    }

    /// `sim::table_view(text)`, from the document's memo when it has one.
    pub(crate) fn table_view(&self) -> Cow<'_, TableView> {
        match self.memo {
            Some(doc) => Cow::Borrowed(doc.text_table(sim::table_view)),
            None => Cow::Owned(sim::table_view(&self.text)),
        }
    }

    /// Ground-truth label lookup.
    pub fn label(&self, key: &str) -> Option<&Value> {
        self.origin.and_then(|doc| doc.label(key))
    }

    /// The subject's judgement difficulty in `[0, 1]`, from the origin
    /// document's memo.
    ///
    /// Generators mark borderline items (e.g. a forwarded news article that
    /// *mentions* a transaction secondhand) with a `difficulty` label; the
    /// default is an easy 0.15.
    pub fn difficulty(&self) -> f64 {
        match self.origin {
            Some(doc) => doc.difficulty(difficulty),
            None => difficulty(None),
        }
    }
}

/// The difficulty a `difficulty` label sets (see [`Subject::difficulty`]);
/// what [`Document::difficulty`] memoizes.
fn difficulty(label: Option<&Value>) -> f64 {
    match label {
        Some(v) => v.as_float().unwrap_or(0.15).clamp(0.0, 1.0),
        None => 0.15,
    }
}

/// What an [`OracleRule`] is asked about a subject: a filter's or map's
/// instruction, or an extract's `"{instruction} :: {field}"`, with its
/// ASCII lowercase. A [`crate::TaskHead`] prepares both once.
#[derive(Debug, Clone, Copy)]
pub struct OracleQuery<'q> {
    text: &'q str,
    lower: &'q str,
}

impl<'q> OracleQuery<'q> {
    /// `lower` must be `text.to_ascii_lowercase()`.
    pub(crate) fn new(text: &'q str, lower: &'q str) -> OracleQuery<'q> {
        debug_assert_eq!(lower, text.to_ascii_lowercase());
        OracleQuery { text, lower }
    }

    /// The query as the task states it.
    pub fn text(&self) -> &'q str {
        self.text
    }

    /// The query with ASCII letters lowered.
    pub fn lower(&self) -> &'q str {
        self.lower
    }
}

/// A ground-truth answer produced by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleAnswer {
    /// Boolean judgement (semantic filters).
    Bool(bool),
    /// Boolean judgement with an explicit per-question difficulty that
    /// overrides the subject's document-level difficulty. Generators use
    /// this when different questions about the same document have very
    /// different hardness (spotting a name mention vs. judging
    /// firsthandness).
    BoolWithDifficulty(bool, f64),
    /// Extracted value (semantic maps/extracts).
    Value(Value),
    /// Free text (summaries).
    Text(String),
}

/// A rule that recognizes a family of instructions and answers them from
/// ground truth.
pub trait OracleRule: Send + Sync {
    /// Diagnostic name.
    fn name(&self) -> &str;
    /// Returns the true answer, or `None` when the rule doesn't apply to
    /// this query/subject.
    fn answer(&self, query: &OracleQuery<'_>, subject: &Subject<'_>) -> Option<OracleAnswer>;
}

/// A rule backed by a closure (used by generators for computed answers).
pub struct FnRule<F> {
    name: String,
    func: F,
}

impl<F> FnRule<F>
where
    F: Fn(&OracleQuery<'_>, &Subject<'_>) -> Option<OracleAnswer> + Send + Sync,
{
    /// Wraps a closure as a rule.
    pub fn new(name: impl Into<String>, func: F) -> Self {
        FnRule {
            name: name.into(),
            func,
        }
    }
}

impl<F> OracleRule for FnRule<F>
where
    F: Fn(&OracleQuery<'_>, &Subject<'_>) -> Option<OracleAnswer> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn answer(&self, query: &OracleQuery<'_>, subject: &Subject<'_>) -> Option<OracleAnswer> {
        (self.func)(query, subject)
    }
}

/// A shared, append-only registry of oracle rules.
#[derive(Clone, Default)]
pub struct Oracle {
    rules: Arc<RwLock<Vec<Arc<dyn OracleRule>>>>,
}

impl Oracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a rule; later registrations take precedence.
    pub fn register(&self, rule: Arc<dyn OracleRule>) {
        self.rules.write().push(rule);
    }

    /// Asks every rule (most recently registered first) for an answer.
    pub fn answer(&self, query: &OracleQuery<'_>, subject: &Subject<'_>) -> Option<OracleAnswer> {
        let rules = self.rules.read();
        rules
            .iter()
            .rev()
            .find_map(|rule| rule.answer(query, subject))
    }

    /// Number of registered rules.
    pub fn len(&self) -> usize {
        self.rules.read().len()
    }

    /// True when no rules are registered.
    pub fn is_empty(&self) -> bool {
        self.rules.read().is_empty()
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Oracle({} rules)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskHead;
    use aida_data::Document;

    fn email(relevant: bool, difficulty: f64) -> Document {
        Document::new("m.eml", "Subject: x\n\nbody text")
            .with_label("gt_relevant", relevant)
            .with_label("difficulty", difficulty)
    }

    #[test]
    fn subjects_borrow_text_and_use_the_memo_only_for_the_documents_own_text() {
        let doc = Document::new("r.html", "<p>Total &amp; breakdown</p>");
        let of_doc = Subject::doc(&doc);
        assert!(matches!(of_doc.text, Cow::Borrowed(_)) && of_doc.memo.is_some());
        let shared = Record::new("r.html").with("contents", Arc::clone(doc.shared_text()));
        let of_shared = Subject::record(&shared, Some(&doc));
        assert!(matches!(of_shared.text, Cow::Borrowed(_)) && of_shared.memo.is_some());
        // Equal bytes in another allocation, or no contents at all: no memo.
        let copy = Record::new("r.html").with("contents", doc.text());
        assert!(Subject::record(&copy, Some(&doc)).memo.is_none());
        let slim = Record::new("r.html").with("value", 7i64);
        let of_slim = Subject::record(&slim, Some(&doc));
        assert!(of_slim.memo.is_none() && of_slim.text == "value=7");
        assert!(of_slim
            .origin
            .is_some_and(|origin| std::ptr::eq(origin, &doc)));
    }

    #[test]
    fn oracle_prefers_later_registrations() {
        let oracle = Oracle::new();
        oracle.register(Arc::new(FnRule::new("first", |_, _| {
            Some(OracleAnswer::Bool(false))
        })));
        oracle.register(Arc::new(FnRule::new("second", |_, _| {
            Some(OracleAnswer::Bool(true))
        })));
        let doc = email(false, 0.0);
        let head = TaskHead::filter("anything");
        assert_eq!(
            oracle.answer(&head.oracle_query(), &Subject::doc(&doc)),
            Some(OracleAnswer::Bool(true))
        );
        assert_eq!(oracle.len(), 2);
    }

    #[test]
    fn subject_difficulty_defaults_and_clamps() {
        let doc = email(true, 0.9);
        assert!((Subject::doc(&doc).difficulty() - 0.9).abs() < 1e-12);
        let plain = Document::new("a.txt", "hi");
        assert!((Subject::doc(&plain).difficulty() - 0.15).abs() < 1e-12);
        let wild = Document::new("b.txt", "hi").with_label("difficulty", 5.0);
        assert_eq!(Subject::doc(&wild).difficulty(), 1.0);
    }

    #[test]
    fn a_difficulty_label_added_to_a_clone_with_a_filled_memo_changes_its_difficulty() {
        let doc = email(true, 0.4);
        assert_eq!(Subject::doc(&doc).difficulty(), 0.4);
        // The first read filled `doc`'s difficulty; the clone carries it.
        let relabelled = doc.clone().with_label("difficulty", 0.8);
        assert_eq!(Subject::doc(&relabelled).difficulty(), 0.8);
        let slim = Record::new("m.txt").with("value", 7i64);
        assert_eq!(Subject::record(&slim, Some(&relabelled)).difficulty(), 0.8);
        assert_eq!(
            Subject::doc(&doc).difficulty(),
            0.4,
            "the original keeps its own"
        );
        let plain = Document::new("a.txt", "hi");
        assert_eq!(Subject::doc(&plain).difficulty(), 0.15);
        let labelled = plain.clone().with_label("difficulty", 0.9);
        assert_eq!(Subject::doc(&labelled).difficulty(), 0.9);
    }

    #[test]
    fn record_subject_renders_fields() {
        let rec = aida_data::Record::new("f.csv").with("year", 2024i64);
        let subject = Subject::record(&rec, None);
        assert!(subject.text.contains("year=2024"));
        assert_eq!(subject.name, "f.csv");
        assert!(subject.label("x").is_none());
    }
}
