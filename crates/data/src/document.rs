//! Documents: named files in the unstructured data lake.

use crate::html;
use crate::table::Table;
use crate::value::Value;
use crate::{csv, DataError};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The format of a document's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocKind {
    /// Comma-separated values with a header row.
    Csv,
    /// An HTML page.
    Html,
    /// Plain text.
    Text,
    /// An RFC-822-ish email (headers, blank line, body).
    Email,
}

impl DocKind {
    /// Guesses the kind from a file extension.
    fn from_name(name: &str) -> DocKind {
        let lower = name.to_ascii_lowercase();
        if lower.ends_with(".csv") {
            DocKind::Csv
        } else if lower.ends_with(".html") || lower.ends_with(".htm") {
            DocKind::Html
        } else if lower.ends_with(".eml") {
            DocKind::Email
        } else {
            DocKind::Text
        }
    }
}

/// A file in the data lake.
///
/// `labels` carries hidden ground-truth annotations set by workload
/// generators — they are **never** exposed to agents or semantic operators
/// directly; only the simulated-LLM oracle (which stands in for a model
/// actually reading the text) consults them.
///
/// The content is shared, and what is a pure function of it — the visible
/// text, its lowered form, its table view, its line spans, the gram set of
/// its lowered form, its token count and its hash — is computed on first
/// use and kept (nothing is computed at load), so `content` and `kind` must
/// not be reassigned once the text has been read.
/// The per-label key hashes are kept the same way; `labels` is private so
/// that [`Document::with_label`], which drops those hashes, is the only way
/// to change it.
#[derive(Debug, Clone)]
pub struct Document {
    /// Stable identifier, unique within a lake.
    pub id: String,
    /// File name (used by list/read tools and filename heuristics).
    pub name: String,
    /// Content format.
    pub kind: DocKind,
    /// Raw file content.
    pub content: Arc<str>,
    /// Hidden ground-truth labels (oracle-only).
    labels: BTreeMap<String, Value>,
    memo: TextMemo,
}

/// Per-document memo of the pure functions of `content`; each slot is
/// filled the first time it is asked for. A clone carries the filled
/// slots.
#[derive(Debug, Clone, Default)]
struct TextMemo {
    stripped: OnceLock<Arc<str>>,
    lowered: OnceLock<Arc<str>>,
    table: OnceLock<TableView>,
    lines: OnceLock<Box<[Range<usize>]>>,
    /// The [`gram_set`] of the lowered text: 512 bytes, boxed so that a
    /// document no reader asks stays small.
    grams: OnceLock<Box<GramSet>>,
    tokens: OnceLock<usize>,
    hash: OnceLock<u64>,
    /// Functions of `labels`, not of `content`: cleared when a label is
    /// added.
    label_hashes: OnceLock<Box<[[u64; 2]]>>,
    difficulty: OnceLock<f64>,
}

/// A text read as a comma-separated table: what the simulated LLM's table
/// reader needs of it, so asking a table a second question re-reads
/// nothing. The reader that builds it lives above this crate
/// (`aida_llm::sim`); the default, with no columns, is "not a table".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableView {
    /// The header line's cells, each as the words a question is matched
    /// against.
    pub columns: Vec<Vec<String>>,
    /// Every data-line cell that can key a row, as its value and the
    /// line's byte range in the text, in line order.
    pub keys: Vec<(i64, Range<usize>)>,
}

impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.name == other.name
            && self.kind == other.kind
            && self.content == other.content
            && self.labels == other.labels
    }
}

impl Document {
    /// Creates a document, deriving `kind` from the file name.
    pub fn new(name: impl Into<String>, content: impl Into<String>) -> Self {
        let name = name.into();
        Document {
            id: name.clone(),
            kind: DocKind::from_name(&name),
            name,
            content: content.into().into(),
            labels: BTreeMap::new(),
            memo: TextMemo::default(),
        }
    }

    /// Builder-style ground-truth label insertion.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.labels.insert(key.into(), value.into());
        // A clone carries its original's filled slots.
        self.memo.label_hashes = OnceLock::new();
        self.memo.difficulty = OnceLock::new();
        self
    }

    /// Ground-truth label accessor (oracle-only).
    pub fn label(&self, key: &str) -> Option<&Value> {
        self.labels.get(key)
    }

    /// All ground-truth labels, in name order (oracle-only).
    pub fn labels(&self) -> &BTreeMap<String, Value> {
        &self.labels
    }

    /// The document's visible text, shared: HTML is stripped once, on
    /// first use; other kinds are the content itself. Borrow it as `&str`
    /// or clone the `Arc` — neither copies the text.
    pub fn shared_text(&self) -> &Arc<str> {
        match self.kind {
            DocKind::Html => self
                .memo
                .stripped
                .get_or_init(|| html::to_text(&self.content).into()),
            _ => &self.content,
        }
    }

    /// [`Document::shared_text`] with ASCII letters lowered, computed on
    /// first use and kept. Byte offsets into it are offsets into the text.
    /// A text with no ASCII uppercase letter is shared, not copied.
    pub fn lowered_text(&self) -> &Arc<str> {
        self.memo.lowered.get_or_init(|| {
            let text = self.shared_text();
            if text.bytes().any(|b| b.is_ascii_uppercase()) {
                text.to_ascii_lowercase().into()
            } else {
                Arc::clone(text)
            }
        })
    }

    /// `read(shared_text())`, computed on the first call and kept; like
    /// [`Document::text_tokens`], every caller must pass the same function
    /// (`aida_llm::sim`'s table reader).
    pub fn text_table(&self, read: fn(&str) -> TableView) -> &TableView {
        self.memo.table.get_or_init(|| read(self.shared_text()))
    }

    /// [`line_spans`] of [`Document::shared_text`], computed on first use
    /// and kept.
    pub fn line_spans(&self) -> &[Range<usize>] {
        self.memo
            .lines
            .get_or_init(|| line_spans(self.shared_text()).into())
    }

    /// The [`GramSet`] of [`Document::lowered_text`], computed on first
    /// use and kept: [`may_contain`] on it rules a lowered needle out of
    /// the lowered text without scanning it.
    pub fn grams(&self) -> &GramSet {
        self.memo
            .grams
            .get_or_init(|| Box::new(gram_set(self.lowered_text())))
    }

    /// An owned copy of [`Document::shared_text`].
    pub fn text(&self) -> String {
        self.shared_text().to_string()
    }

    /// `count(shared_text())`, computed on the first call and kept. The
    /// tokenizer lives above this crate (`aida_llm::tokens::count`); every
    /// caller must pass the same function.
    pub fn text_tokens(&self, count: fn(&str) -> usize) -> usize {
        *self.memo.tokens.get_or_init(|| count(self.shared_text()))
    }

    /// `hash(shared_text())`, computed on the first call and kept; the
    /// counterpart of [`Document::text_tokens`] for
    /// `aida_llm::noise::hash_str`.
    pub fn text_hash(&self, hash: fn(&str) -> u64) -> u64 {
        *self.memo.hash.get_or_init(|| hash(self.shared_text()))
    }

    /// `hash(name, value)` of every label, in label order, computed on the
    /// first call and kept; every caller must pass the same function
    /// (`aida_llm`'s cache-key label hash).
    pub fn label_hashes(&self, hash: fn(&str, &Value) -> [u64; 2]) -> &[[u64; 2]] {
        self.memo.label_hashes.get_or_init(|| {
            self.labels
                .iter()
                .map(|(name, value)| hash(name, value))
                .collect()
        })
    }

    /// `read(label("difficulty"))`, computed on the first call and kept;
    /// every caller must pass the same function (`aida_llm`'s subject
    /// difficulty).
    pub fn difficulty(&self, read: fn(Option<&Value>) -> f64) -> f64 {
        *self
            .memo
            .difficulty
            .get_or_init(|| read(self.label("difficulty")))
    }

    /// Parses structured tables out of the document (CSV body or HTML
    /// `<table>` elements). Text/email documents yield no tables.
    pub fn tables(&self) -> Result<Vec<Table>, DataError> {
        match self.kind {
            DocKind::Csv => Ok(vec![csv::parse_table(&self.content)?]),
            DocKind::Html => Ok(html::extract_tables(&self.content)),
            _ => Ok(Vec::new()),
        }
    }

    /// Approximate size in bytes (used by cost/latency models).
    pub fn size(&self) -> usize {
        self.content.len()
    }
}

/// The byte range in `text` of each line [`str::lines`] yields, in order.
pub fn line_spans(text: &str) -> Vec<Range<usize>> {
    text.lines()
        .map(|line| {
            let start = line.as_ptr() as usize - text.as_ptr() as usize;
            start..start + line.len()
        })
        .collect()
}

/// A text's 4-byte windows, each hashed to one of 4096 bits. It can only
/// rule a needle out, never in: see [`may_contain`].
pub type GramSet = [u64; 64];

/// The bit of [`GramSet`] a 4-byte window sets (a multiplicative hash's
/// top 12 bits).
fn gram_bit(window: &[u8]) -> usize {
    let window = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (window.wrapping_mul(0x9E37_79B1) >> 20) as usize
}

/// The [`GramSet`] of `text`: the bits of all its 4-byte windows, UTF-8
/// characters and line breaks straddled alike.
fn gram_set(text: &str) -> GramSet {
    let mut set = [0; 64];
    for window in text.as_bytes().windows(4) {
        let bit = gram_bit(window);
        set[bit / 64] |= 1 << (bit % 64);
    }
    set
}

/// False only when some 4-byte window of `needle` has its bit clear in
/// `set`, so when `set` is the [`GramSet`] of a text that contains
/// `needle`, this is true. A needle shorter than 4 bytes has no window
/// and is always a "maybe".
pub fn may_contain(set: &GramSet, needle: &str) -> bool {
    needle.as_bytes().windows(4).all(|window| {
        let bit = gram_bit(window);
        set[bit / 64] >> (bit % 64) & 1 == 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kind_from_extension() {
        assert_eq!(DocKind::from_name("a.csv"), DocKind::Csv);
        assert_eq!(DocKind::from_name("A.HTML"), DocKind::Html);
        assert_eq!(DocKind::from_name("m.eml"), DocKind::Email);
        assert_eq!(DocKind::from_name("notes.txt"), DocKind::Text);
        assert_eq!(DocKind::from_name("README"), DocKind::Text);
    }

    #[test]
    fn csv_document_yields_table() {
        let doc = Document::new("t.csv", "year,n\n2001,5\n");
        let tables = doc.tables().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].cell(0, "n"), Some(&Value::Int(5)));
    }

    #[test]
    fn labels_are_oracle_only_storage() {
        let doc = Document::new("m.eml", "Subject: x\n\nbody").with_label("relevant", true);
        assert_eq!(doc.label("relevant"), Some(&Value::Bool(true)));
        assert_eq!(doc.label("nope"), None);
    }

    #[test]
    fn lowered_text_shares_text_without_uppercase() {
        let plain = Document::new("a.txt", "no capitals, é");
        assert!(Arc::ptr_eq(plain.lowered_text(), plain.shared_text()));
        let mixed = Document::new("b.txt", "Mixed CASE É");
        assert_eq!(&**mixed.lowered_text(), "mixed case É");
        let page = Document::new("r.html", "<P>Total</P>");
        assert_eq!(page.lowered_text().trim(), "total");
    }

    #[test]
    fn label_hashes_follow_with_label_on_a_clone() {
        fn hash(name: &str, value: &Value) -> [u64; 2] {
            [
                name.len() as u64,
                value.as_float().unwrap_or(-1.0).to_bits(),
            ]
        }
        let doc = Document::new("a.txt", "x")
            .with_label("b", 2i64)
            .with_label("a", 1i64);
        assert_eq!(
            doc.label_hashes(hash),
            [hash("a", &1i64.into()), hash("b", &2i64.into())]
        );
        let relabelled = doc.clone().with_label("a", 3i64);
        assert_eq!(
            relabelled.label_hashes(hash),
            [hash("a", &3i64.into()), hash("b", &2i64.into())]
        );
        assert_eq!(doc.label_hashes(hash)[0], hash("a", &1i64.into()));
    }

    #[test]
    fn line_spans_are_the_lines() {
        for text in ["", "a", "a\n", "a\r\nb\rc\n\nd", "\n\r\n", "x\r"] {
            let doc = Document::new("a.txt", text);
            let lines: Vec<&str> = doc.line_spans().iter().map(|s| &text[s.clone()]).collect();
            assert_eq!(lines, text.lines().collect::<Vec<_>>(), "{text:?}");
        }
    }

    #[test]
    fn the_gram_set_is_the_lowered_texts_and_survives_clone_and_relabel() {
        for (name, text) in [
            ("a.txt", "Identity THEFT reports, 2024\nStraße é ٣"),
            ("r.html", "<P>Total &amp; Breakdown</P>"),
            ("s.txt", "abc"),
        ] {
            let doc = Document::new(name, text);
            assert_eq!(doc.grams(), &gram_set(doc.lowered_text()), "{name}");
            let filled = |doc: &Document| doc.memo.grams.get().cloned();
            let copy = doc.clone();
            assert_eq!(filled(&copy), filled(&doc));
            assert_eq!(filled(&copy.with_label("relevant", true)), filled(&doc));
        }
        assert_eq!(gram_set("abc"), [0; 64]);
    }

    /// What the soundness property's texts and random needles are made of:
    /// ASCII words and punctuation, whitespace and line breaks, and two-
    /// and three-byte characters.
    const PIECES: &[&str] = &[
        "theft", "the", "reports", "2024", "a", "é", "٣", "ß", "€", " ", ",", "\n", "\r\n",
    ];

    fn pieces(len: Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec(0..PIECES.len(), len)
            .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 512 } else { 8192 }
        ))]
        /// Soundness: `text.contains(needle)` implies `may_contain`, for
        /// needles cut from the text (0 to 12 bytes, on character
        /// boundaries, non-ASCII included) and drawn at random.
        #[test]
        fn a_gram_set_never_rules_out_a_present_needle(
            text in pieces(0..200),
            cuts in prop::collection::vec((0usize..4096, 0usize..12), 8..9),
            random in prop::collection::vec(pieces(1..4), 8..9),
        ) {
            let set = gram_set(&text);
            for (at, len) in cuts {
                let mut start = at % (text.len() + 1);
                while !text.is_char_boundary(start) {
                    start -= 1;
                }
                let mut end = (start + len).min(text.len());
                while !text.is_char_boundary(end) {
                    end += 1;
                }
                let needle = &text[start..end];
                prop_assert!(may_contain(&set, needle), "{needle:?} in {text:?}");
            }
            for needle in &random {
                prop_assert!(!text.contains(needle.as_str()) || may_contain(&set, needle));
            }
        }
    }

    #[test]
    fn html_text_strips_markup() {
        let doc = Document::new("r.html", "<p>Total &amp; breakdown</p>");
        assert_eq!(doc.text().trim(), "Total & breakdown");
    }
}
