//! Documents: named files in the unstructured data lake.

use crate::html;
use crate::table::Table;
use crate::value::Value;
use crate::{csv, DataError};
use std::collections::BTreeMap;
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
/// text, its token count and its hash — is computed on first use and kept
/// (nothing is computed at load), so `content` and `kind` must not be
/// reassigned once the text has been read.
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
    pub labels: BTreeMap<String, Value>,
    memo: TextMemo,
}

/// Per-document memo of the pure functions of `content`; each slot is
/// filled the first time it is asked for.
#[derive(Debug, Clone, Default)]
struct TextMemo {
    stripped: OnceLock<Arc<str>>,
    tokens: OnceLock<usize>,
    hash: OnceLock<u64>,
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
        self
    }

    /// Ground-truth label accessor (oracle-only).
    pub fn label(&self, key: &str) -> Option<&Value> {
        self.labels.get(key)
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn html_text_strips_markup() {
        let doc = Document::new("r.html", "<p>Total &amp; breakdown</p>");
        assert_eq!(doc.text().trim(), "Total & breakdown");
    }
}
