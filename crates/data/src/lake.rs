//! The data lake: a named collection of documents.

use crate::document::Document;
use std::collections::HashMap;
use std::sync::Arc;

/// An in-memory data lake with O(1) name lookup.
///
/// Documents are stored in insertion order (list tools return a stable
/// ordering) behind `Arc` so scans can share them without cloning content.
/// The lake itself is shared too: cloning one is O(1), and a clone that is
/// then added to copies the name table first.
#[derive(Debug, Clone, Default)]
pub struct DataLake {
    inner: Arc<Inner>,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    docs: Vec<Arc<Document>>,
    by_name: HashMap<String, usize>,
}

impl DataLake {
    /// Creates an empty lake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a lake from documents.
    pub fn from_docs(docs: impl IntoIterator<Item = Document>) -> Self {
        Self::from_arcs(docs.into_iter().map(Arc::new))
    }

    /// Builds a lake that shares already-loaded documents (and whatever
    /// they have memoized) instead of copying them.
    pub fn from_arcs(docs: impl IntoIterator<Item = Arc<Document>>) -> Self {
        let mut lake = DataLake::new();
        for doc in docs {
            lake.add_arc(doc);
        }
        lake
    }

    /// Adds a document; a document with the same name replaces the old one.
    pub fn add(&mut self, doc: Document) {
        self.add_arc(Arc::new(doc));
    }

    fn add_arc(&mut self, doc: Arc<Document>) {
        let inner = Arc::make_mut(&mut self.inner);
        match inner.by_name.get(&doc.name) {
            Some(&idx) => inner.docs[idx] = doc,
            None => {
                inner.by_name.insert(doc.name.clone(), inner.docs.len());
                inner.docs.push(doc);
            }
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.docs.len()
    }

    /// True when the lake holds no documents.
    pub fn is_empty(&self) -> bool {
        self.inner.docs.is_empty()
    }

    /// All documents in insertion order.
    pub fn docs(&self) -> &[Arc<Document>] {
        &self.inner.docs
    }

    /// Lookup by file name.
    pub fn get(&self, name: &str) -> Option<&Arc<Document>> {
        self.inner
            .by_name
            .get(name)
            .map(|&idx| &self.inner.docs[idx])
    }

    /// File names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.inner.docs.iter().map(|d| d.name.as_str()).collect()
    }

    /// Total content bytes across all documents.
    pub fn total_bytes(&self) -> usize {
        self.inner.docs.iter().map(|d| d.size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lake() -> DataLake {
        DataLake::from_docs([
            Document::new("national.csv", "year,n\n2001,5\n"),
            Document::new("alabama.csv", "year,n\n2024,2\n"),
            Document::new("report.html", "<p>hi</p>"),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let lake = lake();
        assert!(lake.get("national.csv").is_some());
        assert!(lake.get("missing.csv").is_none());
        assert_eq!(lake.len(), 3);
    }

    #[test]
    fn from_arcs_shares_documents_and_clones_copy_on_write() {
        let lake = lake();
        let csvs = lake.docs().iter().filter(|d| d.name.ends_with(".csv"));
        let narrowed = DataLake::from_arcs(csvs.cloned());
        assert_eq!(narrowed.names(), vec!["national.csv", "alabama.csv"]);
        for doc in narrowed.docs() {
            assert!(Arc::ptr_eq(doc, lake.get(&doc.name).unwrap()));
        }
        // Adding to a clone leaves the original untouched.
        let mut grown = lake.clone();
        grown.add(Document::new("new.txt", "x"));
        assert_eq!((lake.len(), grown.len()), (3, 4));
        assert!(lake.get("new.txt").is_none());
    }

    #[test]
    fn add_replaces_same_name() {
        let mut lake = lake();
        lake.add(Document::new("national.csv", "year,n\n2001,9\n"));
        assert_eq!(lake.len(), 3);
        assert!(lake.get("national.csv").unwrap().content.contains("9"));
    }

    #[test]
    fn names_preserve_insertion_order() {
        let lake = lake();
        assert_eq!(
            lake.names(),
            vec!["national.csv", "alabama.csv", "report.html"]
        );
    }

    #[test]
    fn total_bytes_sums_content() {
        let lake = DataLake::from_docs([Document::new("a.txt", "abcd")]);
        assert_eq!(lake.total_bytes(), 4);
    }
}
