//! Inverted keyword index with BM25 ranking.
//!
//! Used as the "secondary index over a data lake" tool the paper mentions:
//! agents search it instead of grepping every file. Documents are
//! tokenized into lowercase alphanumeric terms; scoring is classic
//! Okapi BM25 (k1 = 1.2, b = 0.75).

use crate::topk::TopK;
use crate::Hit;
use std::collections::HashMap;

const K1: f32 = 1.2;
const B: f32 = 0.75;

/// An inverted keyword index.
#[derive(Debug, Clone, Default)]
pub struct KeywordIndex {
    // term -> postings of (doc index, term frequency)
    postings: HashMap<String, Vec<(usize, u32)>>,
    ids: Vec<String>,
    doc_lens: Vec<u32>,
    total_len: u64,
}

fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() > 1)
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

impl KeywordIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a document's text under an id. Re-adding an id is not
    /// supported (build once per lake snapshot).
    pub fn add(&mut self, id: &str, text: &str) {
        let doc = self.ids.len();
        self.ids.push(id.to_string());
        let terms = tokenize(text);
        let mut tf: HashMap<String, u32> = HashMap::new();
        for t in &terms {
            *tf.entry(t.clone()).or_insert(0) += 1;
        }
        for (term, count) in tf {
            self.postings.entry(term).or_default().push((doc, count));
        }
        self.doc_lens.push(terms.len() as u32);
        self.total_len += terms.len() as u64;
    }

    /// Number of documents indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the index has no documents.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// BM25 search; returns up to `k` hits, best first. Documents matching
    /// no query term are never returned.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let n = self.ids.len();
        if n == 0 {
            return Vec::new();
        }
        let avg_len = (self.total_len as f32 / n as f32).max(1.0);
        let mut scores: HashMap<usize, f32> = HashMap::new();
        for term in tokenize(query) {
            let Some(posting) = self.postings.get(&term) else {
                continue;
            };
            let df = posting.len() as f32;
            let idf = ((n as f32 - df + 0.5) / (df + 0.5) + 1.0).ln();
            for (doc, tf) in posting {
                let tf = *tf as f32;
                let len_norm = 1.0 - B + B * self.doc_lens[*doc] as f32 / avg_len;
                let term_score = idf * (tf * (K1 + 1.0)) / (tf + K1 * len_norm);
                *scores.entry(*doc).or_insert(0.0) += term_score;
            }
        }
        let mut topk = TopK::new(k);
        // Deterministic iteration order: by doc index.
        let mut entries: Vec<(usize, f32)> = scores.into_iter().collect();
        entries.sort_unstable_by_key(|(doc, _)| *doc);
        for (doc, score) in entries {
            topk.push(score, doc);
        }
        topk.into_sorted_vec()
            .into_iter()
            .map(|(score, doc)| Hit {
                id: self.ids[doc].clone(),
                score,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KeywordIndex {
        /// Document frequency of a term.
        fn df(&self, term: &str) -> usize {
            self.postings
                .get(&term.to_ascii_lowercase())
                .map_or(0, Vec::len)
        }
    }

    fn build() -> KeywordIndex {
        let mut idx = KeywordIndex::new();
        idx.add(
            "national.csv",
            "national identity theft and fraud reports by year 2001 2024",
        );
        idx.add("alabama.csv", "alabama state fraud reports 2024");
        idx.add("pipeline.txt", "natural gas pipeline maintenance schedule");
        idx.add("trends.html", "identity theft trends over two decades");
        idx
    }

    #[test]
    fn search_ranks_relevant_docs_first() {
        let idx = build();
        let hits = idx.search("identity theft reports", 4);
        assert_eq!(hits[0].id, "national.csv");
        assert!(hits.iter().all(|h| h.id != "pipeline.txt"));
    }

    #[test]
    fn rare_terms_outweigh_common_terms() {
        let mut idx = KeywordIndex::new();
        for i in 0..20 {
            idx.add(&format!("common{i}"), "reports reports reports");
        }
        idx.add("rare", "reports unicorn");
        let hits = idx.search("unicorn reports", 1);
        assert_eq!(hits[0].id, "rare");
    }

    #[test]
    fn no_matching_terms_returns_empty() {
        let idx = build();
        assert!(idx.search("zzzz qqqq", 5).is_empty());
        assert!(idx.search("", 5).is_empty());
    }

    #[test]
    fn empty_index_is_safe() {
        let idx = KeywordIndex::new();
        assert!(idx.search("anything", 3).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let idx = build();
        assert_eq!(idx.df("identity"), 2);
        assert_eq!(idx.df("IDENTITY"), 2);
        assert_eq!(idx.df("unicorn"), 0);
    }

    #[test]
    fn k_bounds_results() {
        let idx = build();
        assert_eq!(idx.search("reports", 1).len(), 1);
        assert!(idx.search("reports", 10).len() >= 2);
    }

    #[test]
    fn single_char_tokens_ignored() {
        let mut idx = KeywordIndex::new();
        idx.add("d", "a b c real words");
        assert_eq!(idx.df("a"), 0);
        assert_eq!(idx.df("real"), 1);
    }
}
