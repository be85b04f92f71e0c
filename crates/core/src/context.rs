//! The `Context` abstraction.
//!
//! A `Context` generalizes the Palimpzest `Dataset`: it still supports
//! iterator execution (via [`Context::dataset`]), and adds the access
//! methods and metadata agents need — a natural-language description,
//! key-based point lookups, vector search over document embeddings, and
//! user-registered tools.

use crate::runtime::Runtime;
use aida_agents::{tools::LakeTools, Tool, ToolRegistry};
use aida_data::{DataLake, Table};
use aida_index::{FlatIndex, KeyIndex, VectorIndex};
use aida_semops::Dataset;
use std::sync::Arc;

/// A described, indexable, tool-carrying dataset.
#[derive(Clone)]
pub struct Context {
    /// Stable identifier (unique per materialization).
    pub id: String,
    /// Natural-language description of the contents — agents read this to
    /// decide how to access the data, and `search` operators enrich it.
    pub description: String,
    lake: DataLake,
    key_index: Arc<KeyIndex>,
    vector_index: Option<Arc<dyn VectorIndex>>,
    lake_tools: LakeTools,
    tools: ToolRegistry,
    /// Structured findings attached by a `search`/`compute` execution.
    pub findings: Option<Arc<Table>>,
}

impl Context {
    /// Starts building a context over a lake.
    pub fn builder(id: impl Into<String>, lake: DataLake) -> ContextBuilder {
        ContextBuilder {
            id: id.into(),
            description: String::new(),
            lake,
            key_pairs: Vec::new(),
            vector_index: false,
            tools: Vec::new(),
        }
    }

    /// The underlying data lake.
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.lake.len()
    }

    /// True when the context holds no documents.
    pub fn is_empty(&self) -> bool {
        self.lake.is_empty()
    }

    /// Iterator execution: the context as a semantic-operator dataset
    /// (this is the "inherits from Dataset" half of the abstraction).
    pub fn dataset(&self) -> Dataset {
        Dataset::scan(&self.lake, self.id.clone())
    }

    /// Key-based point lookup (registered via the builder).
    pub fn lookup(&self, key: &str) -> &[String] {
        self.key_index.get(key)
    }

    /// Vector search over document embeddings; empty when the context was
    /// built without an embedding index.
    pub fn vector_search(&self, runtime: &Runtime, query: &str, k: usize) -> Vec<String> {
        match &self.vector_index {
            Some(index) => {
                let q = runtime.env().embedder.embed(query);
                index.search(&q, k).into_iter().map(|h| h.id).collect()
            }
            None => Vec::new(),
        }
    }

    /// The lake's standard tools and the keyword index behind
    /// `search_keywords` — built on that tool's first call, then shared by
    /// every clone and un-narrowed materialization of this context.
    pub fn lake_tools(&self) -> &LakeTools {
        &self.lake_tools
    }

    /// User-registered tools.
    pub fn tools(&self) -> &ToolRegistry {
        &self.tools
    }

    /// Derives a new materialized context: a (possibly narrowed) lake with
    /// an enriched description, inheriting indexes/tools where the lake is
    /// unchanged.
    pub fn materialize(
        &self,
        id: impl Into<String>,
        description: String,
        lake: Option<DataLake>,
        findings: Option<Table>,
    ) -> Context {
        let narrowed = lake.is_some();
        // Access paths describe the original lake: a narrowed lake starts
        // fresh ones, an unchanged lake shares them.
        let lake_tools = match &lake {
            Some(lake) => LakeTools::new(lake),
            None => self.lake_tools.clone(),
        };
        Context {
            id: id.into(),
            description,
            lake: lake.unwrap_or_else(|| self.lake.clone()),
            key_index: if narrowed {
                Arc::new(KeyIndex::new())
            } else {
                Arc::clone(&self.key_index)
            },
            vector_index: if narrowed {
                None
            } else {
                self.vector_index.clone()
            },
            lake_tools,
            tools: self.tools.clone(),
            findings: findings.map(Arc::new),
        }
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Context(id={}, docs={}, vectors={}, keys={}, desc={:?})",
            self.id,
            self.lake.len(),
            self.vector_index.is_some(),
            self.key_index.len(),
            self.description.chars().take(60).collect::<String>()
        )
    }
}

/// Builder for [`Context`].
pub struct ContextBuilder {
    id: String,
    description: String,
    lake: DataLake,
    key_pairs: Vec<(String, String)>,
    vector_index: bool,
    tools: Vec<Arc<dyn Tool>>,
}

impl ContextBuilder {
    /// Sets the natural-language description.
    pub fn description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }

    /// Registers a key → document-name pair for point lookups.
    pub fn key(mut self, key: impl Into<String>, doc: impl Into<String>) -> Self {
        self.key_pairs.push((key.into(), doc.into()));
        self
    }

    /// Registers keys derived from each document (e.g. filename tokens).
    pub fn keys_from(mut self, derive: impl Fn(&aida_data::Document) -> Vec<String>) -> Self {
        for doc in self.lake.docs() {
            for key in derive(doc) {
                self.key_pairs.push((key, doc.name.clone()));
            }
        }
        self
    }

    /// Builds an exact (flat) embedding index over document text at
    /// `build` time — the right choice below a few thousand documents.
    pub fn with_vector_index(mut self) -> Self {
        self.vector_index = true;
        self
    }

    /// Registers a user tool.
    pub fn tool(mut self, tool: Arc<dyn Tool>) -> Self {
        self.tools.push(tool);
        self
    }

    /// Builds the context (embedding the lake if requested).
    pub fn build(self, runtime: &Runtime) -> Context {
        let mut key_index = KeyIndex::new();
        for (key, doc) in &self.key_pairs {
            key_index.insert(key, doc);
        }
        let vector_index = self
            .vector_index
            .then(|| Arc::new(embed_lake(&self.lake, runtime)) as Arc<dyn VectorIndex>);
        let mut tools = ToolRegistry::new();
        for tool in self.tools {
            tools.register(tool);
        }
        Context {
            id: self.id,
            description: self.description,
            lake_tools: LakeTools::new(&self.lake),
            lake: self.lake,
            key_index: Arc::new(key_index),
            vector_index,
            tools,
            findings: None,
        }
    }
}

/// How many characters of a document's text its embedding reads.
const EMBED_PREFIX_CHARS: usize = 2_000;

/// A flat index over a bounded prefix of every document's visible text
/// (its first [`EMBED_PREFIX_CHARS`] characters): enough signal, bounded
/// work.
fn embed_lake(lake: &DataLake, runtime: &Runtime) -> FlatIndex {
    let mut index = FlatIndex::new();
    for doc in lake.docs() {
        let text = doc.shared_text();
        let prefix = char_prefix(text, EMBED_PREFIX_CHARS);
        index.add(&doc.name, runtime.env().embedder.embed(prefix));
    }
    index
}

/// The first `n` characters of `text`. A text of at most `n` bytes is
/// its own prefix, and so are `n` ASCII bytes; only a text with a
/// non-ASCII byte among its first `n` has its characters counted.
fn char_prefix(text: &str, n: usize) -> &str {
    match text.as_bytes().get(..n) {
        None => text,
        Some(head) if head.is_ascii() => &text[..n],
        Some(_) => text.char_indices().nth(n).map_or(text, |(i, _)| &text[..i]),
    }
}

#[cfg(test)]
#[path = "../../data/tests/common/html_oracle.rs"]
mod html_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use aida_agents::{FnTool, ToolSpec};
    use aida_data::{DocKind, Document};
    use aida_script::ScriptValue;

    fn lake() -> DataLake {
        DataLake::from_docs([
            Document::new("theft_2024.csv", "identity theft reports in 2024: 1135291"),
            Document::new("gas.txt", "pipeline maintenance schedule"),
        ])
    }

    #[test]
    fn context_is_a_dataset() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .description("test lake")
            .build(&rt);
        let ds = ctx.dataset();
        assert_eq!(ds.plan().len(), 1);
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.description, "test lake");
    }

    #[test]
    fn key_lookup() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .key("2024", "theft_2024.csv")
            .keys_from(|doc| vec![doc.name.split('.').next().unwrap_or("").to_string()])
            .build(&rt);
        assert_eq!(ctx.lookup("2024"), ["theft_2024.csv"]);
        assert_eq!(ctx.lookup("gas"), ["gas.txt"]);
        assert!(ctx.lookup("1999").is_empty());
    }

    #[test]
    fn vector_search_finds_relevant_doc() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .with_vector_index()
            .build(&rt);
        let hits = ctx.vector_search(&rt, "identity theft statistics 2024", 1);
        assert_eq!(hits, vec!["theft_2024.csv"]);
        // Without an index, search returns nothing.
        let bare = Context::builder("lake", lake()).build(&rt);
        assert!(bare.vector_search(&rt, "anything", 3).is_empty());
    }

    #[test]
    fn keyword_index_is_built_once_on_first_search_and_shared() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake()).build(&rt);
        let clone = ctx.clone();
        let same = ctx.materialize("lake/1", "enriched".into(), None, None);
        let narrow = DataLake::from_arcs([Arc::clone(lake().get("gas.txt").unwrap())]);
        let narrowed = ctx.materialize("lake/2", "narrowed".into(), Some(narrow), None);
        assert!(ctx.lake_tools().keyword_index().is_none());

        let search = |c: &Context| {
            let tools = c.lake_tools().tools();
            let tool = tools.iter().find(|t| t.spec().name == "search_keywords");
            let args = [ScriptValue::str("identity theft"), ScriptValue::Int(2)];
            tool.unwrap()
                .call(&args, &Default::default())
                .unwrap()
                .to_string()
        };
        let hits = search(&clone);
        let built = ctx.lake_tools().keyword_index().expect("first call builds");
        assert_eq!(hits, "['theft_2024.csv']");
        // One index: later calls, clones and un-narrowed materializations
        // all see the same allocation; a narrowed lake starts its own.
        assert_eq!(search(&same), hits);
        for c in [&ctx, &clone, &same] {
            assert!(std::ptr::eq(c.lake_tools().keyword_index().unwrap(), built));
        }
        assert!(narrowed.lake_tools().keyword_index().is_none());
        assert_eq!(search(&narrowed), "[]");
        assert!(!std::ptr::eq(
            narrowed.lake_tools().keyword_index().unwrap(),
            built
        ));
    }

    #[test]
    fn custom_tools_attach() {
        let rt = Runtime::builder().build();
        let tool = Arc::new(FnTool::new(
            ToolSpec::new("resample", "resample(freq)", "resamples the time series"),
            |_| Ok(ScriptValue::None),
        ));
        let ctx = Context::builder("lake", lake()).tool(tool).build(&rt);
        assert!(ctx.tools().get("resample").is_some());
    }

    #[test]
    fn materialize_narrows_and_enriches() {
        let rt = Runtime::builder().build();
        let ctx = Context::builder("lake", lake())
            .with_vector_index()
            .build(&rt);
        let narrow = DataLake::from_arcs([Arc::clone(lake().get("theft_2024.csv").unwrap())]);
        let derived = ctx.materialize(
            "lake/1",
            "FINDINGS: thefts in 2024".into(),
            Some(narrow),
            None,
        );
        assert_eq!(derived.len(), 1);
        assert!(derived.description.contains("FINDINGS"));
        // Narrowed contexts drop the (now stale) vector index.
        assert!(derived.vector_search(&rt, "anything", 1).is_empty());
        // Un-narrowed materializations keep it.
        let same = ctx.materialize("lake/2", "enriched".into(), None, None);
        assert!(!same.vector_search(&rt, "identity theft", 1).is_empty());
    }

    /// `embed_lake`'s prefix as it was: the first `n` chars, counted one
    /// by one.
    fn parent_prefix(text: &str, n: usize) -> &str {
        let end = text.char_indices().nth(n).map_or(text.len(), |(i, _)| i);
        &text[..end]
    }

    /// `Embedder::embed` as it was before the one-pass walk: the words of
    /// a `char` split, each hashed on its own and again as the second word
    /// of a bigram, bucketed with `%`.
    fn parent_embed(dims: usize, text: &str) -> Vec<f32> {
        fn fnv1a_lowercase(h: u64, word: &str) -> u64 {
            word.bytes().fold(h, |h, b| {
                (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }
        let mut v = vec![0f32; dims];
        let mut bump = |h: u64, weight: f32| {
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[(h % dims as u64) as usize] += sign * weight;
        };
        let mut previous = None;
        for word in text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|w| !w.is_empty())
        {
            let state = fnv1a_lowercase(0xcbf2_9ce4_8422_2325, word);
            bump(aida_llm::noise::splitmix64(state), 1.0);
            if let Some(first) = previous {
                let pair = fnv1a_lowercase(fnv1a_lowercase(first, " "), word);
                bump(aida_llm::noise::splitmix64(pair), 0.5);
            }
            previous = Some(state);
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in v.iter_mut() {
                *x /= norm;
            }
        }
        v
    }

    #[test]
    fn every_real_document_strips_and_embeds_as_before() {
        use aida_synth::{enron, legal};
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 1..=4 {
            for lake in [legal::generate(seed).lake, enron::generate(seed).lake] {
                let rt = Runtime::builder().seed(seed).build();
                let ctx = Context::builder("lake", lake)
                    .with_vector_index()
                    .build(&rt);
                assert_eq!(ctx.vector_index.as_ref().map(|i| i.len()), Some(ctx.len()));
                let dims = rt.env().embedder.embed("").len();
                let index = embed_lake(ctx.lake(), &rt);
                for doc in ctx.lake().docs() {
                    if doc.kind == DocKind::Html {
                        let want = html_oracle::to_text_oracle(&doc.content);
                        assert_eq!(**doc.shared_text(), *want, "{}", doc.name);
                    }
                    let want = parent_embed(dims, parent_prefix(doc.shared_text(), 2_000));
                    let got = index.get(&doc.name).expect("every document is indexed");
                    assert_eq!(bits(got), bits(&want), "seed {seed}, {}", doc.name);
                }
            }
        }
    }

    mod prefix {
        use super::*;
        use proptest::prelude::*;

        const CASES: u32 = if cfg!(debug_assertions) { 512 } else { 8192 };

        /// Texts around the prefix's length, all-ASCII or with a few
        /// multi-byte characters anywhere in them, and short texts for
        /// small prefixes.
        fn text() -> impl Strategy<Value = String> {
            prop_oneof![
                "[a-z ]{1990,2010}",
                ("[a-z ]{0,2010}", "[é日—]{1,3}", "[a-z ]{0,40}")
                    .prop_map(|(a, b, c)| format!("{a}{b}{c}")),
                "[a-zé日 ]{1990,2010}",
                "[a-zé日 ]{0,14}",
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(CASES))]
            #[test]
            fn the_prefix_is_the_first_chars(text in text(), small in 0usize..12) {
                for n in [EMBED_PREFIX_CHARS, small] {
                    prop_assert_eq!(char_prefix(&text, n), parent_prefix(&text, n));
                }
            }
        }
    }
}
