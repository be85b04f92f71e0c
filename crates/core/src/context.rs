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

/// A flat index over a bounded prefix of every document: enough signal,
/// bounded work.
fn embed_lake(lake: &DataLake, runtime: &Runtime) -> FlatIndex {
    let mut index = FlatIndex::new();
    for doc in lake.docs() {
        let text = doc.shared_text();
        let end = text
            .char_indices()
            .nth(2_000)
            .map_or(text.len(), |(i, _)| i);
        index.add(&doc.name, runtime.env().embedder.embed(&text[..end]));
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_agents::{FnTool, ToolSpec};
    use aida_data::Document;
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
}
