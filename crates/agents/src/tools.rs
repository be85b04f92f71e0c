//! Standard tool implementations.
//!
//! * Lake tools: `list_files`, `read_file`, `search_keywords` — free (the
//!   cost is paid when their output enters the next planning prompt).
//! * `final_answer` — stores the agent's answer and ends the run.
//! * Semantic-operator tools (`sem_filter_tool`, `sem_extract_tool`) — the
//!   *unoptimized* per-file LLM operations given to CodeAgent+: every call
//!   runs sequentially at a fixed model with no batching, no model
//!   selection, and no operator reordering.

use crate::tool::{FnTool, Tool, ToolSpec};
use aida_data::{DataLake, Value};
use aida_index::KeywordIndex;
use aida_llm::oracle::Subject;
use aida_llm::{LlmTask, ModelId};
use aida_script::{ScriptError, ScriptValue};
use aida_semops::ExecEnv;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// A shared slot the `final_answer` tool writes into.
#[derive(Debug, Clone, Default)]
pub struct AnswerCell {
    inner: Arc<Mutex<Option<Value>>>,
}

impl AnswerCell {
    /// Creates an empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stored answer, if any.
    pub fn get(&self) -> Option<Value> {
        self.inner.lock().clone()
    }

    /// True once an answer was submitted.
    pub fn is_set(&self) -> bool {
        self.inner.lock().is_some()
    }

    /// Clears the cell (for reuse across trials).
    pub fn reset(&self) {
        *self.inner.lock() = None;
    }

    fn set(&self, value: Value) {
        *self.inner.lock() = Some(value);
    }
}

/// The three standard lake tools (`list_files`, `read_file`,
/// `search_keywords`) and the BM25 index behind the last one. The index is
/// an access path of the lake, not of any one operator: it is built on the
/// first `search_keywords` call and shared by every clone.
#[derive(Clone)]
pub struct LakeTools {
    tools: Vec<Arc<dyn Tool>>,
    index: Arc<OnceLock<KeywordIndex>>,
}

impl LakeTools {
    /// Builds the tools over `lake`; indexes nothing yet.
    pub fn new(lake: &DataLake) -> Self {
        let list_lake = lake.clone();
        let list_files: Arc<dyn Tool> = Arc::new(FnTool::new(
            ToolSpec::new(
                "list_files",
                "list_files() -> list[str]",
                "returns the names of every file in the data lake",
            ),
            move |_args| {
                Ok(ScriptValue::list(
                    list_lake
                        .docs()
                        .iter()
                        .map(|d| ScriptValue::str(d.name.as_str()))
                        .collect(),
                ))
            },
        ));

        let read_lake = lake.clone();
        let read_file: Arc<dyn Tool> = Arc::new(FnTool::new(
            ToolSpec::new(
                "read_file",
                "read_file(name: str) -> str",
                "returns the full text content of a file",
            ),
            move |args| {
                let name = args
                    .first()
                    .ok_or_else(|| ScriptError::host("read_file needs a file name"))?
                    .as_str()?;
                let doc = read_lake
                    .get(name)
                    .ok_or_else(|| ScriptError::host(format!("no such file: {name}")))?;
                Ok(ScriptValue::str(&**doc.shared_text()))
            },
        ));

        let index = Arc::new(OnceLock::new());
        let (search_lake, search_index) = (lake.clone(), Arc::clone(&index));
        let search_keywords: Arc<dyn Tool> = Arc::new(FnTool::new(
            ToolSpec::new(
                "search_keywords",
                "search_keywords(query: str, k: int) -> list[str]",
                "BM25 keyword search over the lake; returns the top-k file names",
            ),
            move |args| {
                let query = args
                    .first()
                    .ok_or_else(|| ScriptError::host("search_keywords needs a query"))?
                    .as_str()?;
                let k = args
                    .get(1)
                    .map(|v| v.as_int())
                    .transpose()?
                    .unwrap_or(5)
                    .max(1) as usize;
                let index = search_index.get_or_init(|| keyword_index(&search_lake));
                Ok(ScriptValue::list(
                    index
                        .search(query, k)
                        .into_iter()
                        .map(|hit| ScriptValue::str(hit.id))
                        .collect(),
                ))
            },
        ));

        LakeTools {
            tools: vec![list_files, read_file, search_keywords],
            index,
        }
    }

    /// The tools, in registration order.
    pub fn tools(&self) -> &[Arc<dyn Tool>] {
        &self.tools
    }

    /// The keyword index, once a `search_keywords` call has built it.
    pub fn keyword_index(&self) -> Option<&KeywordIndex> {
        self.index.get()
    }
}

/// BM25 index over the visible text of every document in `lake`.
fn keyword_index(lake: &DataLake) -> KeywordIndex {
    let mut index = KeywordIndex::new();
    for doc in lake.docs() {
        index.add(&doc.name, doc.shared_text());
    }
    index
}

/// Builds the three standard lake tools (see [`LakeTools`]).
pub fn lake_tools(lake: &DataLake) -> Vec<Arc<dyn Tool>> {
    LakeTools::new(lake).tools
}

/// Builds the `final_answer` tool writing into `cell`.
pub fn final_answer_tool(cell: &AnswerCell) -> Arc<dyn Tool> {
    let cell = cell.clone();
    Arc::new(FnTool::new(
        ToolSpec::new(
            "final_answer",
            "final_answer(answer) -> None",
            "submits the final answer and ends the task",
        ),
        move |args| {
            let value = args.first().cloned().unwrap_or(ScriptValue::None);
            cell.set(value.to_data()?);
            Ok(ScriptValue::None)
        },
    ))
}

/// Builds the unoptimized semantic-filter tool for CodeAgent+.
///
/// `sem_filter_tool(instruction, filenames)` runs one LLM filter call per
/// file, **sequentially**, at a fixed model — the paper's "semantic
/// operators as tools" configuration with none of Palimpzest's optimized
/// execution.
pub fn sem_filter_tool(env: &ExecEnv, lake: &DataLake, model: ModelId) -> Arc<dyn Tool> {
    let env = env.clone();
    let lake = lake.clone();
    Arc::new(FnTool::new(
        ToolSpec::new(
            "sem_filter_tool",
            "sem_filter_tool(instruction: str, filenames: list[str]) -> list[str]",
            "applies a natural-language filter to each file with an LLM; returns matches",
        ),
        move |args| {
            let instruction = args
                .first()
                .ok_or_else(|| ScriptError::host("sem_filter_tool needs an instruction"))?
                .as_str()?
                .to_string();
            let names = name_list(args.get(1))?;
            let mut kept = Vec::new();
            for name in names {
                let doc = lake
                    .get(&name)
                    .ok_or_else(|| ScriptError::host(format!("no such file: {name}")))?;
                let resp = env.llm.invoke(
                    model,
                    &LlmTask::Filter {
                        instruction: &instruction,
                        subject: Subject::doc(doc),
                    },
                );
                env.clock.advance(resp.latency_s); // sequential: no batching
                if resp.value.truthy() {
                    kept.push(ScriptValue::str(name));
                }
            }
            Ok(ScriptValue::list(kept))
        },
    ))
}

/// Builds the unoptimized semantic-extraction tool for CodeAgent+.
///
/// `sem_extract_tool(instruction, field, filenames)` runs one LLM
/// extraction per file, sequentially, at a fixed model; returns one value
/// per file.
pub fn sem_extract_tool(env: &ExecEnv, lake: &DataLake, model: ModelId) -> Arc<dyn Tool> {
    let env = env.clone();
    let lake = lake.clone();
    Arc::new(FnTool::new(
        ToolSpec::new(
            "sem_extract_tool",
            "sem_extract_tool(instruction: str, field: str, filenames: list[str]) -> list",
            "extracts a field from each file with an LLM; returns one value per file",
        ),
        move |args| {
            let instruction = args
                .first()
                .ok_or_else(|| ScriptError::host("sem_extract_tool needs an instruction"))?
                .as_str()?
                .to_string();
            let field = args
                .get(1)
                .ok_or_else(|| ScriptError::host("sem_extract_tool needs a field name"))?
                .as_str()?
                .to_string();
            let names = name_list(args.get(2))?;
            let mut out = Vec::new();
            for name in names {
                let doc = lake
                    .get(&name)
                    .ok_or_else(|| ScriptError::host(format!("no such file: {name}")))?;
                let resp = env.llm.invoke(
                    model,
                    &LlmTask::Extract {
                        instruction: &instruction,
                        field: &field,
                        field_desc: "",
                        subject: Subject::doc(doc),
                    },
                );
                env.clock.advance(resp.latency_s);
                out.push(ScriptValue::from_data(&resp.value));
            }
            Ok(ScriptValue::list(out))
        },
    ))
}

fn name_list(arg: Option<&ScriptValue>) -> Result<Vec<String>, ScriptError> {
    match arg {
        Some(ScriptValue::List(items)) => items
            .borrow()
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect(),
        Some(other) => Err(ScriptError::host(format!(
            "expected a list of file names, found {}",
            other.type_name()
        ))),
        None => Err(ScriptError::host("expected a list of file names")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aida_data::Document;
    use aida_llm::SimLlm;
    use aida_script::Interpreter;

    fn lake() -> DataLake {
        DataLake::from_docs([
            Document::new("theft.txt", "identity theft statistics for 2024")
                .with_label("difficulty", 0.0),
            Document::new("gas.txt", "natural gas pipeline notes").with_label("difficulty", 0.0),
        ])
    }

    fn interp_with(tools: Vec<Arc<dyn Tool>>) -> Interpreter {
        let mut registry = crate::tool::ToolRegistry::new();
        for t in tools {
            registry.register(t);
        }
        let mut interp = Interpreter::new();
        registry.bind_into(&mut interp);
        interp
    }

    #[test]
    fn list_and_read_files() {
        let mut interp = interp_with(lake_tools(&lake()));
        assert_eq!(
            interp.run("len(list_files())").unwrap(),
            ScriptValue::Int(2)
        );
        let content = interp.run("read_file('theft.txt')").unwrap();
        assert!(content.as_str().unwrap().contains("identity theft"));
        assert!(interp.run("read_file('missing.txt')").is_err());
    }

    #[test]
    fn keyword_search_ranks_by_relevance() {
        let mut interp = interp_with(lake_tools(&lake()));
        let hits = interp.run("search_keywords('identity theft', 1)").unwrap();
        assert_eq!(hits.to_string(), "['theft.txt']");
    }

    #[test]
    fn final_answer_sets_cell() {
        let cell = AnswerCell::new();
        let mut interp = interp_with(vec![final_answer_tool(&cell)]);
        assert!(!cell.is_set());
        interp.run("final_answer(13.16)").unwrap();
        assert_eq!(cell.get(), Some(Value::Float(13.16)));
        cell.reset();
        assert!(!cell.is_set());
    }

    #[test]
    fn sem_filter_tool_bills_per_file_sequentially() {
        let env = ExecEnv::new(SimLlm::new(1));
        let lake = lake();
        let mut interp = interp_with(vec![sem_filter_tool(&env, &lake, ModelId::Flagship)]);
        let t0 = env.clock.now();
        let out = interp
            .run("sem_filter_tool('mentions identity theft', list(['theft.txt', 'gas.txt']))")
            .unwrap_err();
        // `list` isn't a builtin: pass the literal instead.
        let _ = out;
        let out = interp
            .run("sem_filter_tool('mentions identity theft', ['theft.txt', 'gas.txt'])")
            .unwrap();
        assert_eq!(out.to_string(), "['theft.txt']");
        assert_eq!(env.llm.meter().snapshot().total_calls(), 2);
        assert!(env.clock.now() > t0, "sequential calls advance the clock");
    }

    #[test]
    fn sem_extract_tool_returns_value_per_file() {
        let env = ExecEnv::new(SimLlm::new(1));
        let lake = DataLake::from_docs([Document::new(
            "t.csv",
            "year,identity_theft_reports\n2001,86250\n2005,100000\n2024,1135291\n",
        )]);
        let mut interp = interp_with(vec![sem_extract_tool(&env, &lake, ModelId::Flagship)]);
        let out = interp
            .run("sem_extract_tool('identity theft reports in 2024', 'thefts', ['t.csv'])[0]")
            .unwrap();
        assert_eq!(out, ScriptValue::Int(1_135_291));
    }

    #[test]
    fn bad_arguments_are_tool_errors() {
        let env = ExecEnv::new(SimLlm::new(1));
        let lake = lake();
        let mut interp = interp_with(vec![sem_filter_tool(&env, &lake, ModelId::Nano)]);
        assert!(interp.run("sem_filter_tool('x', 'not-a-list')").is_err());
        assert!(interp.run("sem_filter_tool('x')").is_err());
    }
}
