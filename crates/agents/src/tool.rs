//! The tool abstraction.

use aida_llm::UsageSnapshot;
use aida_script::{Interpreter, ScriptError, ScriptValue};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Metadata describing a tool to the (simulated) planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolSpec {
    /// The callable name bound into agent programs.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Python-style signature, e.g. `read_file(name: str) -> str`.
    pub signature: String,
}

impl ToolSpec {
    /// Creates a spec.
    pub fn new(
        name: impl Into<String>,
        signature: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        ToolSpec {
            name: name.into(),
            signature: signature.into(),
            description: description.into(),
        }
    }
}

/// The receipts one agent run collects. Tools bill from inside the
/// Pyrite VM, whose host functions return only a [`ScriptValue`], so the
/// run hands this accumulator to its tools and its policy; it lives as
/// long as the run.
pub type RunReceipts = Rc<RefCell<UsageSnapshot>>;

/// A tool callable from agent programs.
pub trait Tool: Send + Sync {
    /// The tool's spec.
    fn spec(&self) -> &ToolSpec;
    /// Invokes the tool, adding the receipt of every LLM call it makes to
    /// `receipts`.
    fn call(
        &self,
        args: &[ScriptValue],
        receipts: &RunReceipts,
    ) -> Result<ScriptValue, ScriptError>;
}

type ToolFn =
    dyn Fn(&[ScriptValue], &RunReceipts) -> Result<ScriptValue, ScriptError> + Send + Sync;

/// A tool backed by a closure.
pub struct FnTool {
    spec: ToolSpec,
    func: Box<ToolFn>,
}

impl FnTool {
    /// Wraps a closure that makes no LLM call as a tool.
    pub fn new(
        spec: ToolSpec,
        func: impl Fn(&[ScriptValue]) -> Result<ScriptValue, ScriptError> + Send + Sync + 'static,
    ) -> Self {
        Self::billing(spec, move |args, _| func(args))
    }

    /// Wraps a closure that bills LLM calls as a tool: it adds their
    /// receipts to the run's.
    pub fn billing(
        spec: ToolSpec,
        func: impl Fn(&[ScriptValue], &RunReceipts) -> Result<ScriptValue, ScriptError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        FnTool {
            spec,
            func: Box::new(func),
        }
    }
}

impl Tool for FnTool {
    fn spec(&self) -> &ToolSpec {
        &self.spec
    }

    fn call(
        &self,
        args: &[ScriptValue],
        receipts: &RunReceipts,
    ) -> Result<ScriptValue, ScriptError> {
        (self.func)(args, receipts)
    }
}

/// A named collection of tools, bindable into a script interpreter.
#[derive(Clone, Default)]
pub struct ToolRegistry {
    tools: Vec<Arc<dyn Tool>>,
}

impl ToolRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tool (same-name registration replaces).
    pub fn register(&mut self, tool: Arc<dyn Tool>) {
        match self
            .tools
            .iter()
            .position(|t| t.spec().name == tool.spec().name)
        {
            Some(i) => self.tools[i] = tool,
            None => self.tools.push(tool),
        }
    }

    /// Looks a tool up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Tool>> {
        self.tools.iter().find(|t| t.spec().name == name)
    }

    /// All tool specs, in registration order.
    pub fn specs(&self) -> Vec<&ToolSpec> {
        self.tools.iter().map(|t| t.spec()).collect()
    }

    /// Number of tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// True when no tools are registered.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// Renders the tool manifest included in every planning prompt.
    pub fn manifest(&self) -> String {
        let mut out = String::from("Available tools:\n");
        for tool in &self.tools {
            out.push_str(&format!(
                "- {}: {}\n",
                tool.spec().signature,
                tool.spec().description
            ));
        }
        out
    }

    /// Binds every tool into an interpreter as a host function; the
    /// tools add what they bill to `receipts`.
    pub fn bind_billing_into(&self, interp: &mut Interpreter, receipts: &RunReceipts) {
        for tool in &self.tools {
            let tool = Arc::clone(tool);
            let receipts = Rc::clone(receipts);
            interp.bind_host_fn(&tool.spec().name.clone(), move |args| {
                tool.call(args, &receipts)
            });
        }
    }

    /// Binds every tool for use outside an agent run, where nothing
    /// totals what the tools bill.
    pub fn bind_into(&self, interp: &mut Interpreter) {
        self.bind_billing_into(interp, &RunReceipts::default());
    }
}

impl std::fmt::Debug for ToolRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.tools.iter().map(|t| t.spec().name.as_str()).collect();
        write!(f, "ToolRegistry({names:?})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_tool() -> Arc<dyn Tool> {
        Arc::new(FnTool::new(
            ToolSpec::new("echo", "echo(x) -> x", "returns its argument"),
            |args| Ok(args.first().cloned().unwrap_or(ScriptValue::None)),
        ))
    }

    #[test]
    fn register_and_bind() {
        let mut registry = ToolRegistry::new();
        registry.register(echo_tool());
        assert_eq!(registry.len(), 1);
        assert!(registry.get("echo").is_some());
        let mut interp = Interpreter::new();
        registry.bind_into(&mut interp);
        assert_eq!(interp.run("echo(42)").unwrap(), ScriptValue::Int(42));
    }

    #[test]
    fn same_name_replaces() {
        let mut registry = ToolRegistry::new();
        registry.register(echo_tool());
        registry.register(Arc::new(FnTool::new(
            ToolSpec::new("echo", "echo() -> int", "returns 7"),
            |_| Ok(ScriptValue::Int(7)),
        )));
        assert_eq!(registry.len(), 1);
        let mut interp = Interpreter::new();
        registry.bind_into(&mut interp);
        assert_eq!(interp.run("echo(1)").unwrap(), ScriptValue::Int(7));
    }

    #[test]
    fn manifest_lists_signatures() {
        let mut registry = ToolRegistry::new();
        registry.register(echo_tool());
        let m = registry.manifest();
        assert!(m.contains("echo(x) -> x"));
        assert!(m.contains("returns its argument"));
    }
}
