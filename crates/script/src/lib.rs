//! `aida-script`: "Pyrite", a small Python-like scripting language.
//!
//! The paper's Deep Research baselines are *CodeAgents*: LLM agents that
//! answer questions by iteratively writing and executing Python against a
//! set of tools. To reproduce that architecture faithfully — agents really
//! writing and running code, observing results, and planning the next step
//! — this crate implements the language those agents write:
//!
//! * a Python-style indentation-sensitive **lexer** ([`lexer`]),
//! * a recursive-descent **parser** ([`parser`]) producing a small AST
//!   ([`ast`]),
//! * a **compiler** to register bytecode ([`bytecode`]) and the register
//!   **VM** that runs every program ([`vm`]), over the **interpreter**
//!   state and kernels ([`interp`]): mutable lists/dicts, user functions,
//!   bound string/list/dict methods, and a useful builtin library (`len`,
//!   `range`, `sorted`, `sum`, `print`, …),
//! * **host-function binding** so agent tools (`list_files`, `read_file`,
//!   `run_semantic_program`, …) appear as ordinary callables, and
//! * **fuel limits** so a runaway agent program terminates deterministically
//!   instead of hanging an experiment, and a per-run **byte allowance**
//!   ([`interp::MAX_RUN_BYTES`]) so a few steps of string doubling cannot
//!   exhaust the host's memory, and
//! * one **dataflow analysis** over the bytecode ([`bounds`]) that both
//!   prices a program ([`analyze`]) and backs the **front-end check**
//!   ([`typecheck`], [`compile_checked`]), which rejects provably
//!   malformed programs — undefined names, unknown tools, `while True`
//!   with no exit, use before assignment, wrong tool arity or argument
//!   types, definite operator misuse by the VM's own kernel rules —
//!   before the caller spends any simulated budget on them
//!   ([`Interpreter::check_source`] runs it against an interpreter's
//!   globals and host functions).
//!
//! The supported subset is what the simulated planners emit: assignments,
//! `if`/`elif`/`else`, `while`, `for … in`, `def`, `return`, arithmetic,
//! comparisons, boolean logic, f-string-free string handling, list/dict
//! literals, indexing, slicing-free method calls.
//!
//! # Example
//!
//! ```
//! use aida_script::{Interpreter, ScriptValue};
//!
//! let mut interp = Interpreter::new();
//! interp.bind_host_fn("double", |args| {
//!     let n = args[0].as_int()?;
//!     Ok(ScriptValue::Int(n * 2))
//! });
//! let result = interp
//!     .run("total = 0\nfor x in range(4):\n    total += double(x)\ntotal")
//!     .unwrap();
//! assert_eq!(result, ScriptValue::Int(12));
//! ```

pub mod ast;
pub mod bounds;
pub mod bytecode;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod types;
pub mod value;
pub mod vm;

pub use bounds::{analyze, Bound, CostBound};
pub use bytecode::{compile, compile_checked, compile_source, CompiledProgram};
pub use error::ScriptError;
pub use interp::Interpreter;
pub use types::{typecheck, ToolSig, Ty, TypeEnv, BUILTIN_NAMES};
pub use value::ScriptValue;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ScriptError>;
