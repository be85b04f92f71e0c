//! The Pyrite front-end check: static types and the verdict on whether a
//! program may run.
//!
//! Runs before execution (and before any simulated spend in
//! `aida-agents`): a program it rejects costs $0.00 and zero virtual
//! seconds. It has no analysis of its own. [`typecheck`] lowers the
//! program to bytecode and solves it with the cost-bound dataflow
//! ([`crate::bounds`]), seeded with a [`TypeEnv`]; a value's static type
//! is the kind of its abstract value. One pass over each chunk's
//! instructions then reports the first error in program order, a
//! function body's at its `def`:
//!
//! * **Undefined names and unknown calls** ([`ScriptError::Static`]) — a
//!   name no assignment, loop or comprehension variable, parameter,
//!   `def`, global, tool or builtin introduces anywhere; a call's message
//!   lists the tools and builtins so a planner can self-correct.
//! * **Unbounded loops** ([`ScriptError::Static`]) — `while` on a truthy
//!   literal whose loop in the CFG has no exit.
//! * **Use before assignment** ([`ScriptError::Type`], like the rest) —
//!   a read no path to it assigns, of a top-level name or a function's
//!   own local (a function reads globals as they are at call time).
//! * **Tool arity and argument types**, against [`ToolSig`].
//! * **Operators, negation, indexing, index stores, slicing, iteration,
//!   calls and methods** — the VM's own kernels run on one witness value
//!   per type (`definite`); an error is reported when every type the
//!   operands may have raises the same type error.
//!
//! Unreachable code is checked too, with the facts of the code before it.

use crate::ast::{BinOp, Program};
use crate::bounds::{self, AbsVal, Binding, ChunkFlow, Solved, State};
use crate::bytecode::{CompiledFn, Const, Insn, Pools, NO_REG};
use crate::error::ScriptError;
use crate::interp::{self, Interpreter};
use crate::value::{ScriptValue, UserFn};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// A static type. `Any` is the unknown/top type; joins of unequal types
/// collapse to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Unknown (checks involving it always pass).
    Any,
    /// `int`
    Int,
    /// `float`
    Float,
    /// `str`
    Str,
    /// `bool`
    Bool,
    /// `None`
    None,
    /// `list` (element types are not tracked).
    List,
    /// `dict` (string keys; value types are not tracked).
    Dict,
    /// A user function value.
    Func,
}

impl Ty {
    /// Display name matching the interpreter's `type_name()` strings.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Any => "any",
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Str => "str",
            Ty::Bool => "bool",
            Ty::None => "NoneType",
            Ty::List => "list",
            Ty::Dict => "dict",
            Ty::Func => "function",
        }
    }

    /// Whether a value of this type can satisfy an `expected` annotation.
    fn satisfies(self, expected: Ty) -> bool {
        match (self, expected) {
            (Ty::Any, _) | (_, Ty::Any) => true,
            // Ints are acceptable where floats are expected (the
            // interpreter bridges them in arithmetic and comparisons).
            (Ty::Int, Ty::Float) => true,
            (a, b) => a == b,
        }
    }
}

/// The builtin functions, sorted by name, with the return type this pass
/// assumes for each (`Any` unless it is certain). The interpreter
/// resolves them without registration (`Interpreter::call_builtin`; a
/// unit test calls every one), and the bounds analysis counts their calls
/// without billing them.
pub const BUILTIN_NAMES: &[(&str, Ty)] = &[
    ("abs", Ty::Any),
    ("bool", Ty::Bool),
    ("enumerate", Ty::List),
    ("float", Ty::Float),
    ("int", Ty::Any),
    ("len", Ty::Any),
    ("max", Ty::Any),
    ("min", Ty::Any),
    ("print", Ty::None),
    ("range", Ty::List),
    ("round", Ty::Any),
    ("sorted", Ty::List),
    ("str", Ty::Str),
    ("sum", Ty::Any),
];

/// The return type of builtin `name`; `None` when `name` is no builtin.
pub(crate) fn builtin(name: &str) -> Option<Ty> {
    BUILTIN_NAMES
        .binary_search_by_key(&name, |&(n, _)| n)
        .ok()
        .map(|i| BUILTIN_NAMES[i].1)
}

/// A parsed tool signature, e.g. `search_keywords(query: str, k: int) ->
/// list[str]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolSig {
    /// Tool name.
    pub name: String,
    /// Parameters: name and annotated type (`Ty::Any` when unannotated).
    pub params: Vec<(String, Ty)>,
    /// Return type (`Ty::Any` when unannotated).
    pub ret: Ty,
}

impl ToolSig {
    /// Parses a Python-style signature line. Returns `None` when the text
    /// does not look like `name(params...)` — callers should then fall
    /// back to skipping checks for that tool.
    pub fn parse(signature: &str) -> Option<ToolSig> {
        let open = signature.find('(')?;
        let close = signature.rfind(')')?;
        if close < open {
            return None;
        }
        let name = signature[..open].trim();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return None;
        }
        let params_text = &signature[open + 1..close];
        let mut params = Vec::new();
        if !params_text.trim().is_empty() {
            for part in split_params(params_text) {
                let part = part.trim();
                let (pname, ty) = match part.split_once(':') {
                    Some((n, t)) => (n.trim(), parse_ty(t.trim())),
                    None => (part, Ty::Any),
                };
                if pname.is_empty() {
                    return None;
                }
                params.push((pname.to_string(), ty));
            }
        }
        let ret = signature[close + 1..]
            .trim()
            .strip_prefix("->")
            .map_or(Ty::Any, |r| parse_ty(r.trim()));
        Some(ToolSig {
            name: name.to_string(),
            params,
            ret,
        })
    }
}

/// Splits a parameter list on top-level commas (commas inside `[...]`
/// annotations like `list[str]` do not split).
fn split_params(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in text.char_indices() {
        match ch {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

fn parse_ty(text: &str) -> Ty {
    let base = text.split('[').next().unwrap_or("").trim();
    match base {
        "int" => Ty::Int,
        "float" => Ty::Float,
        "str" => Ty::Str,
        "bool" => Ty::Bool,
        "None" | "none" => Ty::None,
        "list" => Ty::List,
        "dict" => Ty::Dict,
        _ => Ty::Any,
    }
}

/// The environment a program is checked against: registered tool
/// signatures plus pre-bound globals (agent state carried between
/// steps).
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    /// Tool signatures by name.
    pub tools: HashMap<String, ToolSig>,
    /// Pre-bound global variables and their types (use [`Ty::Any`] when
    /// unknown).
    pub globals: HashMap<String, Ty>,
    /// Tools whose signature text failed to parse: calls resolve but are
    /// not arity- or type-checked.
    pub unchecked: HashSet<String>,
}

impl TypeEnv {
    /// An empty environment.
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    /// Registers a tool from its signature text; lines that fail to
    /// parse register an unchecked (arity-unknown) tool.
    pub fn add_tool_signature(&mut self, name: &str, signature: &str) {
        // Unparseable: calls resolve, but are not arity- or type-checked.
        let sig = ToolSig::parse(signature).unwrap_or_else(|| {
            self.unchecked.insert(name.to_string());
            ToolSig {
                name: name.to_string(),
                params: Vec::new(),
                ret: Ty::Any,
            }
        });
        self.tools.insert(name.to_string(), sig);
    }

    /// Marks a pre-bound global.
    pub fn bind_global(&mut self, name: &str, ty: Ty) {
        self.globals.insert(name.to_string(), ty);
    }
}

/// Checks a program against an environment, returning the first error
/// in program order: [`ScriptError::Static`] for an undefined name, an
/// unknown call or an unbounded loop, [`ScriptError::Type`] for the
/// flow-sensitive checks. The program is lowered to bytecode and solved
/// by the cost-bound dataflow ([`crate::bounds`]); the verdict is read
/// off the solved states.
pub fn typecheck(program: &Program, env: &TypeEnv) -> Result<(), ScriptError> {
    let compiled = crate::bytecode::lower(program)?;
    check(&bounds::solve(&compiled, env))
}

/// The first error in program order, read off a solved dataflow: one
/// pass over each chunk's instructions, a function body's at its `def`.
pub(crate) fn check(solved: &Solved) -> Result<(), ScriptError> {
    let program = solved.program;
    let mut defined: HashSet<&str> = HashSet::new();
    for insn in &program.main.code {
        match insn {
            Insn::Store { name, .. } => {
                defined.insert(&program.pools.names[*name as usize]);
            }
            Insn::Bind { vars, .. } => {
                for &(name, _) in &program.pools.var_lists[*vars as usize] {
                    defined.insert(&program.pools.names[name as usize]);
                }
            }
            _ => {}
        }
    }
    for f in &program.pools.funcs {
        defined.extend(f.locals.iter().map(String::as_str));
    }
    let checker = Checker {
        solved,
        defined,
        interp: RefCell::new(Interpreter::new()),
    };
    checker.chunk(solved.main.as_ref())
}

/// Every concrete type, in the order witnesses are tried.
const KINDS: [Ty; 8] = {
    use Ty::*;
    [Int, Float, Str, Bool, None, List, Dict, Func]
};

/// One value of type `ty` on which no kernel raises a value-dependent
/// error: numbers are non-zero (and -1 indexes any non-empty sequence),
/// containers are non-empty, and the dict holds the string witness as a
/// key.
fn witness(ty: Ty) -> ScriptValue {
    match ty {
        Ty::Int => ScriptValue::Int(-1),
        // Not integral: an index or slice bound must be an int.
        Ty::Float => ScriptValue::Float(1.5),
        Ty::Str => ScriptValue::str("a"),
        Ty::Bool => ScriptValue::Bool(true),
        Ty::None | Ty::Any => ScriptValue::None,
        Ty::List => ScriptValue::list(vec![ScriptValue::str("a")]),
        Ty::Dict => ScriptValue::dict([("a".to_string(), ScriptValue::str("a"))].into()),
        Ty::Func => {
            let funcs = vec![CompiledFn::default()];
            let pools = Arc::new(Pools {
                funcs,
                ..Pools::default()
            });
            ScriptValue::Func(Rc::new(UserFn { pools, idx: 0 }))
        }
    }
}

/// The type of a runtime value.
fn type_of(value: &ScriptValue) -> Ty {
    let name = value.type_name();
    KINDS
        .into_iter()
        .find(|ty| ty.name() == name)
        .expect("every value has a type")
}

/// What the VM's `binary` kernel does with operands of types `l` and
/// `r`: the result's type, or the type error's message. `None` when an
/// operand type is unknown.
pub(crate) fn bin_type(op: BinOp, l: Ty, r: Ty) -> Option<Result<Ty, String>> {
    if l == Ty::Any || r == Ty::Any || matches!(op, BinOp::And | BinOp::Or) {
        return None;
    }
    let result = Interpreter::new().binary(op, witness(l), witness(r), 0);
    Some(result.map(|v| type_of(&v)).map_err(|e| e.to_string()))
}

/// Reads diagnostics off a solved program.
struct Checker<'s, 'p> {
    solved: &'s Solved<'p>,
    /// Every name the program binds anywhere: assignment, loop and
    /// comprehension variables, parameters, `def`s. A name outside it,
    /// the environment, the tools and the builtins is undefined.
    defined: HashSet<&'p str>,
    /// Runs the kernels on witnesses.
    interp: RefCell<Interpreter>,
}

impl<'p> Checker<'_, 'p> {
    /// Checks one chunk's instructions in order, a function's body at
    /// its `MakeFunc`. A block no path reaches is checked with the facts
    /// of the block before it, as if control fell through.
    fn chunk(&self, flow: Option<&ChunkFlow<'p>>) -> Result<(), ScriptError> {
        let Some(flow) = flow else {
            return Ok(());
        };
        let mut before: Option<State> = None;
        for (b, blk) in flow.blocks.iter().enumerate() {
            let mut st = match (&flow.entry[b], before.take()) {
                (Some(entry), _) => entry.clone(),
                (None, Some(mut st)) => {
                    st.live = true;
                    st
                }
                (None, None) => continue,
            };
            for at in blk.start..blk.end {
                let insn = &flow.code[at];
                if st.live {
                    self.insn(flow, &st, at, insn)?;
                }
                if let Insn::MakeFunc { idx, .. } = insn {
                    self.chunk(self.solved.funcs[*idx as usize].as_ref())?;
                }
                bounds::transfer(&flow.cx, &mut st, insn);
            }
            before = Some(st);
        }
        Ok(())
    }

    fn insn(
        &self,
        flow: &ChunkFlow<'p>,
        st: &State,
        at: usize,
        insn: &Insn,
    ) -> Result<(), ScriptError> {
        let ty = |reg: u16| st.regs[reg as usize].ty();
        let mut interp = self.interp.borrow_mut();
        match *insn {
            Insn::Load {
                name, slot, line, ..
            } => self.load(flow, st, name, slot, line as usize),
            Insn::CallName { .. } => self.call_name(flow, st, insn),
            Insn::CallValue { callee, line, .. } => definite(&[ty(callee)], |w| {
                interp::callee_fn(w[0].clone(), line as usize).map(drop)
            }),
            Insn::CallMethod {
                obj,
                name,
                base,
                argc,
                line,
                ..
            } => {
                let mut tys = vec![ty(obj)];
                tys.extend((base..base + argc).map(ty));
                let method = flow.cx.name(name);
                definite(&tys, |w| {
                    interp
                        .call_method(&w[0], method, &w[1..], line as usize)
                        .map(drop)
                })
            }
            Insn::Bin { op, a, b, line, .. } => definite(&[ty(a), ty(b)], |w| {
                interp
                    .binary(op, w[0].clone(), w[1].clone(), line as usize)
                    .map(drop)
            }),
            Insn::Neg { src, line, .. } => definite(&[ty(src)], |w| {
                interp::negate(&w[0], line as usize).map(drop)
            }),
            Insn::GetIndex { obj, key, line, .. } => definite(&[ty(obj), ty(key)], |w| {
                interp.index(&w[0], &w[1], line as usize).map(drop)
            }),
            Insn::SetIndex { obj, key, line, .. } => definite(&[ty(obj), ty(key)], |w| {
                interp.store_index(&w[0], &w[1], ScriptValue::None, line as usize)
            }),
            Insn::SliceIdx { reg, line } => definite(&[ty(reg)], |w| {
                interp::slice_index(&w[0], line as usize).map(drop)
            }),
            Insn::Slice { obj, line, .. } => definite(&[ty(obj)], |w| {
                interp.slice(&w[0], None, None, line as usize).map(drop)
            }),
            Insn::IterNew { src, line } => definite(&[ty(src)], |w| {
                interp.iter_value(w[0].clone(), line as usize).map(drop)
            }),
            Insn::DictKey { reg, line } => {
                definite(&[ty(reg)], |w| interp::dict_key(&w[0], line as usize))
            }
            Insn::JumpFalse { src, .. } => self.endless_loop(flow, at, src),
            _ => Ok(()),
        }
    }

    fn known(&self, name: &str) -> bool {
        self.defined.contains(name)
            || self.solved.env.globals.contains_key(name)
            || self.solved.env.tools.contains_key(name)
            || builtin(name).is_some()
    }

    /// A variable read: defined somewhere, and assigned on some path
    /// here. Inside a function only its own locals can be unassigned
    /// (globals are resolved at call time); at the top level a tool or
    /// builtin name read as a value is left to the runtime.
    fn load(
        &self,
        flow: &ChunkFlow<'p>,
        st: &State,
        name: u16,
        slot: u16,
        line: usize,
    ) -> Result<(), ScriptError> {
        let text = flow.cx.name(name);
        if !self.known(text) {
            return Err(self.undefined(flow, text, line));
        }
        let unassigned = |b: &Binding| b.maybe_unset && b.val == AbsVal::Bottom;
        let message = if flow.cx.is_main {
            let late_bound = self.solved.env.tools.contains_key(text) || builtin(text).is_some();
            if late_bound || !unassigned(&st.globals[name as usize]) {
                return Ok(());
            }
            format!("variable '{text}' used before assignment")
        } else if slot != NO_REG && unassigned(&st.locals[slot as usize]) {
            format!("local variable '{text}' used before assignment")
        } else {
            return Ok(());
        };
        Err(ScriptError::Type { line, message })
    }

    /// The error for a read of `name`, which nothing defines: an unknown
    /// call when a call to it sits on the same line, an undefined name
    /// otherwise.
    fn undefined(&self, flow: &ChunkFlow<'p>, name: &str, line: usize) -> ScriptError {
        let called = flow.code.iter().any(|insn| {
            matches!(insn, Insn::CallName { name: n, cline, .. }
                if flow.cx.name(*n) == name && *cline as usize == line)
        });
        if called {
            return self.unknown_call(name, line);
        }
        ScriptError::Static {
            line,
            message: format!("'{name}' is never defined anywhere in the program"),
        }
    }

    fn unknown_call(&self, name: &str, line: usize) -> ScriptError {
        let mut known: Vec<&str> = (self.solved.env.tools.keys().map(String::as_str))
            .chain(BUILTIN_NAMES.iter().map(|&(n, _)| n))
            .collect();
        known.sort_unstable();
        ScriptError::Static {
            line,
            message: format!(
                "call to unknown function or tool '{name}' (available: {})",
                known.join(", ")
            ),
        }
    }

    /// A named call. A tool or builtin name nothing in the program or
    /// environment can rebind is that tool (checked against its
    /// signature) or builtin; any other callee is a variable, which must
    /// be assigned and callable.
    fn call_name(&self, flow: &ChunkFlow<'p>, st: &State, insn: &Insn) -> Result<(), ScriptError> {
        let Insn::CallName {
            name,
            slot,
            base,
            argc,
            line,
            cline,
            ..
        } = *insn
        else {
            return Ok(());
        };
        let (line, cline) = (line as usize, cline as usize);
        let text = flow.cx.name(name);
        if !self.known(text) {
            return Err(self.unknown_call(text, cline));
        }
        let shadowable = self.defined.contains(text) || self.solved.env.globals.contains_key(text);
        if !shadowable {
            if let Some(sig) = self.solved.env.tools.get(text) {
                if self.solved.env.unchecked.contains(text) {
                    return Ok(());
                }
                let args: Vec<Ty> = (base..base + argc)
                    .map(|r| st.regs[r as usize].ty())
                    .collect();
                return check_tool_args(sig, &args, line);
            }
            if builtin(text).is_some() {
                return Ok(());
            }
        }
        self.load(flow, st, name, slot, cline)?;
        let callee = flow.cx.binding_of(st, name, slot).val.ty();
        if callee == Ty::Any {
            return Ok(());
        }
        definite(&[callee], |w| {
            interp::callee_fn(w[0].clone(), line).map(drop)
        })
    }

    /// `while` on a truthy literal whose loop has no way out: no edge
    /// leaves the loop but the condition's own (never taken) exit, and no
    /// block in it returns.
    fn endless_loop(&self, flow: &ChunkFlow<'p>, at: usize, src: u16) -> Result<(), ScriptError> {
        let Some(l) = flow
            .loops
            .iter()
            .find(|l| flow.blocks[l.header].end == at + 1)
        else {
            return Ok(());
        };
        let header = &flow.blocks[l.header];
        let truthy = match flow.code[at - 1] {
            Insn::Const { dst, idx } if dst == src => {
                match &flow.cx.program.pools.consts[idx as usize] {
                    Const::Bool(b) => *b,
                    Const::Int(i) => *i != 0,
                    Const::Float(x) => *x != 0.0,
                    Const::Str(s) => !s.is_empty(),
                    Const::None => false,
                }
            }
            _ => false,
        };
        if !truthy {
            return Ok(());
        }
        // The header's own exit is the condition's, never taken.
        let leaves = l.body.iter().any(|&b| {
            let blk = &flow.blocks[b];
            let exits = blk.succs.iter().filter(|s| !l.body.contains(s)).count();
            matches!(flow.code[blk.end - 1], Insn::Ret { .. }) || exits > usize::from(b == l.header)
        });
        if leaves {
            return Ok(());
        }
        let line = match flow.code[header.start] {
            Insn::Burn { line, .. } => line as usize,
            _ => 0,
        };
        Err(ScriptError::Static {
            line,
            message: "`while` loop condition is always true and the body never breaks or \
                      returns; the program cannot terminate"
                .into(),
        })
    }
}

/// Checks a registered tool call's arity and argument types against its
/// signature.
fn check_tool_args(sig: &ToolSig, args: &[Ty], line: usize) -> Result<(), ScriptError> {
    let name = &sig.name;
    let err = |message: String| Err(ScriptError::Type { line, message });
    if sig.params.len() != args.len() {
        return err(format!(
            "{}() takes {} argument{} but {} {} given",
            name,
            sig.params.len(),
            if sig.params.len() == 1 { "" } else { "s" },
            args.len(),
            if args.len() == 1 { "was" } else { "were" },
        ));
    }
    for ((pname, pty), aty) in sig.params.iter().zip(args) {
        if !aty.satisfies(*pty) {
            return err(format!(
                "{}() argument '{}' expects {}, got {}",
                name,
                pname,
                pty.name(),
                aty.name()
            ));
        }
    }
    Ok(())
}

/// Runs a kernel on witnesses of the operand types, an unknown operand
/// standing for every type, and returns its type error when every run
/// raises that same error: the error is then certain whatever values the
/// operands hold. Anything else (a run that succeeds, differing errors,
/// or more than 64 combinations) reports nothing.
fn definite(
    tys: &[Ty],
    mut kernel: impl FnMut(&[ScriptValue]) -> Result<(), ScriptError>,
) -> Result<(), ScriptError> {
    let choices: Vec<&[Ty]> = tys
        .iter()
        .map(|ty| match ty {
            Ty::Any => &KINDS[..],
            ty => std::slice::from_ref(ty),
        })
        .collect();
    let combos = choices.iter().map(|c| c.len()).product::<usize>();
    if combos > 64 {
        return Ok(());
    }
    let mut error: Option<ScriptError> = None;
    for mut n in 0..combos {
        let values: Vec<ScriptValue> = (choices.iter())
            .map(|c| {
                let ty = c[n % c.len()];
                n /= c.len();
                witness(ty)
            })
            .collect();
        match kernel(&values) {
            Err(e @ ScriptError::Type { .. }) if error.as_ref().is_none_or(|x| *x == e) => {
                error = Some(e)
            }
            _ => return Ok(()),
        }
    }
    error.map_or(Ok(()), Err)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn env() -> TypeEnv {
        let mut env = TypeEnv::new();
        env.add_tool_signature("read_file", "read_file(name: str) -> str");
        env.add_tool_signature("list_files", "list_files() -> list[str]");
        env.add_tool_signature(
            "search_keywords",
            "search_keywords(query: str, k: int) -> list[str]",
        );
        env.add_tool_signature("final_answer", "final_answer(answer) -> None");
        env
    }

    fn check(src: &str) -> Result<(), ScriptError> {
        typecheck(&parse(src).expect("parses"), &env())
    }

    fn check_err(src: &str) -> String {
        check(src).expect_err("should be rejected").to_string()
    }

    /// One program per diagnostic the pass raises, with the class, line
    /// and full message it must report.
    #[test]
    fn every_diagnostic_is_exact() {
        const TOOLS: &str = "abs, bool, enumerate, final_answer, float, int, len, list_files, \
                             max, min, print, range, read_file, round, search_keywords, sorted, \
                             str, sum";
        let cases: &[(&str, bool, usize, String)] = &[
            (
                "serch_files()",
                true,
                1,
                format!("call to unknown function or tool 'serch_files' (available: {TOOLS})"),
            ),
            (
                "print(nope)",
                true,
                1,
                "'nope' is never defined anywhere in the program".into(),
            ),
            (
                "while True:\n    x = 1",
                true,
                1,
                "`while` loop condition is always true and the body never breaks or returns; \
                 the program cannot terminate"
                    .into(),
            ),
            (
                "print(x)\nx = 1",
                false,
                1,
                "variable 'x' used before assignment".into(),
            ),
            (
                "def f(n):\n    m = q\n    q = n\n    return m\nf(1)",
                false,
                2,
                "local variable 'q' used before assignment".into(),
            ),
            (
                "read_file('a.txt', 'extra')",
                false,
                1,
                "read_file() takes 1 argument but 2 were given".into(),
            ),
            (
                "read_file(42)",
                false,
                1,
                "read_file() argument 'name' expects str, got int".into(),
            ),
            ("x = 'a' + 1", false, 1, "cannot add str and int".into()),
            (
                "x = {} - 1",
                false,
                1,
                "unsupported operand types: dict and int".into(),
            ),
            (
                "x = 'a' * 'b'",
                false,
                1,
                "unsupported operand types: str and str".into(),
            ),
            ("x = 'a' / 2", false, 1, "cannot divide str by int".into()),
            ("x = 'a' // 2", false, 1, "'//' needs numbers".into()),
            ("x = 'a' % 2", false, 1, "'%' needs ints".into()),
            ("x = 'a' < 1", false, 1, "cannot compare str and int".into()),
            (
                "x = 1 in 2",
                false,
                1,
                "'in' not supported between int and int".into(),
            ),
            ("x = -'a'", false, 1, "cannot negate str".into()),
            (
                "n = 1\nx = n.upper()",
                false,
                2,
                "int has no methods".into(),
            ),
            (
                "for x in 5:\n    print(x)",
                false,
                1,
                "int is not iterable".into(),
            ),
            (
                "xs = [x for x in 5]",
                false,
                1,
                "int is not iterable".into(),
            ),
            (
                "x = 5\ny = x[0]",
                false,
                2,
                "int is not subscriptable".into(),
            ),
            (
                "xs = [1]\ny = xs['a']",
                false,
                2,
                "list indices must be ints, not str".into(),
            ),
            ("x = 3\nx()", false, 2, "int is not callable".into()),
            ("d = {1: 'x'}", false, 1, "dict keys must be strings".into()),
            (
                "d = {}\ny = d[1]",
                false,
                2,
                "dict keys must be strings".into(),
            ),
            (
                "xs = [1, 2]\nys = xs['a':2]",
                false,
                2,
                "slice bounds must be ints".into(),
            ),
            ("x = 5\ny = x[1:2]", false, 2, "int cannot be sliced".into()),
            (
                "d = {}\nd[1] = 2",
                false,
                2,
                "cannot assign into dict with int key".into(),
            ),
            (
                "xs = []\nxs['a'] = 1",
                false,
                2,
                "cannot assign into list with str key".into(),
            ),
            (
                "s = 'ab'\ns[0] = 'c'",
                false,
                2,
                "cannot assign into str with int key".into(),
            ),
        ];
        for (src, is_static, line, message) in cases {
            let err = check(src).expect_err(src);
            let expected = if *is_static {
                ScriptError::Static {
                    line: *line,
                    message: message.clone(),
                }
            } else {
                ScriptError::Type {
                    line: *line,
                    message: message.clone(),
                }
            };
            assert_eq!(err, expected, "{src}");
        }
    }

    #[test]
    fn the_first_error_in_program_order_wins() {
        // A use-before-assign on line 1 is reported before the unknown
        // call on line 3.
        let msg = check_err("print(x)\nx = 1\nfoo()");
        assert_eq!(
            msg,
            "type error (line 1): variable 'x' used before assignment"
        );
    }

    #[test]
    fn an_undefined_name_the_statement_calls_is_an_unknown_call() {
        let err = check("x = foo + foo()").expect_err("foo is defined nowhere");
        assert!(
            matches!(&err, ScriptError::Static { line: 1, message }
                if message.starts_with("call to unknown function or tool 'foo'")),
            "{err}"
        );
    }

    #[test]
    fn builtin_list_matches_interpreter() {
        // The table is sorted (lookups binary-search it) and every name in
        // it resolves when called.
        assert!(BUILTIN_NAMES.windows(2).all(|w| w[0].0 < w[1].0));
        let mut interp = crate::Interpreter::new();
        for (b, _) in BUILTIN_NAMES {
            let src = match *b {
                "print" => "print(1)".to_string(),
                "range" => "range(1)".to_string(),
                "enumerate" => "enumerate([1])".to_string(),
                "sum" | "min" | "max" | "sorted" | "len" => format!("{b}([1])"),
                _ => format!("{b}(1)"),
            };
            let res = interp.run(&src);
            assert!(res.is_ok(), "builtin {b} failed: {res:?}");
        }
    }

    #[test]
    fn accepts_well_typed_programs() {
        check("files = list_files()\nfor f in files:\n    text = read_file(f)\n    print(text)")
            .unwrap();
        check("x = 1\nif x > 0:\n    y = 'pos'\nelse:\n    y = 'neg'\nprint(y)").unwrap();
        check("total = 0\nfor n in range(10):\n    total += n\ntotal").unwrap();
        check("def rate(name):\n    text = read_file(name)\n    return len(text)\nrate('a.txt')")
            .unwrap();
        // Constant conditions and names nothing reads are legal.
        check("if False:\n    x = 1\nelse:\n    x = 2\nunused = x\n_tmp = 1").unwrap();
    }

    #[test]
    fn rejects_use_before_assign() {
        let msg = check_err("print(x)\nx = 1");
        assert!(msg.contains("used before assignment"), "{msg}");
        assert!(check("x = 1\nprint(x)").is_ok());
    }

    #[test]
    fn rejects_undefined_names() {
        let msg = check_err("print(nope)");
        assert!(msg.contains("never defined anywhere"), "{msg}");
        // Inside a function body too.
        let msg = check_err("def f():\n    return nope\nf()");
        assert_eq!(
            msg,
            "static error (line 2): 'nope' is never defined anywhere in the program"
        );
    }

    #[test]
    fn while_true_needs_an_exit() {
        assert!(check("while True:\n    break\n").is_ok());
        assert!(check("def f():\n    while 1:\n        return 2\nf()").is_ok());
        // A non-literal condition is fine (the fuel budget guards it).
        assert!(check("n = 3\nwhile n > 0:\n    n = n - 1\nn\n").is_ok());
    }

    #[test]
    fn comprehension_vars_count_as_defined() {
        check("xs = [1, 2, 3]\nys = [v * 2 for v in xs]\nys\nv").unwrap();
    }

    #[test]
    fn rejects_tool_arity_errors() {
        let msg = check_err("read_file('a.txt', 'extra')");
        assert!(msg.contains("takes 1 argument"), "{msg}");
        let msg = check_err("list_files('oops')");
        assert!(msg.contains("takes 0 arguments"), "{msg}");
    }

    #[test]
    fn rejects_tool_argument_type_errors() {
        let msg = check_err("read_file(42)");
        assert!(msg.contains("expects str, got int"), "{msg}");
        let msg = check_err("search_keywords('q', 'not-an-int')");
        assert!(msg.contains("expects int, got str"), "{msg}");
    }

    #[test]
    fn tool_calls_shadowed_by_assignment_are_skipped() {
        // `read_file` is reassigned somewhere, so the call cannot be
        // statically bound to the tool.
        check("read_file = 1\nx = 2").unwrap();
    }

    #[test]
    fn rejects_definite_operator_misuse() {
        let msg = check_err("x = 'a' + 1");
        assert!(msg.contains("cannot add str and int"), "{msg}");
        let msg = check_err("x = {} - 1");
        assert!(msg.contains("unsupported operand types"), "{msg}");
        let msg = check_err("x = 'a' % 2");
        assert!(msg.contains("'%' needs ints"), "{msg}");
    }

    #[test]
    fn branch_join_collapses_types() {
        // int in one arm, str in the other: join is Any, so later use
        // with either type passes.
        check("if 1 > 0:\n    v = 1\nelse:\n    v = 'x'\nw = v").unwrap();
        // Both arms int: later arithmetic stays checked.
        let msg = check_err("if 1 > 0:\n    v = 1\nelse:\n    v = 2\nx = 'a' + v");
        assert!(msg.contains("cannot add"), "{msg}");
    }

    #[test]
    fn loop_carried_variables_allowed() {
        check("total = 0\nwhile total < 5:\n    total += 1\nprint(total)").unwrap();
        check("for f in list_files():\n    last = f\n").unwrap();
    }

    #[test]
    fn function_locals_checked_for_use_before_assign() {
        let msg = check_err("def f(n):\n    m = q\n    q = n\n    return m\nf(1)");
        assert!(msg.contains("'q' used before assignment"), "{msg}");
    }

    #[test]
    fn late_bound_globals_allowed_in_functions() {
        // `helper` is defined after `f` but before the call: legal.
        check("def f(n):\n    return helper(n)\ndef helper(n):\n    return n + 1\nf(1)").unwrap();
    }

    #[test]
    fn rejects_calling_non_callables() {
        let msg = check_err("x = 3\nx()");
        assert!(msg.contains("not callable"), "{msg}");
    }

    #[test]
    fn signature_parsing() {
        let sig = ToolSig::parse("search_keywords(query: str, k: int) -> list[str]").unwrap();
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.params[0], ("query".to_string(), Ty::Str));
        assert_eq!(sig.params[1], ("k".to_string(), Ty::Int));
        assert_eq!(sig.ret, Ty::List);
        let sig = ToolSig::parse("final_answer(answer) -> None").unwrap();
        assert_eq!(sig.params, vec![("answer".to_string(), Ty::Any)]);
        assert_eq!(sig.ret, Ty::None);
        assert!(ToolSig::parse("not a signature").is_none());
    }
}
