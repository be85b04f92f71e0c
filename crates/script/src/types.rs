//! The Pyrite front-end pass: one flow-sensitive walk over the AST that
//! decides whether a program may run.
//!
//! Runs between parsing and compilation (and before any simulated spend
//! in `aida-agents`): a program this pass rejects costs $0.00 and zero
//! virtual seconds. It reports the first error in program order:
//!
//! * **Undefined names** ([`ScriptError::Static`]) — Pyrite resolves
//!   names late, Python-style (a function body may call a helper defined
//!   after it), so a name is undefined only when no assignment, loop or
//!   comprehension variable, parameter, `def`, global, tool, or builtin
//!   anywhere in the program or its environment introduces it. A call to
//!   such a name is an unknown call, and its message lists the tools and
//!   builtins so a planner can self-correct.
//! * **Unbounded loops** ([`ScriptError::Static`]) — `while` on an
//!   always-true literal whose body never breaks or returns.
//! * **Use before assignment** ([`ScriptError::Type`], like every check
//!   below) — a variable read on a path where no earlier statement can
//!   have assigned it, although something in the program assigns it.
//! * **Tool arity and argument types** — calls to registered host tools
//!   are checked against their parsed signatures ([`ToolSig`]).
//! * **Operators, iteration, indexing, and calls** — misuse every
//!   runtime path would raise (`'a' - 1`, iterating an int, calling a
//!   list, a non-string dict key).
//! * **Branch-join typing** — a variable assigned `int` in one arm and
//!   `str` in another joins to [`Ty::Any`]; only *definite* misuse is
//!   reported downstream.
//! * **Loop-carried variables** — names assigned inside a loop body are
//!   in scope (as possibly-unassigned) for the whole body, so
//!   accumulator patterns type correctly without false positives.
//!
//! The pass is deliberately conservative: it reports an error only when
//! every runtime path through the expression would raise it — mirroring
//! the interpreter's own `binary`/`index`/`call` rejections — and types
//! it cannot prove stay [`Ty::Any`]. Conservatism is what lets the agent
//! runtime treat a rejection as a hard pre-billing reject.

use crate::ast::*;
use crate::error::ScriptError;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

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
    /// The least upper bound of two types.
    pub fn join(self, other: Ty) -> Ty {
        if self == other {
            self
        } else {
            Ty::Any
        }
    }

    /// Display name matching the interpreter's `type_name()` strings.
    pub fn name(self) -> &'static str {
        match self {
            Ty::Any => "any",
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Str => "str",
            Ty::Bool => "bool",
            Ty::None => "None",
            Ty::List => "list",
            Ty::Dict => "dict",
            Ty::Func => "function",
        }
    }

    fn is_num(self) -> bool {
        matches!(self, Ty::Any | Ty::Int | Ty::Float)
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
        match ToolSig::parse(signature) {
            Some(sig) => {
                self.tools.insert(name.to_string(), sig);
            }
            None => {
                // Unparseable signature: register with unknown params so
                // calls resolve but are not arity-checked.
                self.tools.insert(
                    name.to_string(),
                    ToolSig {
                        name: name.to_string(),
                        params: Vec::new(),
                        ret: Ty::Any,
                    },
                );
                self.unchecked.insert(name.to_string());
            }
        }
    }

    /// Marks a pre-bound global.
    pub fn bind_global(&mut self, name: &str, ty: Ty) {
        self.globals.insert(name.to_string(), ty);
    }
}

/// One variable's flow fact.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Binding {
    ty: Ty,
    /// Assigned on every path reaching here.
    definite: bool,
}

/// Per-path variable state.
#[derive(Debug, Clone, Default)]
struct Flow {
    vars: HashMap<String, Binding>,
    /// False after `return`/`break`/`continue`: subsequent sibling
    /// statements in the block are unreachable from this path.
    live: bool,
}

impl Flow {
    fn start() -> Flow {
        Flow {
            vars: HashMap::new(),
            live: true,
        }
    }

    fn assign(&mut self, name: &str, ty: Ty) {
        self.vars
            .insert(name.to_string(), Binding { ty, definite: true });
    }

    fn weaken(&mut self, name: &str, ty: Ty) {
        self.vars
            .entry(name.to_string())
            .and_modify(|b| b.ty = b.ty.join(ty))
            .or_insert(Binding {
                ty,
                definite: false,
            });
    }

    /// Joins another branch's outcome into this one. A variable stays
    /// definite only when definite on both paths; types join. Dead
    /// branches contribute nothing.
    fn join(&mut self, other: &Flow) {
        if !other.live {
            return;
        }
        if !self.live {
            *self = other.clone();
            return;
        }
        let mut merged = HashMap::new();
        for (name, b) in &self.vars {
            match other.vars.get(name) {
                Some(ob) => {
                    merged.insert(
                        name.clone(),
                        Binding {
                            ty: b.ty.join(ob.ty),
                            definite: b.definite && ob.definite,
                        },
                    );
                }
                None => {
                    merged.insert(
                        name.clone(),
                        Binding {
                            ty: b.ty,
                            definite: false,
                        },
                    );
                }
            }
        }
        for (name, ob) in &other.vars {
            merged.entry(name.clone()).or_insert(Binding {
                ty: ob.ty,
                definite: false,
            });
        }
        self.vars = merged;
    }
}

/// Checks a program against an environment, returning the first error
/// in program order: [`ScriptError::Static`] for an undefined name, an
/// unknown call or an unbounded loop, [`ScriptError::Type`] for the
/// flow-sensitive checks.
pub fn typecheck(program: &Program, env: &TypeEnv) -> Result<(), ScriptError> {
    let mut defined = HashSet::new();
    collect_defined(&program.body, true, &mut defined);
    let tc = Tc {
        env,
        defined,
        current: Cell::new(None),
    };
    let mut flow = Flow::start();
    for (name, ty) in &env.globals {
        flow.assign(name, *ty);
    }
    tc.block(&program.body, &mut flow, None)
}

/// Adds every name a statement in `body` can bind: assignment targets,
/// loop and comprehension variables, and `def` names. With `into_defs`
/// it also descends into `def` bodies and adds their parameters (every
/// name the program defines anywhere); without it, it collects the
/// locals of one function body.
fn collect_defined(body: &[Stmt], into_defs: bool, out: &mut HashSet<String>) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::Assign(Target::Name(n), _) | StmtKind::AugAssign(Target::Name(n), _, _) => {
                out.insert(n.clone());
            }
            StmtKind::If(arms, else_body) => {
                for (_, arm) in arms {
                    collect_defined(arm, into_defs, out);
                }
                if let Some(arm) = else_body {
                    collect_defined(arm, into_defs, out);
                }
            }
            StmtKind::While(_, inner) => collect_defined(inner, into_defs, out),
            StmtKind::For(vars, _, inner) => {
                out.extend(vars.iter().cloned());
                collect_defined(inner, into_defs, out);
            }
            StmtKind::Def(name, params, inner) => {
                out.insert(name.clone());
                if into_defs {
                    out.extend(params.iter().cloned());
                    collect_defined(inner, into_defs, out);
                }
            }
            _ => {}
        }
        // Comprehension variables leak into the enclosing scope.
        visit_exprs(stmt, &mut |e| {
            if let ExprKind::ListComp { vars, .. } = &e.kind {
                out.extend(vars.iter().cloned());
            }
        });
    }
}

/// Calls `f` on every expression of `stmt` itself (not of its nested
/// bodies), parents before children.
fn visit_exprs(stmt: &Stmt, f: &mut dyn FnMut(&Expr)) {
    fn walk(e: &Expr, f: &mut dyn FnMut(&Expr)) {
        f(e);
        match &e.kind {
            ExprKind::List(items) => items.iter().for_each(|e| walk(e, f)),
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    walk(k, f);
                    walk(v, f);
                }
            }
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
                walk(a, f);
                walk(b, f);
            }
            ExprKind::Unary(_, a) => walk(a, f),
            ExprKind::Call(obj, args) | ExprKind::MethodCall(obj, _, args) => {
                walk(obj, f);
                args.iter().for_each(|e| walk(e, f));
            }
            ExprKind::ListComp {
                element,
                iterable,
                condition,
                ..
            } => {
                walk(element, f);
                walk(iterable, f);
                condition.iter().for_each(|c| walk(c, f));
            }
            ExprKind::Slice(obj, lo, hi) => {
                walk(obj, f);
                lo.iter().chain(hi).for_each(|b| walk(b, f));
            }
            _ => {}
        }
    }
    match &stmt.kind {
        StmtKind::Expr(e)
        | StmtKind::Return(Some(e))
        | StmtKind::While(e, _)
        | StmtKind::For(_, e, _) => walk(e, f),
        StmtKind::Assign(t, e) | StmtKind::AugAssign(t, _, e) => {
            if let Target::Index(obj, key) = t {
                walk(obj, f);
                walk(key, f);
            }
            walk(e, f);
        }
        StmtKind::If(arms, _) => arms.iter().for_each(|(cond, _)| walk(cond, f)),
        _ => {}
    }
}

/// Whether `e` is a literal that is always truthy.
fn always_true(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Bool(b) => *b,
        ExprKind::Int(i) => *i != 0,
        ExprKind::Float(x) => *x != 0.0,
        ExprKind::Str(s) => !s.is_empty(),
        _ => false,
    }
}

/// Whether any statement in `body` (recursively, but not inside nested
/// `def`s) is `break` or `return`.
fn has_exit(body: &[Stmt]) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Break | StmtKind::Return(_) => true,
        StmtKind::If(arms, els) => {
            arms.iter().any(|(_, b)| has_exit(b)) || els.as_ref().is_some_and(|b| has_exit(b))
        }
        // A nested loop's own break exits *that* loop, not this one —
        // but a return inside it still exits. Keeping the recursion
        // here over-approximates exits, which only ever suppresses a
        // finding (sound for a rejection gate).
        StmtKind::While(_, b) | StmtKind::For(_, _, b) => has_exit(b),
        _ => false,
    })
}

struct Tc<'a> {
    env: &'a TypeEnv,
    /// Every name the program defines anywhere. A name outside it and
    /// the environment is undefined; one inside it may still be
    /// unassigned on the path that reads it, and a tool or builtin name
    /// inside it may be shadowed by call time.
    defined: HashSet<String>,
    /// The statement being checked: whether it calls an undefined name
    /// decides how that name is reported.
    current: Cell<Option<&'a Stmt>>,
}

/// Context for checking inside a function body: its local names.
struct FnCtx {
    locals: HashSet<String>,
}

impl<'a> Tc<'a> {
    fn err(&self, line: usize, message: String) -> ScriptError {
        ScriptError::Type { line, message }
    }

    fn block(
        &self,
        body: &'a [Stmt],
        flow: &mut Flow,
        fctx: Option<&FnCtx>,
    ) -> Result<(), ScriptError> {
        for stmt in body {
            let outer = self.current.replace(Some(stmt));
            if flow.live {
                self.stmt(stmt, flow, fctx)?;
            } else {
                // Unreachable code: still check it against a fresh copy
                // of the facts so obvious errors surface, but do not let
                // its assignments revive the path.
                let mut dead = flow.clone();
                dead.live = true;
                self.stmt(stmt, &mut dead, fctx)?;
            }
            self.current.set(outer);
        }
        Ok(())
    }

    fn stmt(
        &self,
        stmt: &'a Stmt,
        flow: &mut Flow,
        fctx: Option<&FnCtx>,
    ) -> Result<(), ScriptError> {
        let line = stmt.line;
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.expr(e, flow, fctx)?;
            }
            StmtKind::Assign(Target::Name(name), value) => {
                let ty = self.expr(value, flow, fctx)?;
                flow.assign(name, ty);
            }
            StmtKind::Assign(Target::Index(obj, key), value) => {
                self.expr(value, flow, fctx)?;
                let ot = self.expr(obj, flow, fctx)?;
                let kt = self.expr(key, flow, fctx)?;
                self.check_index_store(ot, kt, line)?;
            }
            StmtKind::AugAssign(Target::Name(name), op, value) => {
                let rhs = self.expr(value, flow, fctx)?;
                let cur = self.use_name(name, line, flow, fctx)?;
                let ty = self.check_binary(*op, cur, rhs, line)?;
                flow.assign(name, ty);
            }
            StmtKind::AugAssign(Target::Index(obj, key), op, value) => {
                let rhs = self.expr(value, flow, fctx)?;
                let ot = self.expr(obj, flow, fctx)?;
                let kt = self.expr(key, flow, fctx)?;
                self.check_index_store(ot, kt, line)?;
                self.check_binary(*op, Ty::Any, rhs, line)?;
            }
            StmtKind::If(arms, else_body) => {
                let mut joined: Option<Flow> = None;
                for (cond, body) in arms {
                    self.expr(cond, flow, fctx)?;
                    let mut arm = flow.clone();
                    self.block(body, &mut arm, fctx)?;
                    match &mut joined {
                        Some(j) => j.join(&arm),
                        None => joined = Some(arm),
                    }
                }
                let mut else_flow = flow.clone();
                if let Some(body) = else_body {
                    self.block(body, &mut else_flow, fctx)?;
                }
                let mut joined = joined.expect("if has at least one arm");
                joined.join(&else_flow);
                *flow = joined;
            }
            StmtKind::While(cond, body) => {
                if always_true(cond) && !has_exit(body) {
                    return Err(ScriptError::Static {
                        line,
                        message: "`while` loop condition is always true and the body never \
                                  breaks or returns; the program cannot terminate"
                            .into(),
                    });
                }
                // Loop-carried names: visible inside and after the body
                // as possibly-unassigned.
                self.carry(stmt, flow);
                self.expr(cond, flow, fctx)?;
                let mut body_flow = flow.clone();
                self.block(body, &mut body_flow, fctx)?;
                flow.join(&body_flow);
                flow.live = true;
            }
            StmtKind::For(vars, iterable, body) => {
                let it = self.expr(iterable, flow, fctx)?;
                if !matches!(it, Ty::Any | Ty::List | Ty::Str | Ty::Dict) {
                    return Err(self.err(line, format!("{} is not iterable", it.name())));
                }
                self.carry(stmt, flow);
                let mut body_flow = flow.clone();
                let elem = if it == Ty::Str || it == Ty::Dict {
                    Ty::Str
                } else {
                    Ty::Any
                };
                if vars.len() == 1 {
                    body_flow.assign(&vars[0], elem);
                } else {
                    for v in vars {
                        body_flow.assign(v, Ty::Any);
                    }
                }
                self.block(body, &mut body_flow, fctx)?;
                flow.join(&body_flow);
                flow.live = true;
            }
            StmtKind::Def(name, params, body) => {
                let mut locals: HashSet<String> = params.iter().cloned().collect();
                collect_defined(body, false, &mut locals);
                let ctx = FnCtx { locals };
                let mut fn_flow = Flow::start();
                for p in params {
                    fn_flow.assign(p, Ty::Any);
                }
                self.block(body, &mut fn_flow, Some(&ctx))?;
                flow.assign(name, Ty::Func);
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    self.expr(e, flow, fctx)?;
                }
                flow.live = false;
            }
            StmtKind::Break | StmtKind::Continue => {
                flow.live = false;
            }
            StmtKind::Pass => {}
        }
        Ok(())
    }

    /// Weakens every name the loop `stmt` can bind (nested `def`s
    /// included) into `flow` as possibly-unassigned.
    fn carry(&self, stmt: &Stmt, flow: &mut Flow) {
        let mut carried = HashSet::new();
        collect_defined(std::slice::from_ref(stmt), true, &mut carried);
        for name in &carried {
            flow.weaken(name, Ty::Any);
        }
    }

    /// Resolves a name use, enforcing use-before-assign at the top level
    /// and the late-binding rules inside functions.
    fn use_name(
        &self,
        name: &str,
        line: usize,
        flow: &Flow,
        fctx: Option<&FnCtx>,
    ) -> Result<Ty, ScriptError> {
        if let Some(b) = flow.vars.get(name) {
            return Ok(b.ty);
        }
        if !self.known_global(name) {
            return Err(self.undefined(name, line));
        }
        match fctx {
            // Inside a function an unseen name may still resolve at call
            // time: a global assigned before the call, a tool, or a
            // builtin. Only names that are locals of this function (and
            // thus shadow everything) are definitely unassigned here.
            Some(ctx) if ctx.locals.contains(name) => Err(self.err(
                line,
                format!("local variable '{name}' used before assignment"),
            )),
            Some(_) => Ok(Ty::Any),
            // Reading a tool or builtin as a value is not something the
            // interpreter supports (they are not first-class), but no
            // runtime path is sure to reach the read.
            None if self.env.tools.contains_key(name) || builtin(name).is_some() => Ok(Ty::Any),
            None => Err(self.err(line, format!("variable '{name}' used before assignment"))),
        }
    }

    fn known_global(&self, name: &str) -> bool {
        self.defined.contains(name)
            || self.env.globals.contains_key(name)
            || self.env.tools.contains_key(name)
            || builtin(name).is_some()
    }

    /// The error for a read of `name`, which nothing defines: an unknown
    /// call, at its first call site, when the current statement calls it;
    /// an undefined name at `line` otherwise.
    fn undefined(&self, name: &str, line: usize) -> ScriptError {
        let mut call_line: Option<usize> = None;
        if let Some(stmt) = self.current.get() {
            visit_exprs(stmt, &mut |e| {
                if let ExprKind::Call(callee, _) = &e.kind {
                    if matches!(&callee.kind, ExprKind::Name(n) if n == name) {
                        call_line = Some(call_line.map_or(callee.line, |l| l.min(callee.line)));
                    }
                }
            });
        }
        match call_line {
            None => ScriptError::Static {
                line,
                message: format!("'{name}' is never defined anywhere in the program"),
            },
            Some(call_line) => {
                let mut known: Vec<&str> = (self.env.tools.keys().map(String::as_str))
                    .chain(BUILTIN_NAMES.iter().map(|&(n, _)| n))
                    .collect();
                known.sort_unstable();
                ScriptError::Static {
                    line: call_line,
                    message: format!(
                        "call to unknown function or tool '{name}' (available: {})",
                        known.join(", ")
                    ),
                }
            }
        }
    }

    fn expr(&self, e: &Expr, flow: &mut Flow, fctx: Option<&FnCtx>) -> Result<Ty, ScriptError> {
        let line = e.line;
        let ty = match &e.kind {
            ExprKind::Int(_) => Ty::Int,
            ExprKind::Float(_) => Ty::Float,
            ExprKind::Str(_) => Ty::Str,
            ExprKind::Bool(_) => Ty::Bool,
            ExprKind::None => Ty::None,
            ExprKind::Name(name) => self.use_name(name, line, flow, fctx)?,
            ExprKind::List(items) => {
                for item in items {
                    self.expr(item, flow, fctx)?;
                }
                Ty::List
            }
            ExprKind::Dict(pairs) => {
                for (k, v) in pairs {
                    let kt = self.expr(k, flow, fctx)?;
                    if !kt.satisfies(Ty::Str) {
                        return Err(self.err(line, "dict keys must be strings".into()));
                    }
                    self.expr(v, flow, fctx)?;
                }
                Ty::Dict
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let lt = self.expr(lhs, flow, fctx)?;
                let rt = self.expr(rhs, flow, fctx)?;
                self.check_binary(*op, lt, rt, line)?
            }
            ExprKind::Unary(UnaryOp::Neg, operand) => {
                let t = self.expr(operand, flow, fctx)?;
                if !t.is_num() {
                    return Err(self.err(line, format!("cannot negate {}", t.name())));
                }
                t
            }
            ExprKind::Unary(UnaryOp::Not, operand) => {
                self.expr(operand, flow, fctx)?;
                Ty::Bool
            }
            ExprKind::Call(callee, args) => {
                let mut arg_tys = Vec::with_capacity(args.len());
                for a in args {
                    arg_tys.push(self.expr(a, flow, fctx)?);
                }
                self.check_call(callee, &arg_tys, line, flow, fctx)?
            }
            ExprKind::MethodCall(obj, _method, args) => {
                let ot = self.expr(obj, flow, fctx)?;
                for a in args {
                    self.expr(a, flow, fctx)?;
                }
                if matches!(ot, Ty::Int | Ty::Float | Ty::Bool | Ty::None | Ty::Func) {
                    return Err(self.err(line, format!("{} has no methods", ot.name())));
                }
                Ty::Any
            }
            ExprKind::Index(obj, key) => {
                let ot = self.expr(obj, flow, fctx)?;
                let kt = self.expr(key, flow, fctx)?;
                match ot {
                    Ty::List | Ty::Str => {
                        if !kt.satisfies(Ty::Int) || kt == Ty::Float {
                            return Err(self.err(
                                line,
                                format!("list indices must be ints, not {}", kt.name()),
                            ));
                        }
                        if ot == Ty::Str {
                            Ty::Str
                        } else {
                            Ty::Any
                        }
                    }
                    Ty::Dict => {
                        if !kt.satisfies(Ty::Str) {
                            return Err(self.err(line, "dict keys must be strings".into()));
                        }
                        Ty::Any
                    }
                    Ty::Any => Ty::Any,
                    other => {
                        return Err(self.err(line, format!("{} is not subscriptable", other.name())))
                    }
                }
            }
            ExprKind::ListComp {
                element,
                vars,
                iterable,
                condition,
            } => {
                let it = self.expr(iterable, flow, fctx)?;
                if !matches!(it, Ty::Any | Ty::List | Ty::Str | Ty::Dict) {
                    return Err(self.err(line, format!("{} is not iterable", it.name())));
                }
                let elem = if it == Ty::Str || it == Ty::Dict {
                    Ty::Str
                } else {
                    Ty::Any
                };
                if vars.len() == 1 {
                    flow.assign(&vars[0], elem);
                } else {
                    for v in vars {
                        flow.assign(v, Ty::Any);
                    }
                }
                if let Some(cond) = condition {
                    self.expr(cond, flow, fctx)?;
                }
                self.expr(element, flow, fctx)?;
                // Comprehension vars leak into the enclosing scope but
                // only run when the iterable is non-empty.
                for v in vars {
                    flow.weaken(v, Ty::Any);
                }
                Ty::List
            }
            ExprKind::Slice(obj, lo, hi) => {
                let ot = self.expr(obj, flow, fctx)?;
                for bound in [lo, hi].into_iter().flatten() {
                    let bt = self.expr(bound, flow, fctx)?;
                    if !bt.satisfies(Ty::Int) || bt == Ty::Float {
                        return Err(self.err(line, "slice bounds must be ints".into()));
                    }
                }
                match ot {
                    Ty::List => Ty::List,
                    Ty::Str => Ty::Str,
                    Ty::Any => Ty::Any,
                    other => {
                        return Err(self.err(line, format!("{} cannot be sliced", other.name())))
                    }
                }
            }
        };
        Ok(ty)
    }

    /// Checks a call expression. Tool and builtin calls resolve only when
    /// the name cannot be shadowed by any assignment in the program (the
    /// interpreter resolves shadowing dynamically; a name assigned
    /// *anywhere* might shadow by call time, so such calls are left to
    /// runtime).
    fn check_call(
        &self,
        callee: &Expr,
        args: &[Ty],
        line: usize,
        flow: &mut Flow,
        fctx: Option<&FnCtx>,
    ) -> Result<Ty, ScriptError> {
        if let ExprKind::Name(name) = &callee.kind {
            let shadowable = self.defined.contains(name) || self.env.globals.contains_key(name);
            if !shadowable {
                if let Some(sig) = self.env.tools.get(name) {
                    if !self.env.unchecked.contains(name) {
                        if sig.params.len() != args.len() {
                            return Err(self.err(
                                line,
                                format!(
                                    "{}() takes {} argument{} but {} {} given",
                                    name,
                                    sig.params.len(),
                                    if sig.params.len() == 1 { "" } else { "s" },
                                    args.len(),
                                    if args.len() == 1 { "was" } else { "were" },
                                ),
                            ));
                        }
                        for ((pname, pty), aty) in sig.params.iter().zip(args) {
                            if !aty.satisfies(*pty) {
                                return Err(self.err(
                                    line,
                                    format!(
                                        "{}() argument '{}' expects {}, got {}",
                                        name,
                                        pname,
                                        pty.name(),
                                        aty.name()
                                    ),
                                ));
                            }
                        }
                    }
                    return Ok(sig.ret);
                }
                if let Some(ret) = builtin(name) {
                    return Ok(ret);
                }
            }
            // A (possibly shadowed) variable callee: ensure it resolves.
            let ty = self.use_name(name, callee.line, flow, fctx)?;
            if matches!(
                ty,
                Ty::Int | Ty::Float | Ty::Str | Ty::Bool | Ty::None | Ty::List | Ty::Dict
            ) {
                return Err(self.err(line, format!("{} is not callable", ty.name())));
            }
            return Ok(Ty::Any);
        }
        let ty = self.expr(callee, flow, fctx)?;
        if matches!(
            ty,
            Ty::Int | Ty::Float | Ty::Str | Ty::Bool | Ty::None | Ty::List | Ty::Dict
        ) {
            return Err(self.err(line, format!("{} is not callable", ty.name())));
        }
        Ok(Ty::Any)
    }

    /// Checks a binary operation, mirroring the interpreter's `binary`
    /// kernel: an error is reported only for operand-type combinations
    /// the interpreter always rejects.
    fn check_binary(&self, op: BinOp, l: Ty, r: Ty, line: usize) -> Result<Ty, ScriptError> {
        use Ty::*;
        let err = |m: String| Err::<Ty, _>(self.err(line, m));
        match op {
            BinOp::Add => match (l, r) {
                (Any, _) | (_, Any) => Ok(Any),
                (Int, Int) => Ok(Int),
                (Str, Str) => Ok(Str),
                (List, List) => Ok(List),
                (Int | Float, Int | Float) => Ok(Float),
                _ => err(format!("cannot add {} and {}", l.name(), r.name())),
            },
            BinOp::Sub => match (l, r) {
                (Any, _) | (_, Any) => Ok(Any),
                (Int, Int) => Ok(Int),
                (Int | Float, Int | Float) => Ok(Float),
                _ => err(format!(
                    "unsupported operand types: {} and {}",
                    l.name(),
                    r.name()
                )),
            },
            BinOp::Mul => match (l, r) {
                (Any, _) | (_, Any) => Ok(Any),
                (Int, Int) => Ok(Int),
                (Str, Int) | (Int, Str) => Ok(Str),
                (Int | Float, Int | Float) => Ok(Float),
                _ => err(format!(
                    "unsupported operand types: {} and {}",
                    l.name(),
                    r.name()
                )),
            },
            BinOp::Div => match (l, r) {
                (Any, _) | (_, Any) => Ok(Any),
                (Int | Float, Int | Float) => Ok(Float),
                _ => err(format!("cannot divide {} by {}", l.name(), r.name())),
            },
            BinOp::FloorDiv => match (l, r) {
                (Any, _) | (_, Any) => Ok(Any),
                (Int, Int) => Ok(Int),
                (Int | Float, Int | Float) => Ok(Float),
                _ => err("'//' needs numbers".into()),
            },
            BinOp::Mod => match (l, r) {
                (Any, _) | (_, Any) => Ok(Any),
                (Int, Int) => Ok(Int),
                _ => err("'%' needs ints".into()),
            },
            BinOp::Eq | BinOp::NotEq => Ok(Bool),
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let comparable = matches!(
                    (l, r),
                    (Any, _) | (_, Any) | (Int | Float, Int | Float) | (Str, Str)
                );
                if comparable {
                    Ok(Bool)
                } else {
                    err(format!("cannot compare {} and {}", l.name(), r.name()))
                }
            }
            BinOp::In | BinOp::NotIn => {
                let supported = matches!(r, Any | Str | List | Dict);
                if !supported {
                    return err(format!(
                        "'in' not supported between {} and {}",
                        l.name(),
                        r.name()
                    ));
                }
                Ok(Bool)
            }
            // Short-circuit operators accept anything and yield one of
            // their operands.
            BinOp::And | BinOp::Or => Ok(l.join(r)),
        }
    }

    fn check_index_store(&self, obj: Ty, key: Ty, line: usize) -> Result<(), ScriptError> {
        match obj {
            Ty::Any | Ty::List | Ty::Dict => {
                if obj == Ty::Dict && !key.satisfies(Ty::Str) {
                    return Err(self.err(
                        line,
                        format!("cannot assign into dict with {} key", key.name()),
                    ));
                }
                if obj == Ty::List && (!key.satisfies(Ty::Int) || key == Ty::Float) {
                    return Err(self.err(
                        line,
                        format!("cannot assign into list with {} key", key.name()),
                    ));
                }
                Ok(())
            }
            other => Err(self.err(
                line,
                format!(
                    "cannot assign into {} with {} key",
                    other.name(),
                    key.name()
                ),
            )),
        }
    }
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
