//! An independent Pyrite oracle for the differential suite.
//!
//! A tree-walker over the parser's AST (the shape of a classic
//! `interpret_stmt` / `interpret_expr` evaluator) with its own value
//! type and its own kernels for operators, indexing, slicing, iteration,
//! builtins, methods and fuel, written from the language rules in
//! `docs/PYRITE.md`. It takes nothing from `aida_script` but the AST, so
//! a kernel bug in the VM cannot hide behind a kernel both sides share.
//!
//! Fuel ("Fuel metering" in `docs/PYRITE.md`): one unit per statement
//! entered and one per expression node evaluated, each charged before
//! the node's children run; one per list-comprehension element; one for
//! a call's callee when the name is bound to a value rather than left to
//! a tool or builtin. `range` charges nothing but fails when it would
//! make more elements than fuel remains. A charge at zero fuel fails.
//!
//! Bytes ("Limits & errors"): each run may allocate 16 MiB through the
//! operations that grow values — string `+`, `*`, `join`, `split` and
//! `replace`, list `+`, `append`, `extend`, comprehension elements and
//! `range` — at a string's UTF-8 length and 8 bytes per list element,
//! charged from the operands before the operation runs.
//!
//! The oracle panics on what it does not implement (a method name
//! outside [`METHODS`]) rather than guess; `differential.rs` checks
//! [`BUILTINS`] against the crate's builtin table.

use aida_script::ast::{BinOp, Expr, ExprKind, Program, Stmt, StmtKind, Target, UnaryOp};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

/// The bytes one run may allocate growing values.
const RUN_BYTES: u64 = 16 << 20;

/// What one list element costs against [`RUN_BYTES`].
const ELEMENT_BYTES: u64 = 8;

/// The builtins the oracle implements, sorted.
pub const BUILTINS: &[&str] = &[
    "abs",
    "bool",
    "enumerate",
    "float",
    "int",
    "len",
    "max",
    "min",
    "print",
    "range",
    "round",
    "sorted",
    "str",
    "sum",
];

/// The method names the oracle implements, on whichever receiver types
/// carry them. Any other name panics.
pub const METHODS: &[&str] = &[
    "append",
    "count",
    "endswith",
    "extend",
    "find",
    "get",
    "index",
    "isdigit",
    "items",
    "join",
    "keys",
    "lower",
    "pop",
    "replace",
    "reverse",
    "sort",
    "split",
    "splitlines",
    "startswith",
    "strip",
    "upper",
    "values",
];

/// Nested user-function calls allowed at once.
const MAX_DEPTH: usize = 64;

/// An oracle value. Lists and dicts are shared and mutable.
#[derive(Clone)]
pub enum Value {
    None,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Rc<str>),
    List(Rc<RefCell<Vec<Value>>>),
    Dict(Rc<RefCell<BTreeMap<String, Value>>>),
    Func(Rc<Func>),
}

/// A function a `def` made: its AST, walked on every call.
pub struct Func {
    name: String,
    params: Vec<String>,
    body: Vec<Stmt>,
}

/// A run-time error, rendered the way the crate renders its errors.
#[derive(Debug)]
pub enum Error {
    Type(usize, String),
    Name(usize, String),
    Index(usize, String),
    Arith(usize, String),
    Syntax(usize, String),
    Fuel,
    Bytes,
    Depth,
    Tool(String),
}

type Res<T> = Result<T, Error>;

/// A host tool.
pub type Tool = Box<dyn Fn(&[Value]) -> Res<Value>>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Type(line, m) => write!(f, "type error (line {line}): {m}"),
            Error::Name(line, n) => write!(f, "name error (line {line}): '{n}' is not defined"),
            Error::Index(line, m) => write!(f, "index error (line {line}): {m}"),
            Error::Arith(line, m) => write!(f, "arithmetic error (line {line}): {m}"),
            Error::Syntax(line, m) => write!(f, "syntax error (line {line}): {m}"),
            Error::Fuel => write!(f, "execution budget exhausted"),
            Error::Bytes => write!(f, "byte allowance exhausted"),
            Error::Depth => write!(f, "maximum recursion depth exceeded"),
            Error::Tool(m) => write!(f, "tool error: {m}"),
        }
    }
}

fn type_err(line: usize, message: impl Into<String>) -> Error {
    Error::Type(line, message.into())
}

fn loop_misuse(line: usize) -> Error {
    Error::Syntax(line, "'break'/'continue' outside loop".into())
}

impl Value {
    pub fn str(s: &str) -> Value {
        Value::Str(s.into())
    }

    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Rc::new(RefCell::new(items)))
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "NoneType",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Dict(_) => "dict",
            Value::Func(_) => "function",
        }
    }

    fn truthy(&self) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(items) => !items.borrow().is_empty(),
            Value::Dict(entries) => !entries.borrow().is_empty(),
            Value::Func(_) => true,
        }
    }

    /// An int or float as `f64`; nothing else is a number.
    fn number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Index-like use: ints, bools, and integral finite floats.
    fn whole(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Float(f) if f.is_finite() && f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// `==`: same kind and contents; ints and floats compare as numbers.
    fn same(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::None, Value::None) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => *i as f64 == *f,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.same(y))
            }
            (Value::Dict(a), Value::Dict(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.same(vb))
            }
            _ => false,
        }
    }

    /// Ordering: strings, bools and lists (lexicographically) among
    /// themselves, numbers as `f64`; anything else is unordered.
    fn order(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::List(a), Value::List(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.order(y)? {
                        Ordering::Equal => {}
                        unequal => return Some(unequal),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => self.number()?.partial_cmp(&other.number()?),
        }
    }

    /// Strings quoted, everything else as displayed.
    fn repr(&self) -> String {
        match self {
            Value::Str(s) => format!("'{s}'"),
            other => other.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => write!(f, "None"),
            Value::Bool(true) => write!(f, "True"),
            Value::Bool(false) => write!(f, "False"),
            Value::Int(i) => write!(f, "{i}"),
            // Whole floats keep one decimal, as Python prints them.
            Value::Float(v) if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 => {
                write!(f, "{v:.1}")
            }
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                let parts: Vec<String> = items.borrow().iter().map(Value::repr).collect();
                write!(f, "[{}]", parts.join(", "))
            }
            Value::Dict(entries) => {
                let parts: Vec<String> = entries
                    .borrow()
                    .iter()
                    .map(|(k, v)| format!("'{k}': {}", v.repr()))
                    .collect();
                write!(f, "{{{}}}", parts.join(", "))
            }
            Value::Func(func) => write!(f, "<function {}>", func.name),
        }
    }
}

/// How a statement ended.
enum Flow {
    Next,
    Break,
    Continue,
    Return(Value),
}

/// The oracle: globals, the locals of active calls, tools, fuel and
/// captured output. Like the crate's interpreter it runs programs in
/// sequence, globals persisting between them.
pub struct Oracle {
    globals: HashMap<String, Value>,
    /// Locals of the active user-function calls, innermost last.
    frames: Vec<HashMap<String, Value>>,
    tools: HashMap<String, Tool>,
    budget: u64,
    /// Fuel left.
    pub fuel: u64,
    /// Bytes this run may still allocate.
    bytes: u64,
    /// Captured `print` lines.
    pub output: Vec<String>,
}

impl Oracle {
    /// An oracle that gives each program `budget` fuel.
    pub fn new(budget: u64) -> Oracle {
        Oracle {
            globals: HashMap::new(),
            frames: Vec::new(),
            tools: HashMap::new(),
            budget,
            fuel: budget,
            bytes: RUN_BYTES,
            output: Vec::new(),
        }
    }

    /// Binds a host tool under `name`.
    pub fn tool(&mut self, name: &str, tool: Tool) {
        self.tools.insert(name.to_string(), tool);
    }

    /// Runs a program with a fresh budget: the value of its last
    /// top-level expression statement, or of a top-level `return`.
    pub fn run(&mut self, program: &Program) -> Res<Value> {
        self.fuel = self.budget;
        self.bytes = RUN_BYTES;
        self.frames.clear();
        let mut last = Value::None;
        for stmt in &program.body {
            if let StmtKind::Expr(e) = &stmt.kind {
                self.charge()?;
                last = self.eval(e)?;
                continue;
            }
            match self.exec(stmt)? {
                Flow::Next => {}
                Flow::Return(v) => return Ok(v),
                Flow::Break | Flow::Continue => return Err(loop_misuse(stmt.line)),
            }
        }
        Ok(last)
    }

    /// Spends `bytes` of the run's allowance.
    fn spend(&mut self, bytes: u64) -> Res<()> {
        if bytes > self.bytes {
            return Err(Error::Bytes);
        }
        self.bytes -= bytes;
        Ok(())
    }

    /// `binary`, after paying for the value it grows.
    fn grow_binary(&mut self, op: BinOp, l: &Value, r: &Value, line: usize) -> Res<Value> {
        self.spend(binary_bytes(op, l, r))?;
        binary(op, l, r, line)
    }

    fn charge(&mut self) -> Res<()> {
        if self.fuel == 0 {
            return Err(Error::Fuel);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        self.frames
            .last()
            .and_then(|frame| frame.get(name))
            .or_else(|| self.globals.get(name))
            .cloned()
    }

    /// Binds in the innermost call's locals, or globally at top level.
    fn bind(&mut self, name: &str, value: Value) {
        match self.frames.last_mut() {
            Some(frame) => frame.insert(name.to_string(), value),
            None => self.globals.insert(name.to_string(), value),
        };
    }

    /// Loop targets: one name takes the element; several unpack a list
    /// of the same length.
    fn unpack(&mut self, vars: &[String], item: Value, line: usize) -> Res<()> {
        if let [name] = vars {
            self.bind(name, item);
            return Ok(());
        }
        let Value::List(items) = &item else {
            return Err(type_err(
                line,
                format!(
                    "cannot unpack {} into {} names",
                    item.type_name(),
                    vars.len()
                ),
            ));
        };
        let items = items.borrow().clone();
        if items.len() != vars.len() {
            return Err(type_err(
                line,
                format!(
                    "cannot unpack {} values into {} names",
                    items.len(),
                    vars.len()
                ),
            ));
        }
        for (name, value) in vars.iter().zip(items) {
            self.bind(name, value);
        }
        Ok(())
    }

    fn block(&mut self, body: &[Stmt]) -> Res<Flow> {
        for stmt in body {
            match self.exec(stmt)? {
                Flow::Next => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Next)
    }

    fn exec(&mut self, stmt: &Stmt) -> Res<Flow> {
        self.charge()?;
        let line = stmt.line;
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.eval(e)?;
            }
            StmtKind::Assign(Target::Name(name), e) => {
                let value = self.eval(e)?;
                self.bind(name, value);
            }
            StmtKind::Assign(Target::Index(obj, key), e) => {
                let value = self.eval(e)?;
                let obj = self.eval(obj)?;
                let key = self.eval(key)?;
                store(&obj, &key, value, line)?;
            }
            StmtKind::AugAssign(Target::Name(name), op, e) => {
                let rhs = self.eval(e)?;
                let current = self
                    .lookup(name)
                    .ok_or_else(|| Error::Name(line, name.clone()))?;
                let value = self.grow_binary(*op, &current, &rhs, line)?;
                self.bind(name, value);
            }
            StmtKind::AugAssign(Target::Index(obj, key), op, e) => {
                // The container and key are evaluated once.
                let rhs = self.eval(e)?;
                let obj = self.eval(obj)?;
                let key = self.eval(key)?;
                let current = index(&obj, &key, line)?;
                let value = self.grow_binary(*op, &current, &rhs, line)?;
                store(&obj, &key, value, line)?;
            }
            StmtKind::If(arms, orelse) => {
                for (cond, body) in arms {
                    if self.eval(cond)?.truthy() {
                        return self.block(body);
                    }
                }
                if let Some(body) = orelse {
                    return self.block(body);
                }
            }
            StmtKind::While(cond, body) => {
                while self.eval(cond)?.truthy() {
                    match self.block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Next | Flow::Continue => {}
                    }
                }
            }
            StmtKind::For(vars, iterable, body) => {
                let items = elements(&self.eval(iterable)?, line)?;
                for item in items {
                    self.unpack(vars, item, line)?;
                    match self.block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Next | Flow::Continue => {}
                    }
                }
            }
            StmtKind::Def(name, params, body) => {
                let func = Func {
                    name: name.clone(),
                    params: params.clone(),
                    body: body.clone(),
                };
                self.bind(name, Value::Func(Rc::new(func)));
            }
            StmtKind::Return(e) => {
                let value = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::None,
                };
                return Ok(Flow::Return(value));
            }
            StmtKind::Break => return Ok(Flow::Break),
            StmtKind::Continue => return Ok(Flow::Continue),
            StmtKind::Pass => {}
        }
        Ok(Flow::Next)
    }

    fn eval_all(&mut self, exprs: &[Expr]) -> Res<Vec<Value>> {
        exprs.iter().map(|e| self.eval(e)).collect()
    }

    fn eval(&mut self, e: &Expr) -> Res<Value> {
        self.charge()?;
        let line = e.line;
        Ok(match &e.kind {
            ExprKind::Int(i) => Value::Int(*i),
            ExprKind::Float(f) => Value::Float(*f),
            ExprKind::Str(s) => Value::str(s),
            ExprKind::Bool(b) => Value::Bool(*b),
            ExprKind::None => Value::None,
            ExprKind::Name(name) => self
                .lookup(name)
                .ok_or_else(|| Error::Name(line, name.clone()))?,
            ExprKind::List(items) => Value::list(self.eval_all(items)?),
            ExprKind::Dict(pairs) => {
                let mut entries = BTreeMap::new();
                for (k, v) in pairs {
                    let Value::Str(key) = self.eval(k)? else {
                        return Err(type_err(line, "dict keys must be strings"));
                    };
                    let value = self.eval(v)?;
                    entries.insert(key.to_string(), value);
                }
                Value::Dict(Rc::new(RefCell::new(entries)))
            }
            ExprKind::Binary(BinOp::And, a, b) => {
                let left = self.eval(a)?;
                if left.truthy() {
                    self.eval(b)?
                } else {
                    left
                }
            }
            ExprKind::Binary(BinOp::Or, a, b) => {
                let left = self.eval(a)?;
                if left.truthy() {
                    left
                } else {
                    self.eval(b)?
                }
            }
            ExprKind::Binary(op, a, b) => {
                let left = self.eval(a)?;
                let right = self.eval(b)?;
                self.grow_binary(*op, &left, &right, line)?
            }
            ExprKind::Unary(UnaryOp::Neg, a) => match self.eval(a)? {
                Value::Int(i) => Value::Int(-i),
                Value::Float(f) => Value::Float(-f),
                other => {
                    return Err(type_err(
                        line,
                        format!("cannot negate {}", other.type_name()),
                    ))
                }
            },
            ExprKind::Unary(UnaryOp::Not, a) => Value::Bool(!self.eval(a)?.truthy()),
            ExprKind::Call(callee, args) => self.call(callee, args, line)?,
            ExprKind::MethodCall(obj, name, args) => {
                let obj = self.eval(obj)?;
                let args = self.eval_all(args)?;
                self.spend(method_bytes(&obj, name, &args))?;
                method(&obj, name, &args, line)?
            }
            ExprKind::Index(obj, key) => {
                let obj = self.eval(obj)?;
                let key = self.eval(key)?;
                index(&obj, &key, line)?
            }
            ExprKind::ListComp {
                element,
                vars,
                iterable,
                condition,
            } => {
                let items = elements(&self.eval(iterable)?, line)?;
                let mut out = Vec::new();
                for item in items {
                    self.charge()?;
                    self.unpack(vars, item, line)?;
                    if let Some(cond) = condition {
                        if !self.eval(cond)?.truthy() {
                            continue;
                        }
                    }
                    let value = self.eval(element)?;
                    self.spend(ELEMENT_BYTES)?;
                    out.push(value);
                }
                Value::list(out)
            }
            ExprKind::Slice(obj, lo, hi) => {
                let obj = self.eval(obj)?;
                let lo = self.slice_bound(lo.as_deref(), line)?;
                let hi = self.slice_bound(hi.as_deref(), line)?;
                slice(&obj, lo, hi, line)?
            }
        })
    }

    fn slice_bound(&mut self, bound: Option<&Expr>, line: usize) -> Res<Option<i64>> {
        let Some(e) = bound else {
            return Ok(None);
        };
        match self.eval(e)?.whole() {
            Some(i) => Ok(Some(i)),
            None => Err(type_err(line, "slice bounds must be ints")),
        }
    }

    /// A call. Arguments first; then a name nothing binds goes to a tool
    /// or a builtin without charging for the name, and any other callee
    /// is evaluated (and charged) like an expression.
    fn call(&mut self, callee: &Expr, args: &[Expr], line: usize) -> Res<Value> {
        let args = self.eval_all(args)?;
        if let ExprKind::Name(name) = &callee.kind {
            if self.lookup(name).is_none() {
                if let Some(tool) = self.tools.get(name) {
                    return tool(&args);
                }
                if BUILTINS.contains(&name.as_str()) {
                    return self.builtin(name, &args, line);
                }
            }
        }
        let func = match self.eval(callee)? {
            Value::Func(func) => func,
            other => {
                return Err(type_err(
                    line,
                    format!("{} is not callable", other.type_name()),
                ))
            }
        };
        if func.params.len() != args.len() {
            return Err(type_err(
                line,
                format!(
                    "{}() takes {} arguments but {} were given",
                    func.name,
                    func.params.len(),
                    args.len()
                ),
            ));
        }
        if self.frames.len() >= MAX_DEPTH {
            return Err(Error::Depth);
        }
        self.frames
            .push(func.params.iter().cloned().zip(args).collect());
        let result = self.body(&func.body);
        self.frames.pop();
        result
    }

    fn body(&mut self, body: &[Stmt]) -> Res<Value> {
        for stmt in body {
            match self.exec(stmt)? {
                Flow::Next => {}
                Flow::Return(v) => return Ok(v),
                Flow::Break | Flow::Continue => return Err(loop_misuse(stmt.line)),
            }
        }
        Ok(Value::None)
    }

    fn builtin(&mut self, name: &str, args: &[Value], line: usize) -> Res<Value> {
        let arity = |want: &str| {
            type_err(
                line,
                format!("{name}() expects {want} argument(s), got {}", args.len()),
            )
        };
        let one = || match args {
            [v] => Ok(v),
            _ => Err(arity("1")),
        };
        Ok(match name {
            "len" => match one()? {
                Value::Str(s) => Value::Int(s.chars().count() as i64),
                Value::List(items) => Value::Int(items.borrow().len() as i64),
                Value::Dict(entries) => Value::Int(entries.borrow().len() as i64),
                v => return Err(type_err(line, format!("len() of {}", v.type_name()))),
            },
            "str" => Value::str(&one()?.to_string()),
            "int" => match one()? {
                Value::Int(i) => Value::Int(*i),
                Value::Float(f) => Value::Int(*f as i64),
                Value::Bool(b) => Value::Int(i64::from(*b)),
                Value::Str(s) => {
                    let digits = without_commas(s);
                    match (digits.parse::<i64>(), digits.parse::<f64>()) {
                        (Ok(i), _) => Value::Int(i),
                        (_, Ok(f)) => Value::Int(f as i64),
                        _ => return Err(type_err(line, format!("int() cannot parse '{s}'"))),
                    }
                }
                v => return Err(type_err(line, format!("int() of {}", v.type_name()))),
            },
            "float" => match one()? {
                Value::Str(s) => match without_commas(s).parse::<f64>() {
                    Ok(f) => Value::Float(f),
                    Err(_) => return Err(type_err(line, format!("float() cannot parse '{s}'"))),
                },
                Value::Bool(b) => Value::Float(if *b { 1.0 } else { 0.0 }),
                v => match v.number() {
                    Some(f) => Value::Float(f),
                    None => return Err(type_err(line, format!("float() of {}", v.type_name()))),
                },
            },
            "bool" => Value::Bool(one()?.truthy()),
            "abs" => match one()? {
                Value::Int(i) => Value::Int(i.abs()),
                Value::Float(f) => Value::Float(f.abs()),
                v => return Err(type_err(line, format!("abs() of {}", v.type_name()))),
            },
            "round" => {
                let real = |v: &Value| match v {
                    Value::Bool(b) => Ok(f64::from(u8::from(*b))),
                    v => v.number().ok_or_else(|| arity("numeric")),
                };
                match args {
                    [v] => Value::Int(real(v)?.round() as i64),
                    [v, digits] => {
                        let x = real(v)?;
                        let d = digits.whole().ok_or_else(|| arity("numeric"))?;
                        let scale = 10f64.powi(d as i32);
                        Value::Float((x * scale).round() / scale)
                    }
                    _ => return Err(arity("1 or 2")),
                }
            }
            "sum" => {
                let Value::List(items) = one()? else {
                    return Err(type_err(line, "sum() needs a list"));
                };
                let (mut ints, mut reals, mut any_float) = (0i64, 0f64, false);
                for item in items.borrow().iter() {
                    match item {
                        Value::Int(i) => {
                            ints = ints.wrapping_add(*i);
                            reals += *i as f64;
                        }
                        Value::Float(f) => {
                            any_float = true;
                            reals += f;
                        }
                        v => {
                            return Err(type_err(
                                line,
                                format!("sum() of list containing {}", v.type_name()),
                            ))
                        }
                    }
                }
                if any_float {
                    Value::Float(reals)
                } else {
                    Value::Int(ints)
                }
            }
            "min" | "max" => {
                let items = match args {
                    [Value::List(items)] => items.borrow().clone(),
                    _ if args.len() >= 2 => args.to_vec(),
                    _ => {
                        return Err(type_err(
                            line,
                            format!("{name}() needs a list or 2+ arguments"),
                        ))
                    }
                };
                let Some((first, rest)) = items.split_first() else {
                    return Err(type_err(line, format!("{name}() of empty sequence")));
                };
                let wanted = if name == "min" {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                let mut best = first;
                for item in rest {
                    let ord = item
                        .order(best)
                        .ok_or_else(|| type_err(line, "incomparable values"))?;
                    if ord == wanted {
                        best = item;
                    }
                }
                best.clone()
            }
            "sorted" => {
                let Value::List(items) = one()? else {
                    return Err(type_err(line, "sorted() needs a list"));
                };
                let mut items = items.borrow().clone();
                sort(&mut items).map_err(|()| type_err(line, "sorted() of incomparable values"))?;
                Value::list(items)
            }
            "enumerate" => {
                let Value::List(items) = one()? else {
                    return Err(type_err(line, "enumerate() needs a list"));
                };
                let pairs = items
                    .borrow()
                    .iter()
                    .enumerate()
                    .map(|(i, item)| Value::list(vec![Value::Int(i as i64), item.clone()]))
                    .collect();
                Value::list(pairs)
            }
            "range" => {
                if args.is_empty() || args.len() > 3 {
                    return Err(arity("1-3"));
                }
                let ints = args
                    .iter()
                    .map(|a| a.whole().ok_or_else(|| arity("int")))
                    .collect::<Res<Vec<i64>>>()?;
                let (start, stop, step) = match ints[..] {
                    [stop] => (0, stop, 1),
                    [start, stop] => (start, stop, 1),
                    [start, stop, step] => (start, stop, step),
                    _ => unreachable!("one to three arguments"),
                };
                if step == 0 {
                    return Err(Error::Arith(line, "range() step cannot be zero".into()));
                }
                let span = if step > 0 { stop - start } else { start - stop };
                let count = if span <= 0 {
                    0
                } else {
                    ((span - 1) / step.abs() + 1) as u64
                };
                if count > self.fuel {
                    return Err(Error::Fuel);
                }
                self.spend(count * ELEMENT_BYTES)?;
                Value::list(
                    (0..count as i64)
                        .map(|k| Value::Int(start + k * step))
                        .collect(),
                )
            }
            "print" => {
                let parts: Vec<String> = args.iter().map(Value::to_string).collect();
                self.output.push(parts.join(" "));
                Value::None
            }
            other => unreachable!("`{other}` is in BUILTINS but has no arm"),
        })
    }
}

fn without_commas(s: &str) -> String {
    s.trim().chars().filter(|c| *c != ',').collect()
}

/// A stable sort by [`Value::order`]; `Err` when two elements it
/// compares are unordered.
fn sort(items: &mut [Value]) -> Result<(), ()> {
    let mut unordered = false;
    items.sort_by(|a, b| {
        a.order(b).unwrap_or_else(|| {
            unordered = true;
            Ordering::Equal
        })
    });
    if unordered {
        Err(())
    } else {
        Ok(())
    }
}

/// What `for` and comprehensions iterate: list items, string
/// characters, dict keys in sorted order.
fn elements(value: &Value, line: usize) -> Res<Vec<Value>> {
    match value {
        Value::List(items) => Ok(items.borrow().clone()),
        Value::Str(s) => Ok(s.chars().map(|c| Value::str(&c.to_string())).collect()),
        Value::Dict(entries) => Ok(entries.borrow().keys().map(|k| Value::str(k)).collect()),
        other => Err(type_err(
            line,
            format!("{} is not iterable", other.type_name()),
        )),
    }
}

/// A list (or string) position: negative counts from the end.
fn position(key: &Value, len: usize, line: usize) -> Res<usize> {
    let Some(i) = key.whole() else {
        return Err(type_err(
            line,
            format!("list indices must be ints, not {}", key.type_name()),
        ));
    };
    let at = if i < 0 { len as i64 + i } else { i };
    if (0..len as i64).contains(&at) {
        Ok(at as usize)
    } else {
        Err(Error::Index(
            line,
            format!("list index {i} out of range (len {len})"),
        ))
    }
}

fn index(obj: &Value, key: &Value, line: usize) -> Res<Value> {
    match obj {
        Value::List(items) => {
            let items = items.borrow();
            Ok(items[position(key, items.len(), line)?].clone())
        }
        Value::Str(s) => {
            let chars: Vec<char> = s.chars().collect();
            let at = position(key, chars.len(), line)?;
            Ok(Value::str(&chars[at].to_string()))
        }
        Value::Dict(entries) => {
            let Value::Str(k) = key else {
                return Err(type_err(line, "dict keys must be strings"));
            };
            entries
                .borrow()
                .get(&**k)
                .cloned()
                .ok_or_else(|| Error::Index(line, format!("key '{k}' not found")))
        }
        other => Err(type_err(
            line,
            format!("{} is not subscriptable", other.type_name()),
        )),
    }
}

fn store(obj: &Value, key: &Value, value: Value, line: usize) -> Res<()> {
    match (obj, key) {
        (Value::List(items), _) if key.whole().is_some() => {
            let at = position(key, items.borrow().len(), line)?;
            items.borrow_mut()[at] = value;
        }
        (Value::Dict(entries), Value::Str(k)) => {
            entries.borrow_mut().insert(k.to_string(), value);
        }
        _ => {
            return Err(type_err(
                line,
                format!(
                    "cannot assign into {} with {} key",
                    obj.type_name(),
                    key.type_name()
                ),
            ))
        }
    }
    Ok(())
}

/// `obj[lo:hi]`: negative bounds count from the end, both clamp to the
/// sequence, and an end before the start is empty.
fn slice(obj: &Value, lo: Option<i64>, hi: Option<i64>, line: usize) -> Res<Value> {
    let range = |len: usize| {
        let clamp = |b: i64| {
            let b = if b < 0 { b + len as i64 } else { b };
            b.max(0).min(len as i64) as usize
        };
        let start = lo.map_or(0, clamp);
        let end = hi.map_or(len, clamp);
        start..end.max(start)
    };
    match obj {
        Value::List(items) => {
            let items = items.borrow();
            Ok(Value::list(items[range(items.len())].to_vec()))
        }
        Value::Str(s) => {
            let chars: Vec<char> = s.chars().collect();
            let part: String = chars[range(chars.len())].iter().collect();
            Ok(Value::str(&part))
        }
        other => Err(type_err(
            line,
            format!("{} cannot be sliced", other.type_name()),
        )),
    }
}

fn binary(op: BinOp, l: &Value, r: &Value, line: usize) -> Res<Value> {
    use Value::{Float, Int, List, Str};
    let names = || (l.type_name(), r.type_name());
    let numbers = || Some((l.number()?, r.number()?));
    // `-` and `*` on numbers: checked on two ints, float otherwise.
    let arith = |ints: fn(i64, i64) -> Option<i64>, reals: fn(f64, f64) -> f64| match (l, r) {
        (Int(a), Int(b)) => ints(*a, *b)
            .map(Int)
            .ok_or_else(|| Error::Arith(line, "integer overflow".into())),
        _ => match numbers() {
            Some((a, b)) => Ok(Float(reals(a, b))),
            None => {
                let (a, b) = names();
                Err(type_err(
                    line,
                    format!("unsupported operand types: {a} and {b}"),
                ))
            }
        },
    };
    let zero = |what: &str| Error::Arith(line, format!("{what} by zero"));
    Ok(match op {
        BinOp::Add => match (l, r) {
            (Int(a), Int(b)) => Int(a.wrapping_add(*b)),
            (Str(a), Str(b)) => Value::str(&format!("{a}{b}")),
            (List(a), List(b)) => {
                let mut items = a.borrow().clone();
                items.extend(b.borrow().iter().cloned());
                Value::list(items)
            }
            _ => match numbers() {
                Some((a, b)) => Float(a + b),
                None => {
                    let (a, b) = names();
                    return Err(type_err(line, format!("cannot add {a} and {b}")));
                }
            },
        },
        BinOp::Sub => arith(i64::checked_sub, |a, b| a - b)?,
        BinOp::Mul => match (l, r) {
            (Str(s), Int(n)) | (Int(n), Str(s)) => Value::str(&s.repeat((*n).max(0) as usize)),
            _ => arith(i64::checked_mul, |a, b| a * b)?,
        },
        BinOp::Div => {
            let Some((a, b)) = numbers() else {
                let (a, b) = names();
                return Err(type_err(line, format!("cannot divide {a} by {b}")));
            };
            if b == 0.0 {
                return Err(zero("division"));
            }
            Float(a / b)
        }
        BinOp::FloorDiv => match (l, r) {
            (Int(_), Int(0)) => return Err(zero("division")),
            (Int(a), Int(b)) => Int(a.div_euclid(*b)),
            _ => match numbers() {
                Some((a, b)) if b != 0.0 => Float((a / b).floor()),
                Some(_) => return Err(zero("division")),
                None => return Err(type_err(line, "'//' needs numbers")),
            },
        },
        BinOp::Mod => match (l, r) {
            (Int(_), Int(0)) => return Err(zero("modulo")),
            (Int(a), Int(b)) => Int(a.rem_euclid(*b)),
            _ => return Err(type_err(line, "'%' needs ints")),
        },
        BinOp::Eq => Value::Bool(l.same(r)),
        BinOp::NotEq => Value::Bool(!l.same(r)),
        BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let Some(ord) = l.order(r) else {
                let (a, b) = names();
                return Err(type_err(line, format!("cannot compare {a} and {b}")));
            };
            Value::Bool(match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::LtEq => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                _ => ord != Ordering::Less,
            })
        }
        BinOp::In | BinOp::NotIn => {
            let found = match (l, r) {
                (Str(needle), Str(hay)) => hay.contains(&**needle),
                (item, List(items)) => items.borrow().iter().any(|x| x.same(item)),
                (Str(key), Value::Dict(entries)) => entries.borrow().contains_key(&**key),
                _ => {
                    let (a, b) = names();
                    return Err(type_err(
                        line,
                        format!("'in' not supported between {a} and {b}"),
                    ));
                }
            };
            Value::Bool(found == (op == BinOp::In))
        }
        BinOp::And | BinOp::Or => unreachable!("`and`/`or` short-circuit in eval"),
    })
}

/// What `l op r` grows: a concatenated or repeated string, or a
/// concatenated list.
fn binary_bytes(op: BinOp, l: &Value, r: &Value) -> u64 {
    match (op, l, r) {
        (BinOp::Add, Value::Str(a), Value::Str(b)) => (a.len() + b.len()) as u64,
        (BinOp::Add, Value::List(a), Value::List(b)) => {
            (a.borrow().len() + b.borrow().len()) as u64 * ELEMENT_BYTES
        }
        (BinOp::Mul, Value::Str(s), Value::Int(n)) | (BinOp::Mul, Value::Int(n), Value::Str(s)) => {
            (s.len() as u64).saturating_mul((*n).max(0) as u64)
        }
        _ => 0,
    }
}

/// What a method call grows; zero for a call that grows nothing or
/// fails on its argument types.
fn method_bytes(obj: &Value, name: &str, args: &[Value]) -> u64 {
    let len = |s: &str| s.len() as u64;
    match (obj, name, args) {
        (Value::Str(s), "split", []) => {
            len(s) + s.split_whitespace().count() as u64 * ELEMENT_BYTES
        }
        (Value::Str(s), "split", [Value::Str(sep)]) => {
            len(s) + s.split(&**sep).count() as u64 * ELEMENT_BYTES
        }
        (Value::Str(s), "replace", [Value::Str(from), Value::Str(to)]) => {
            let hits = s.matches(&**from).count() as u64;
            len(s) - hits * len(from) + hits * len(to)
        }
        (Value::Str(sep), "join", [Value::List(items)]) => {
            let items = items.borrow();
            let mut total = len(sep) * items.len().saturating_sub(1) as u64;
            for item in items.iter() {
                match item {
                    Value::Str(part) => total += len(part),
                    _ => return 0,
                }
            }
            total
        }
        (Value::List(_), "append", [_]) => ELEMENT_BYTES,
        (Value::List(_), "extend", [Value::List(more)]) => {
            more.borrow().len() as u64 * ELEMENT_BYTES
        }
        _ => 0,
    }
}

/// A method call. Unknown names panic: the oracle does not guess.
fn method(obj: &Value, name: &str, args: &[Value], line: usize) -> Res<Value> {
    assert!(
        METHODS.contains(&name),
        "the oracle does not implement method `{name}`"
    );
    let missing = |ty: &str| type_err(line, format!("{ty} has no method {name}/{}", args.len()));
    match obj {
        Value::Str(s) => str_method(s, name, args, line)?.ok_or_else(|| missing("str")),
        Value::List(items) => list_method(items, name, args, line)?.ok_or_else(|| missing("list")),
        Value::Dict(entries) => {
            let key = |k: &Value| match k {
                Value::Str(k) => Ok(k.to_string()),
                _ => Err(type_err(line, "dict keys are strings")),
            };
            let entries = entries.borrow();
            Ok(match (name, args) {
                ("get", [k]) => entries.get(&key(k)?).cloned().unwrap_or(Value::None),
                ("get", [k, default]) => entries
                    .get(&key(k)?)
                    .cloned()
                    .unwrap_or_else(|| default.clone()),
                ("keys", []) => Value::list(entries.keys().map(|k| Value::str(k)).collect()),
                ("values", []) => Value::list(entries.values().cloned().collect()),
                ("items", []) => Value::list(
                    entries
                        .iter()
                        .map(|(k, v)| Value::list(vec![Value::str(k), v.clone()]))
                        .collect(),
                ),
                _ => return Err(missing("dict")),
            })
        }
        other => Err(type_err(
            line,
            format!("{} has no methods", other.type_name()),
        )),
    }
}

/// String methods; `Ok(None)` when `str` has no such method/arity.
fn str_method(s: &str, name: &str, args: &[Value], line: usize) -> Res<Option<Value>> {
    let text = |v: &Value, what: &str| match v {
        Value::Str(t) => Ok(t.clone()),
        _ => Err(type_err(line, what.to_string())),
    };
    let strs = |parts: Vec<&str>| Value::list(parts.into_iter().map(Value::str).collect());
    Ok(Some(match (name, args) {
        ("lower", []) => Value::str(&s.to_lowercase()),
        ("upper", []) => Value::str(&s.to_uppercase()),
        ("strip", []) => Value::str(s.trim()),
        ("split", []) => strs(s.split_whitespace().collect()),
        ("split", [sep]) => strs(
            s.split(&*text(sep, "split() separator must be str")?)
                .collect(),
        ),
        ("splitlines", []) => strs(s.lines().collect()),
        ("isdigit", []) => Value::Bool(!s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())),
        ("startswith", [p]) => Value::Bool(s.starts_with(&*text(p, "startswith() needs str")?)),
        ("endswith", [p]) => Value::Bool(s.ends_with(&*text(p, "endswith() needs str")?)),
        ("replace", [from, to]) => {
            let from = text(from, "replace() needs strs")?;
            let to = text(to, "replace() needs strs")?;
            Value::str(&s.replace(&*from, &to))
        }
        ("find", [needle]) => {
            let needle = text(needle, "find() needs str")?;
            Value::Int(
                s.find(&*needle)
                    .map_or(-1, |at| s[..at].chars().count() as i64),
            )
        }
        ("count", [needle]) => {
            let needle = text(needle, "count() needs str")?;
            if needle.is_empty() {
                Value::Int(s.chars().count() as i64 + 1)
            } else {
                Value::Int(s.matches(&*needle).count() as i64)
            }
        }
        ("join", [Value::List(items)]) => {
            let parts = items
                .borrow()
                .iter()
                .map(|v| text(v, "join() needs a list of strs"))
                .collect::<Res<Vec<Rc<str>>>>()?;
            Value::str(&parts.join(s))
        }
        _ => return Ok(None),
    }))
}

/// List methods; `Ok(None)` when `list` has no such method/arity.
fn list_method(
    items: &RefCell<Vec<Value>>,
    name: &str,
    args: &[Value],
    line: usize,
) -> Res<Option<Value>> {
    Ok(Some(match (name, args) {
        ("append", [v]) => {
            items.borrow_mut().push(v.clone());
            Value::None
        }
        ("extend", [Value::List(more)]) => {
            let more = more.borrow().clone();
            items.borrow_mut().extend(more);
            Value::None
        }
        ("pop", []) => items
            .borrow_mut()
            .pop()
            .ok_or_else(|| Error::Index(line, "pop from empty list".into()))?,
        ("pop", [at]) => {
            let at = position(at, items.borrow().len(), line)?;
            items.borrow_mut().remove(at)
        }
        ("sort", []) => {
            sort(&mut items.borrow_mut())
                .map_err(|()| type_err(line, "sort() of incomparable values"))?;
            Value::None
        }
        ("reverse", []) => {
            items.borrow_mut().reverse();
            Value::None
        }
        ("index", [v]) => match items.borrow().iter().position(|x| x.same(v)) {
            Some(at) => Value::Int(at as i64),
            None => return Err(Error::Index(line, format!("{} is not in list", v.repr()))),
        },
        ("count", [v]) => Value::Int(items.borrow().iter().filter(|x| x.same(v)).count() as i64),
        _ => return Ok(None),
    }))
}
