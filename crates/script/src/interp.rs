//! The interpreter: the state every Pyrite program runs against —
//! globals, host functions, fuel, recursion depth, captured `print`
//! output — and the semantic kernels the VM ([`crate::vm`]) calls for
//! operators, indexing, slicing, iteration, builtins and methods.

use crate::ast::BinOp;
use crate::error::ScriptError;
use crate::parser::parse;
use crate::value::{ScriptValue, UserFn};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// A host function (tool) callable from scripts.
pub type HostFn = Rc<dyn Fn(&[ScriptValue]) -> Result<ScriptValue, ScriptError>>;

/// The Pyrite interpreter.
///
/// Holds global bindings, host functions, a fuel budget, and captured
/// `print` output. An interpreter can run multiple programs in sequence
/// (agent steps share one interpreter so variables persist between steps).
pub struct Interpreter {
    /// Global name → index into `globals`. A run resolves its program's
    /// names here once, so the VM reads and writes globals by slot.
    pub(crate) global_slots: HashMap<String, usize>,
    /// Global values by slot; `None` until the name is first assigned.
    pub(crate) globals: Vec<Option<ScriptValue>>,
    pub(crate) host_fns: HashMap<String, HostFn>,
    pub(crate) fuel: u64,
    pub(crate) fuel_limit: u64,
    pub(crate) depth: usize,
    pub(crate) output: Vec<String>,
    /// Bytes the current run may still allocate (see [`MAX_RUN_BYTES`]).
    pub(crate) bytes_left: Cell<u64>,
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

const DEFAULT_FUEL: u64 = 2_000_000;
pub(crate) const MAX_DEPTH: usize = 64;

/// The bytes one run may allocate through the kernels that grow values:
/// string concatenation, repetition, `join`, `split` and `replace`,
/// list concatenation, `append`/`extend`/comprehension pushes, and
/// `range` materialization. A string costs its UTF-8 length, a list 8
/// bytes per element (`docs/PYRITE.md` states the rule). Fuel bounds
/// steps, not bytes: a few dozen steps of `s = s + s` would otherwise
/// exhaust the host's memory.
pub const MAX_RUN_BYTES: u64 = 16 << 20;

/// What one list element costs against [`MAX_RUN_BYTES`].
const ELEMENT_BYTES: u64 = 8;

impl Interpreter {
    /// Creates an interpreter with the default fuel budget.
    pub fn new() -> Self {
        Interpreter {
            global_slots: HashMap::new(),
            globals: Vec::new(),
            host_fns: HashMap::new(),
            fuel: DEFAULT_FUEL,
            fuel_limit: DEFAULT_FUEL,
            depth: 0,
            output: Vec::new(),
            bytes_left: Cell::new(MAX_RUN_BYTES),
        }
    }

    /// Sets the fuel budget (an execution-step allowance refreshed by each
    /// [`run`](Interpreter::run)).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel_limit = fuel;
        self.fuel = fuel;
        self
    }

    /// Binds a host function (tool) under a global name.
    pub fn bind_host_fn<F>(&mut self, name: &str, func: F)
    where
        F: Fn(&[ScriptValue]) -> Result<ScriptValue, ScriptError> + 'static,
    {
        self.host_fns.insert(name.to_string(), Rc::new(func));
    }

    /// The slot of global `name`, allocated (unassigned) on first use.
    pub(crate) fn global_slot(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.global_slots.get(name) {
            return slot;
        }
        self.globals.push(None);
        self.global_slots
            .insert(name.to_string(), self.globals.len() - 1);
        self.globals.len() - 1
    }

    /// Drains captured `print` output.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Fuel remaining after the most recent `run`/`run_compiled` (the
    /// budget minus every step charged).
    pub fn fuel_remaining(&self) -> u64 {
        self.fuel
    }

    /// The names of the current globals: the bindings earlier programs
    /// left, which a front-end verdict on the next one depends on.
    pub fn global_names(&self) -> BTreeSet<String> {
        self.global_slots
            .iter()
            .filter(|&(_, &slot)| self.globals[slot].is_some())
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Parses `source` and runs the front-end pass ([`crate::typecheck`])
    /// against this interpreter's globals and host functions, executing
    /// nothing: the lex, parse, static or type error that rejects the
    /// program, if any. Host functions carry no signatures here, so calls
    /// to them are not arity- or type-checked.
    pub fn check_source(&self, source: &str) -> Option<ScriptError> {
        let mut env = crate::TypeEnv::new();
        for name in self.host_fns.keys() {
            // An empty signature registers an unchecked tool.
            env.add_tool_signature(name, "");
        }
        for name in self.global_names() {
            env.bind_global(&name, crate::Ty::Any);
        }
        parse(source)
            .and_then(|program| crate::typecheck(&program, &env))
            .err()
    }

    /// Parses, compiles and runs a program on the VM, returning the value
    /// of its final expression statement (`None` if the program ends with
    /// a non-expression statement). Globals persist across calls.
    pub fn run(&mut self, source: &str) -> Result<ScriptValue, ScriptError> {
        let program = crate::bytecode::compile_source(source)?;
        self.run_compiled(&program)
    }

    /// Charges `bytes` against the run's allowance before a kernel
    /// allocates them.
    pub(crate) fn charge_bytes(&self, bytes: u64) -> Result<(), ScriptError> {
        let left = self.bytes_left.get();
        if bytes > left {
            return Err(ScriptError::BytesExhausted);
        }
        self.bytes_left.set(left - bytes);
        Ok(())
    }

    /// Charges `n` list elements against the run's allowance.
    pub(crate) fn charge_elements(&self, n: usize) -> Result<(), ScriptError> {
        self.charge_bytes((n as u64).saturating_mul(ELEMENT_BYTES))
    }

    /// Stores into an already-evaluated container/key pair.
    pub(crate) fn store_index(
        &mut self,
        obj_v: &ScriptValue,
        key_v: &ScriptValue,
        value: ScriptValue,
        line: usize,
    ) -> Result<(), ScriptError> {
        match (obj_v, key_v) {
            (ScriptValue::List(items), key) if key.as_int().is_ok() => {
                let idx = self.list_index(key, items.borrow().len(), line)?;
                items.borrow_mut()[idx] = value;
                Ok(())
            }
            (ScriptValue::Dict(entries), ScriptValue::Str(k)) => {
                entries.borrow_mut().insert(k.as_str().to_string(), value);
                Ok(())
            }
            _ => Err(ScriptError::Type {
                line,
                message: format!(
                    "cannot assign into {} with {} key",
                    obj_v.type_name(),
                    key_v.type_name()
                ),
            }),
        }
    }

    /// Materializes an already-evaluated value as an iteration vector.
    pub(crate) fn iter_value(
        &self,
        value: ScriptValue,
        line: usize,
    ) -> Result<Vec<ScriptValue>, ScriptError> {
        match value {
            ScriptValue::List(items) => Ok(items.borrow().clone()),
            ScriptValue::Str(s) => Ok(s.chars().map(|c| ScriptValue::str(c.to_string())).collect()),
            ScriptValue::Dict(entries) => Ok(entries
                .borrow()
                .keys()
                .map(|k| ScriptValue::str(k.clone()))
                .collect()),
            other => Err(ScriptError::Type {
                line,
                message: format!("{} is not iterable", other.type_name()),
            }),
        }
    }

    pub(crate) fn list_index(
        &self,
        key: &ScriptValue,
        len: usize,
        line: usize,
    ) -> Result<usize, ScriptError> {
        let i = key.as_int().map_err(|_| ScriptError::Type {
            line,
            message: format!("list indices must be ints, not {}", key.type_name()),
        })?;
        let idx = if i < 0 { i + len as i64 } else { i };
        if idx < 0 || idx as usize >= len {
            return Err(ScriptError::Index {
                line,
                message: format!("list index {i} out of range (len {len})"),
            });
        }
        Ok(idx as usize)
    }

    pub(crate) fn index(
        &self,
        obj: &ScriptValue,
        key: &ScriptValue,
        line: usize,
    ) -> Result<ScriptValue, ScriptError> {
        match obj {
            ScriptValue::List(items) => {
                let idx = self.list_index(key, items.borrow().len(), line)?;
                Ok(items.borrow()[idx].clone())
            }
            ScriptValue::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let idx = self.list_index(key, chars.len(), line)?;
                Ok(ScriptValue::str(chars[idx].to_string()))
            }
            ScriptValue::Dict(entries) => {
                let k = key.as_str().map_err(|_| ScriptError::Type {
                    line,
                    message: "dict keys must be strings".into(),
                })?;
                entries
                    .borrow()
                    .get(k)
                    .cloned()
                    .ok_or_else(|| ScriptError::Index {
                        line,
                        message: format!("key '{k}' not found"),
                    })
            }
            other => Err(ScriptError::Type {
                line,
                message: format!("{} is not subscriptable", other.type_name()),
            }),
        }
    }

    pub(crate) fn slice(
        &self,
        obj: &ScriptValue,
        lo: Option<i64>,
        hi: Option<i64>,
        line: usize,
    ) -> Result<ScriptValue, ScriptError> {
        fn bounds(lo: Option<i64>, hi: Option<i64>, len: usize) -> (usize, usize) {
            let resolve = |v: i64| -> usize {
                let idx = if v < 0 { v + len as i64 } else { v };
                idx.clamp(0, len as i64) as usize
            };
            let start = lo.map_or(0, resolve);
            let end = hi.map_or(len, resolve);
            (start, end.max(start))
        }
        match obj {
            ScriptValue::List(items) => {
                let items = items.borrow();
                let (start, end) = bounds(lo, hi, items.len());
                Ok(ScriptValue::list(items[start..end].to_vec()))
            }
            ScriptValue::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let (start, end) = bounds(lo, hi, chars.len());
                Ok(ScriptValue::str(
                    chars[start..end].iter().collect::<String>(),
                ))
            }
            other => Err(ScriptError::Type {
                line,
                message: format!("{} cannot be sliced", other.type_name()),
            }),
        }
    }

    pub(crate) fn binary(
        &self,
        op: BinOp,
        l: ScriptValue,
        r: ScriptValue,
        line: usize,
    ) -> Result<ScriptValue, ScriptError> {
        use ScriptValue as V;
        let type_err = |msg: String| ScriptError::Type { line, message: msg };
        match op {
            BinOp::Add => match (&l, &r) {
                (V::Int(a), V::Int(b)) => Ok(V::Int(a.wrapping_add(*b))),
                (V::Str(a), V::Str(b)) => {
                    self.charge_bytes((a.len() + b.len()) as u64)?;
                    Ok(V::str(format!("{a}{b}")))
                }
                (V::List(a), V::List(b)) => {
                    self.charge_elements(a.borrow().len() + b.borrow().len())?;
                    let mut items = a.borrow().clone();
                    items.extend(b.borrow().iter().cloned());
                    Ok(V::list(items))
                }
                _ => both_floats(&l, &r)
                    .map(|(a, b)| V::Float(a + b))
                    .ok_or_else(|| {
                        type_err(format!(
                            "cannot add {} and {}",
                            l.type_name(),
                            r.type_name()
                        ))
                    }),
            },
            BinOp::Sub => num_op(&l, &r, line, |a, b| a - b, |a, b| a.checked_sub(b)),
            BinOp::Mul => match (&l, &r) {
                (V::Str(s), V::Int(n)) | (V::Int(n), V::Str(s)) => {
                    let times = (*n).max(0) as u64;
                    self.charge_bytes((s.len() as u64).saturating_mul(times))?;
                    Ok(V::str(s.repeat(times as usize)))
                }
                _ => num_op(&l, &r, line, |a, b| a * b, |a, b| a.checked_mul(b)),
            },
            BinOp::Div => {
                let (a, b) = both_floats(&l, &r).ok_or_else(|| {
                    type_err(format!(
                        "cannot divide {} by {}",
                        l.type_name(),
                        r.type_name()
                    ))
                })?;
                if b == 0.0 {
                    return Err(ScriptError::Arithmetic {
                        line,
                        message: "division by zero".into(),
                    });
                }
                Ok(V::Float(a / b))
            }
            BinOp::FloorDiv => match (&l, &r) {
                (V::Int(a), V::Int(b)) => {
                    if *b == 0 {
                        Err(ScriptError::Arithmetic {
                            line,
                            message: "division by zero".into(),
                        })
                    } else {
                        Ok(V::Int(a.div_euclid(*b)))
                    }
                }
                _ => {
                    let (a, b) =
                        both_floats(&l, &r).ok_or_else(|| type_err("'//' needs numbers".into()))?;
                    if b == 0.0 {
                        Err(ScriptError::Arithmetic {
                            line,
                            message: "division by zero".into(),
                        })
                    } else {
                        Ok(V::Float((a / b).floor()))
                    }
                }
            },
            BinOp::Mod => match (&l, &r) {
                (V::Int(a), V::Int(b)) => {
                    if *b == 0 {
                        Err(ScriptError::Arithmetic {
                            line,
                            message: "modulo by zero".into(),
                        })
                    } else {
                        Ok(V::Int(a.rem_euclid(*b)))
                    }
                }
                _ => Err(type_err("'%' needs ints".into())),
            },
            BinOp::Eq => Ok(V::Bool(l.eq_value(&r))),
            BinOp::NotEq => Ok(V::Bool(!l.eq_value(&r))),
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                let ord = compare(&l, &r).ok_or_else(|| {
                    type_err(format!(
                        "cannot compare {} and {}",
                        l.type_name(),
                        r.type_name()
                    ))
                })?;
                Ok(V::Bool(match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::LtEq => ord.is_le(),
                    BinOp::Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                }))
            }
            BinOp::In | BinOp::NotIn => {
                let contains = match (&l, &r) {
                    (V::Str(needle), V::Str(hay)) => hay.contains(needle.as_str()),
                    (item, V::List(items)) => items.borrow().iter().any(|x| x.eq_value(item)),
                    (V::Str(key), V::Dict(entries)) => entries.borrow().contains_key(key.as_str()),
                    _ => {
                        return Err(type_err(format!(
                            "'in' not supported between {} and {}",
                            l.type_name(),
                            r.type_name()
                        )))
                    }
                };
                Ok(V::Bool(contains == (op == BinOp::In)))
            }
            BinOp::And | BinOp::Or => unreachable!("and/or compile to jumps"),
        }
    }

    /// Builtin dispatch, split by group: scalar conversions, sequence
    /// reducers, and the two effectful builtins kept here. `Ok(None)`
    /// means "not a builtin" and the caller resolves the name normally.
    pub(crate) fn call_builtin(
        &mut self,
        name: &str,
        args: &[ScriptValue],
        line: usize,
    ) -> Result<Option<ScriptValue>, ScriptError> {
        use ScriptValue as V;
        let arity_err = |want: &str| ScriptError::Type {
            line,
            message: format!("{name}() expects {want} argument(s), got {}", args.len()),
        };
        let result = match name {
            "len" | "str" | "int" | "float" | "bool" | "abs" | "round" => {
                self.builtin_scalar(name, args, line)?
            }
            "sum" | "min" | "max" | "sorted" | "enumerate" => {
                self.builtin_sequence(name, args, line)?
            }
            "range" => {
                let (start, stop, step) = match args {
                    [stop] => (0, stop.as_int().map_err(|_| arity_err("int"))?, 1),
                    [start, stop] => (
                        start.as_int().map_err(|_| arity_err("int"))?,
                        stop.as_int().map_err(|_| arity_err("int"))?,
                        1,
                    ),
                    [start, stop, step] => (
                        start.as_int().map_err(|_| arity_err("int"))?,
                        stop.as_int().map_err(|_| arity_err("int"))?,
                        step.as_int().map_err(|_| arity_err("int"))?,
                    ),
                    _ => return Err(arity_err("1-3")),
                };
                if step == 0 {
                    return Err(ScriptError::Arithmetic {
                        line,
                        message: "range() step cannot be zero".into(),
                    });
                }
                let span = if step > 0 {
                    i128::from(stop) - i128::from(start)
                } else {
                    i128::from(start) - i128::from(stop)
                };
                let count = (span.max(0) as u128).div_ceil(i128::from(step).unsigned_abs());
                if count > u128::from(self.fuel) {
                    return Err(ScriptError::FuelExhausted);
                }
                self.charge_elements(count as usize)?;
                let items = (0..count as i128)
                    .map(|k| V::Int((i128::from(start) + k * i128::from(step)) as i64))
                    .collect();
                V::list(items)
            }
            "print" => {
                let text = args
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                self.output.push(text);
                V::None
            }
            _ => return Ok(None),
        };
        Ok(Some(result))
    }

    /// Scalar-conversion builtins: `len`, `str`, `int`, `float`,
    /// `bool`, `abs`, `round`.
    fn builtin_scalar(
        &mut self,
        name: &str,
        args: &[ScriptValue],
        line: usize,
    ) -> Result<ScriptValue, ScriptError> {
        use ScriptValue as V;
        let arity_err = |want: &str| ScriptError::Type {
            line,
            message: format!("{name}() expects {want} argument(s), got {}", args.len()),
        };
        let result = match name {
            "len" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                let n = match v {
                    V::Str(s) => s.chars().count(),
                    V::List(items) => items.borrow().len(),
                    V::Dict(entries) => entries.borrow().len(),
                    other => {
                        return Err(ScriptError::Type {
                            line,
                            message: format!("len() of {}", other.type_name()),
                        })
                    }
                };
                V::Int(n as i64)
            }
            "str" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                V::str(v.to_string())
            }
            "int" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                match v {
                    V::Int(i) => V::Int(*i),
                    V::Float(f) => V::Int(*f as i64),
                    V::Bool(b) => V::Int(i64::from(*b)),
                    V::Str(s) => {
                        let cleaned: String = s.trim().chars().filter(|c| *c != ',').collect();
                        match cleaned.parse::<i64>() {
                            Ok(i) => V::Int(i),
                            Err(_) => match cleaned.parse::<f64>() {
                                Ok(f) => V::Int(f as i64),
                                Err(_) => {
                                    return Err(ScriptError::Type {
                                        line,
                                        message: format!("int() cannot parse '{s}'"),
                                    })
                                }
                            },
                        }
                    }
                    other => {
                        return Err(ScriptError::Type {
                            line,
                            message: format!("int() of {}", other.type_name()),
                        })
                    }
                }
            }
            "float" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                match v {
                    V::Str(s) => {
                        let cleaned: String = s.trim().chars().filter(|c| *c != ',').collect();
                        match cleaned.parse::<f64>() {
                            Ok(f) => V::Float(f),
                            Err(_) => {
                                return Err(ScriptError::Type {
                                    line,
                                    message: format!("float() cannot parse '{s}'"),
                                })
                            }
                        }
                    }
                    other => V::Float(other.as_float().map_err(|_| ScriptError::Type {
                        line,
                        message: format!("float() of {}", other.type_name()),
                    })?),
                }
            }
            "bool" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                V::Bool(v.truthy())
            }
            "abs" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                match v {
                    V::Int(i) => V::Int(i.abs()),
                    V::Float(f) => V::Float(f.abs()),
                    other => {
                        return Err(ScriptError::Type {
                            line,
                            message: format!("abs() of {}", other.type_name()),
                        })
                    }
                }
            }
            "round" => match args {
                [v] => V::Int(v.as_float().map_err(|_| arity_err("numeric"))?.round() as i64),
                [v, digits] => {
                    let f = v.as_float().map_err(|_| arity_err("numeric"))?;
                    let d = digits.as_int().map_err(|_| arity_err("numeric"))?;
                    let scale = 10f64.powi(d as i32);
                    V::Float((f * scale).round() / scale)
                }
                _ => return Err(arity_err("1 or 2")),
            },
            _ => unreachable!("call_builtin gates the scalar builtin names"),
        };
        Ok(result)
    }

    /// Sequence-reducing builtins: `sum`, `min`, `max`, `sorted`,
    /// `enumerate`.
    fn builtin_sequence(
        &mut self,
        name: &str,
        args: &[ScriptValue],
        line: usize,
    ) -> Result<ScriptValue, ScriptError> {
        use ScriptValue as V;
        let arity_err = |want: &str| ScriptError::Type {
            line,
            message: format!("{name}() expects {want} argument(s), got {}", args.len()),
        };
        let result = match name {
            "sum" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                let V::List(items) = v else {
                    return Err(ScriptError::Type {
                        line,
                        message: "sum() needs a list".into(),
                    });
                };
                let mut int_sum = 0i64;
                let mut float_sum = 0f64;
                let mut is_float = false;
                for item in items.borrow().iter() {
                    match item {
                        V::Int(i) => {
                            int_sum = int_sum.wrapping_add(*i);
                            float_sum += *i as f64;
                        }
                        V::Float(f) => {
                            is_float = true;
                            float_sum += f;
                        }
                        other => {
                            return Err(ScriptError::Type {
                                line,
                                message: format!("sum() of list containing {}", other.type_name()),
                            })
                        }
                    }
                }
                if is_float {
                    V::Float(float_sum)
                } else {
                    V::Int(int_sum)
                }
            }
            "min" | "max" => {
                let items: Vec<ScriptValue> = match args {
                    [V::List(items)] => items.borrow().clone(),
                    _ if args.len() >= 2 => args.to_vec(),
                    _ => {
                        return Err(ScriptError::Type {
                            line,
                            message: format!("{name}() needs a list or 2+ arguments"),
                        })
                    }
                };
                if items.is_empty() {
                    return Err(ScriptError::Type {
                        line,
                        message: format!("{name}() of empty sequence"),
                    });
                }
                let mut best = items[0].clone();
                for item in &items[1..] {
                    let ord = compare(item, &best).ok_or_else(|| ScriptError::Type {
                        line,
                        message: "incomparable values".into(),
                    })?;
                    let take = if name == "min" {
                        ord.is_lt()
                    } else {
                        ord.is_gt()
                    };
                    if take {
                        best = item.clone();
                    }
                }
                best
            }
            "sorted" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                let V::List(items) = v else {
                    return Err(ScriptError::Type {
                        line,
                        message: "sorted() needs a list".into(),
                    });
                };
                let mut sorted = items.borrow().clone();
                let mut failed = false;
                sorted.sort_by(|a, b| {
                    compare(a, b).unwrap_or_else(|| {
                        failed = true;
                        std::cmp::Ordering::Equal
                    })
                });
                if failed {
                    return Err(ScriptError::Type {
                        line,
                        message: "sorted() of incomparable values".into(),
                    });
                }
                V::list(sorted)
            }
            "enumerate" => {
                let [v] = args else {
                    return Err(arity_err("1"));
                };
                let V::List(items) = v else {
                    return Err(ScriptError::Type {
                        line,
                        message: "enumerate() needs a list".into(),
                    });
                };
                V::list(
                    items
                        .borrow()
                        .iter()
                        .enumerate()
                        .map(|(i, item)| V::list(vec![V::Int(i as i64), item.clone()]))
                        .collect(),
                )
            }
            _ => unreachable!("call_builtin gates the sequence builtin names"),
        };
        Ok(result)
    }

    pub(crate) fn call_method(
        &mut self,
        obj: &ScriptValue,
        method: &str,
        args: &[ScriptValue],
        line: usize,
    ) -> Result<ScriptValue, ScriptError> {
        use ScriptValue as V;
        let err = |msg: String| ScriptError::Type { line, message: msg };
        match obj {
            V::Str(s) => self.str_method(s, method, args, line),
            V::List(items) => match (method, args) {
                ("append", [v]) => {
                    self.charge_elements(1)?;
                    items.borrow_mut().push(v.clone());
                    Ok(V::None)
                }
                ("extend", [V::List(other)]) => {
                    self.charge_elements(other.borrow().len())?;
                    let extra = other.borrow().clone();
                    items.borrow_mut().extend(extra);
                    Ok(V::None)
                }
                ("pop", []) => items.borrow_mut().pop().ok_or_else(|| ScriptError::Index {
                    line,
                    message: "pop from empty list".into(),
                }),
                ("pop", [idx]) => {
                    let len = items.borrow().len();
                    let i = self.list_index(idx, len, line)?;
                    Ok(items.borrow_mut().remove(i))
                }
                ("sort", []) => {
                    let mut failed = false;
                    items.borrow_mut().sort_by(|a, b| {
                        compare(a, b).unwrap_or_else(|| {
                            failed = true;
                            std::cmp::Ordering::Equal
                        })
                    });
                    if failed {
                        Err(err("sort() of incomparable values".into()))
                    } else {
                        Ok(V::None)
                    }
                }
                ("reverse", []) => {
                    items.borrow_mut().reverse();
                    Ok(V::None)
                }
                ("index", [v]) => {
                    let pos = items.borrow().iter().position(|x| x.eq_value(v));
                    match pos {
                        Some(i) => Ok(V::Int(i as i64)),
                        None => Err(ScriptError::Index {
                            line,
                            message: format!("{} is not in list", v.repr()),
                        }),
                    }
                }
                ("count", [v]) => Ok(V::Int(
                    items.borrow().iter().filter(|x| x.eq_value(v)).count() as i64,
                )),
                _ => Err(err(format!("list has no method {method}/{}", args.len()))),
            },
            V::Dict(entries) => match (method, args) {
                ("get", [k]) => {
                    let key = k
                        .as_str()
                        .map_err(|_| err("dict keys are strings".into()))?;
                    Ok(entries.borrow().get(key).cloned().unwrap_or(V::None))
                }
                ("get", [k, default]) => {
                    let key = k
                        .as_str()
                        .map_err(|_| err("dict keys are strings".into()))?;
                    Ok(entries
                        .borrow()
                        .get(key)
                        .cloned()
                        .unwrap_or_else(|| default.clone()))
                }
                ("keys", []) => Ok(V::list(
                    entries.borrow().keys().map(|k| V::str(k.clone())).collect(),
                )),
                ("values", []) => Ok(V::list(entries.borrow().values().cloned().collect())),
                ("items", []) => Ok(V::list(
                    entries
                        .borrow()
                        .iter()
                        .map(|(k, v)| V::list(vec![V::str(k.clone()), v.clone()]))
                        .collect(),
                )),
                _ => Err(err(format!("dict has no method {method}/{}", args.len()))),
            },
            other => Err(err(format!("{} has no methods", other.type_name()))),
        }
    }

    /// `split`'s charge: the string's bytes again, plus one element per
    /// part.
    fn charge_split(&self, s: &str, parts: usize) -> Result<(), ScriptError> {
        self.charge_bytes(s.len() as u64)?;
        self.charge_elements(parts)
    }

    fn str_method(
        &mut self,
        s: &Rc<String>,
        method: &str,
        args: &[ScriptValue],
        line: usize,
    ) -> Result<ScriptValue, ScriptError> {
        use ScriptValue as V;
        let err = |msg: String| ScriptError::Type { line, message: msg };
        match (method, args) {
            ("lower", []) => Ok(V::str(s.to_lowercase())),
            ("upper", []) => Ok(V::str(s.to_uppercase())),
            ("strip", []) => Ok(V::str(s.trim().to_string())),
            ("split", []) => {
                self.charge_split(s, s.split_whitespace().count())?;
                Ok(V::list(
                    s.split_whitespace()
                        .map(|p| V::str(p.to_string()))
                        .collect(),
                ))
            }
            ("split", [sep]) => {
                let sep = sep
                    .as_str()
                    .map_err(|_| err("split() separator must be str".into()))?;
                self.charge_split(s, s.split(sep).count())?;
                Ok(V::list(
                    s.split(sep).map(|p| V::str(p.to_string())).collect(),
                ))
            }
            ("splitlines", []) => Ok(V::list(s.lines().map(|p| V::str(p.to_string())).collect())),
            ("isdigit", []) => Ok(V::Bool(
                !s.is_empty() && s.chars().all(|c| c.is_ascii_digit()),
            )),
            ("startswith", [prefix]) => {
                let p = prefix
                    .as_str()
                    .map_err(|_| err("startswith() needs str".into()))?;
                Ok(V::Bool(s.starts_with(p)))
            }
            ("endswith", [suffix]) => {
                let p = suffix
                    .as_str()
                    .map_err(|_| err("endswith() needs str".into()))?;
                Ok(V::Bool(s.ends_with(p)))
            }
            ("replace", [from, to]) => {
                let f = from
                    .as_str()
                    .map_err(|_| err("replace() needs strs".into()))?;
                let t = to
                    .as_str()
                    .map_err(|_| err("replace() needs strs".into()))?;
                let hits = s.matches(f).count() as u64;
                let grown = (s.len() as u64 - hits * f.len() as u64)
                    .saturating_add(hits.saturating_mul(t.len() as u64));
                self.charge_bytes(grown)?;
                Ok(V::str(s.replace(f, t)))
            }
            ("find", [needle]) => {
                let n = needle
                    .as_str()
                    .map_err(|_| err("find() needs str".into()))?;
                match s.find(n) {
                    Some(byte_pos) => Ok(V::Int(s[..byte_pos].chars().count() as i64)),
                    None => Ok(V::Int(-1)),
                }
            }
            ("count", [needle]) => {
                let n = needle
                    .as_str()
                    .map_err(|_| err("count() needs str".into()))?;
                if n.is_empty() {
                    return Ok(V::Int(s.chars().count() as i64 + 1));
                }
                Ok(V::Int(s.matches(n).count() as i64))
            }
            ("join", [V::List(items)]) => {
                let items = items.borrow();
                let mut bytes =
                    (s.len() as u64).saturating_mul(items.len().saturating_sub(1) as u64);
                for item in items.iter() {
                    let part = item
                        .as_str()
                        .map_err(|_| err("join() needs a list of strs".into()))?;
                    bytes = bytes.saturating_add(part.len() as u64);
                }
                self.charge_bytes(bytes)?;
                let parts: Vec<&str> = items.iter().filter_map(|v| v.as_str().ok()).collect();
                Ok(V::str(parts.join(s)))
            }
            _ => Err(err(format!("str has no method {method}/{}", args.len()))),
        }
    }
}

/// Arithmetic negation.
pub(crate) fn negate(value: &ScriptValue, line: usize) -> Result<ScriptValue, ScriptError> {
    match value {
        ScriptValue::Int(i) => Ok(ScriptValue::Int(-i)),
        ScriptValue::Float(f) => Ok(ScriptValue::Float(-f)),
        other => Err(ScriptError::Type {
            line,
            message: format!("cannot negate {}", other.type_name()),
        }),
    }
}

/// A dict-literal key must be a string.
pub(crate) fn dict_key(key: &ScriptValue, line: usize) -> Result<(), ScriptError> {
    match key.as_str() {
        Ok(_) => Ok(()),
        Err(_) => Err(ScriptError::Type {
            line,
            message: "dict keys must be strings".into(),
        }),
    }
}

/// A slice bound, coerced to an int.
pub(crate) fn slice_index(bound: &ScriptValue, line: usize) -> Result<i64, ScriptError> {
    bound.as_int().map_err(|_| ScriptError::Type {
        line,
        message: "slice bounds must be ints".into(),
    })
}

/// The user function a call invokes; every other value is not callable.
pub(crate) fn callee_fn(callee: ScriptValue, line: usize) -> Result<Rc<UserFn>, ScriptError> {
    match callee {
        ScriptValue::Func(func) => Ok(func),
        other => Err(ScriptError::Type {
            line,
            message: format!("{} is not callable", other.type_name()),
        }),
    }
}

fn both_floats(l: &ScriptValue, r: &ScriptValue) -> Option<(f64, f64)> {
    let a = match l {
        ScriptValue::Int(i) => *i as f64,
        ScriptValue::Float(f) => *f,
        _ => return None,
    };
    let b = match r {
        ScriptValue::Int(i) => *i as f64,
        ScriptValue::Float(f) => *f,
        _ => return None,
    };
    Some((a, b))
}

fn num_op(
    l: &ScriptValue,
    r: &ScriptValue,
    line: usize,
    float_op: impl Fn(f64, f64) -> f64,
    int_op: impl Fn(i64, i64) -> Option<i64>,
) -> Result<ScriptValue, ScriptError> {
    match (l, r) {
        (ScriptValue::Int(a), ScriptValue::Int(b)) => {
            int_op(*a, *b)
                .map(ScriptValue::Int)
                .ok_or(ScriptError::Arithmetic {
                    line,
                    message: "integer overflow".into(),
                })
        }
        _ => both_floats(l, r)
            .map(|(a, b)| ScriptValue::Float(float_op(a, b)))
            .ok_or(ScriptError::Type {
                line,
                message: format!(
                    "unsupported operand types: {} and {}",
                    l.type_name(),
                    r.type_name()
                ),
            }),
    }
}

fn compare(l: &ScriptValue, r: &ScriptValue) -> Option<std::cmp::Ordering> {
    use ScriptValue as V;
    match (l, r) {
        (V::Str(a), V::Str(b)) => Some(a.cmp(b)),
        (V::Bool(a), V::Bool(b)) => Some(a.cmp(b)),
        (V::List(a), V::List(b)) => {
            let (a, b) = (a.borrow(), b.borrow());
            for (x, y) in a.iter().zip(b.iter()) {
                match compare(x, y)? {
                    std::cmp::Ordering::Equal => continue,
                    other => return Some(other),
                }
            }
            Some(a.len().cmp(&b.len()))
        }
        _ => {
            let (a, b) = both_floats(l, r)?;
            a.partial_cmp(&b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScriptValue as V;

    impl Interpreter {
        fn get_global(&self, name: &str) -> Option<&ScriptValue> {
            let slot = *self.global_slots.get(name)?;
            self.globals[slot].as_ref()
        }
    }

    fn run(src: &str) -> ScriptValue {
        Interpreter::new().run(src).unwrap()
    }

    fn run_err(src: &str) -> ScriptError {
        Interpreter::new().run(src).unwrap_err()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("1 + 2 * 3"), V::Int(7));
        assert_eq!(run("(1 + 2) * 3"), V::Int(9));
        assert_eq!(run("7 // 2"), V::Int(3));
        assert_eq!(run("7 % 3"), V::Int(1));
        assert_eq!(run("7 / 2"), V::Float(3.5));
        assert_eq!(run("-3 + 1"), V::Int(-2));
        assert_eq!(run("2.5 * 2"), V::Float(5.0));
    }

    #[test]
    fn division_by_zero() {
        assert!(matches!(run_err("1 / 0"), ScriptError::Arithmetic { .. }));
        assert!(matches!(run_err("1 // 0"), ScriptError::Arithmetic { .. }));
        assert!(matches!(run_err("1 % 0"), ScriptError::Arithmetic { .. }));
    }

    #[test]
    fn variables_and_aug_assign() {
        assert_eq!(run("x = 10\nx += 5\nx -= 3\nx"), V::Int(12));
    }

    #[test]
    fn undefined_name_errors() {
        assert!(matches!(run_err("y + 1"), ScriptError::Name { .. }));
    }

    #[test]
    fn string_operations() {
        assert_eq!(run("'ab' + 'cd'"), V::str("abcd"));
        assert_eq!(run("'ab' * 3"), V::str("ababab"));
        assert_eq!(run("'Hello'.lower()"), V::str("hello"));
        assert_eq!(run("'  x  '.strip()"), V::str("x"));
        assert_eq!(run("'a,b,c'.split(',')[1]"), V::str("b"));
        assert_eq!(run("'abc'.find('c')"), V::Int(2));
        assert_eq!(run("'abc'.find('z')"), V::Int(-1));
        assert_eq!(run("'-'.join(['a', 'b'])"), V::str("a-b"));
        assert_eq!(run("'theft' in 'identity theft reports'"), V::Bool(true));
        assert_eq!(run("'x' not in 'abc'"), V::Bool(true));
        assert_eq!(run("'a.b'.replace('.', '_')"), V::str("a_b"));
        assert_eq!(run("'aaa'.count('a')"), V::Int(3));
        assert_eq!(run("'line1\\nline2'.splitlines()[1]"), V::str("line2"));
        assert_eq!(run("'123'.isdigit()"), V::Bool(true));
        assert_eq!(run("'12a'.isdigit()"), V::Bool(false));
        assert_eq!(run("''.isdigit()"), V::Bool(false));
    }

    #[test]
    fn list_operations() {
        assert_eq!(run("xs = [1, 2]\nxs.append(3)\nlen(xs)"), V::Int(3));
        assert_eq!(
            run("[1, 2] + [3]"),
            V::list(vec![V::Int(1), V::Int(2), V::Int(3)])
        );
        assert_eq!(run("xs = [3, 1, 2]\nxs.sort()\nxs[0]"), V::Int(1));
        assert_eq!(run("xs = [1, 2, 3]\nxs[-1]"), V::Int(3));
        assert_eq!(
            run("xs = [1, 2, 3]\nxs[1:]"),
            V::list(vec![V::Int(2), V::Int(3)])
        );
        assert_eq!(run("[10, 20].index(20)"), V::Int(1));
        assert_eq!(run("2 in [1, 2]"), V::Bool(true));
        assert_eq!(run("xs = [1]\nxs.extend([2, 3])\nsum(xs)"), V::Int(6));
        assert_eq!(run("xs = [5, 6]\nxs.pop()"), V::Int(6));
        assert_eq!(run("xs = [5, 6, 7]\nxs.pop(0)\nxs[0]"), V::Int(6));
    }

    #[test]
    fn index_out_of_range() {
        assert!(matches!(run_err("[1][5]"), ScriptError::Index { .. }));
        assert!(matches!(run_err("[1][-2]"), ScriptError::Index { .. }));
    }

    #[test]
    fn dict_operations() {
        assert_eq!(run("d = {'a': 1}\nd['a']"), V::Int(1));
        assert_eq!(run("d = {'a': 1}\nd['b'] = 2\nlen(d)"), V::Int(2));
        assert_eq!(run("d = {'a': 1}\nd.get('zz')"), V::None);
        assert_eq!(run("d = {'a': 1}\nd.get('zz', 9)"), V::Int(9));
        assert_eq!(run("d = {'b': 1, 'a': 2}\nd.keys()[0]"), V::str("a"));
        assert_eq!(run("'a' in {'a': 1}"), V::Bool(true));
        assert!(matches!(
            run_err("d = {}\nd['missing']"),
            ScriptError::Index { .. }
        ));
    }

    #[test]
    fn if_elif_else() {
        let src = "def grade(x):\n    if x > 2:\n        return 'big'\n    elif x > 0:\n        return 'small'\n    else:\n        return 'neg'\ngrade(3) + grade(1) + grade(-1)";
        assert_eq!(run(src), V::str("bigsmallneg"));
    }

    #[test]
    fn while_with_break_continue() {
        let src = "total = 0\ni = 0\nwhile True:\n    i += 1\n    if i > 10:\n        break\n    if i % 2 == 0:\n        continue\n    total += i\ntotal";
        assert_eq!(run(src), V::Int(25));
    }

    #[test]
    fn for_over_range_and_list() {
        assert_eq!(run("t = 0\nfor i in range(5):\n    t += i\nt"), V::Int(10));
        assert_eq!(run("t = 0\nfor x in [2, 4]:\n    t += x\nt"), V::Int(6));
        assert_eq!(
            run("out = ''\nfor c in 'ab':\n    out += c + '.'\nout"),
            V::str("a.b.")
        );
        assert_eq!(
            run("t = 0\nfor i in range(10, 0, -2):\n    t += i\nt"),
            V::Int(30)
        );
    }

    #[test]
    fn aug_assign_evaluates_index_once() {
        // Python semantics: the subscript expression runs exactly once.
        let src = "xs = [0]\ndef key():\n    xs.append(1)\n    return 'k'\nd = {'k': 0}\nd[key()] += 1\nlen(xs)";
        assert_eq!(run(src), V::Int(2));
        // And the update itself lands.
        let src2 = "d = {'k': 5}\nd['k'] += 2\nd['k']";
        assert_eq!(run(src2), V::Int(7));
    }

    #[test]
    fn list_comprehensions() {
        assert_eq!(
            run("[x * 2 for x in [1, 2, 3]]"),
            V::list(vec![V::Int(2), V::Int(4), V::Int(6)])
        );
        assert_eq!(
            run("[x for x in range(10) if x % 3 == 0]"),
            V::list(vec![V::Int(0), V::Int(3), V::Int(6), V::Int(9)])
        );
        // Unpacking targets work in comprehensions too.
        assert_eq!(
            run("[k + str(v) for k, v in {'a': 1, 'b': 2}.items()]"),
            V::list(vec![V::str("a1"), V::str("b2")])
        );
        // Nested expression positions.
        assert_eq!(run("sum([len(w) for w in ['ab', 'cde']])"), V::Int(5));
        // The loop variable binds in the enclosing scope (Python 2-style
        // leak is avoided by our scoping: globals at top level).
        assert_eq!(run("ys = [x for x in [7]]\nys[0]"), V::Int(7));
    }

    #[test]
    fn trailing_comma_in_list_literal() {
        assert_eq!(run("[1, 2,]"), V::list(vec![V::Int(1), V::Int(2)]));
        assert_eq!(run("[]"), V::list(vec![]));
    }

    #[test]
    fn for_loop_unpacking() {
        let src = "total = 0\nfor i, v in enumerate([10, 20, 30]):\n    total += i * v\ntotal";
        assert_eq!(run(src), V::Int(20 + 2 * 30));
        let src =
            "out = ''\nd = {'a': 1, 'b': 2}\nfor k, v in d.items():\n    out += k + str(v)\nout";
        assert_eq!(run(src), V::str("a1b2"));
    }

    #[test]
    fn for_loop_unpacking_arity_errors() {
        assert!(matches!(
            run_err("for a, b in [[1, 2, 3]]:\n    pass"),
            ScriptError::Type { .. }
        ));
        assert!(matches!(
            run_err("for a, b in [5]:\n    pass"),
            ScriptError::Type { .. }
        ));
    }

    #[test]
    fn functions_and_recursion() {
        let src = "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nfib(10)";
        assert_eq!(run(src), V::Int(55));
    }

    #[test]
    fn functions_see_globals_but_write_locals() {
        let src = "g = 10\ndef f(x):\n    y = g + x\n    return y\nf(1)";
        assert_eq!(run(src), V::Int(11));
        // Locals don't leak out.
        let src2 = "def f():\n    hidden = 1\n    return hidden\nf()\nhidden";
        assert!(matches!(run_err(src2), ScriptError::Name { .. }));
    }

    #[test]
    fn growing_past_the_byte_allowance_is_a_typed_error() {
        // Forty doublings and one huge repetition spend a few fuel each;
        // both stop before allocating, instead of taking the host's
        // memory.
        let doubling = format!("s = 'xy'\n{}len(s)", "s = s + s\n".repeat(40));
        for src in [doubling.as_str(), "'ab' * 9223372036854775807"] {
            assert_eq!(run_err(src), ScriptError::BytesExhausted, "{src}");
        }
        // The allowance is per run: each of two 10 MB runs fits.
        let mut interp = Interpreter::new();
        for _ in 0..2 {
            let n = interp.run("s = 'x' * 10000000\nlen(s)").unwrap();
            assert_eq!(n, V::Int(10_000_000));
        }
    }

    #[test]
    fn recursion_limit() {
        let src = "def f(n):\n    return f(n + 1)\nf(0)";
        assert!(matches!(run_err(src), ScriptError::RecursionLimit));
    }

    #[test]
    fn fuel_limit_stops_infinite_loops() {
        let err = Interpreter::new()
            .with_fuel(10_000)
            .run("while True:\n    pass")
            .unwrap_err();
        assert!(matches!(err, ScriptError::FuelExhausted));
    }

    #[test]
    fn builtins() {
        assert_eq!(run("len('abc')"), V::Int(3));
        assert_eq!(run("str(42)"), V::str("42"));
        assert_eq!(run("int('1,234')"), V::Int(1234));
        assert_eq!(run("int(3.9)"), V::Int(3));
        assert_eq!(run("float('2.5')"), V::Float(2.5));
        assert_eq!(run("abs(-4)"), V::Int(4));
        assert_eq!(run("round(2.567, 2)"), V::Float(2.57));
        assert_eq!(run("round(2.4)"), V::Int(2));
        assert_eq!(run("max([3, 9, 1])"), V::Int(9));
        assert_eq!(run("min(4, 2)"), V::Int(2));
        assert_eq!(run("sorted([3, 1, 2])[0]"), V::Int(1));
        assert_eq!(run("sum([1.5, 2.5])"), V::Float(4.0));
        assert_eq!(run("enumerate(['a'])[0][0]"), V::Int(0));
        assert_eq!(run("bool([])"), V::Bool(false));
    }

    #[test]
    fn print_captures_output() {
        let mut interp = Interpreter::new();
        interp.run("print('hello', 42)\nprint([1])").unwrap();
        assert_eq!(interp.take_output(), vec!["hello 42", "[1]"]);
        assert!(interp.take_output().is_empty());
    }

    #[test]
    fn host_functions_are_callable() {
        let mut interp = Interpreter::new();
        interp.bind_host_fn("add_one", |args| Ok(V::Int(args[0].as_int()? + 1)));
        assert_eq!(interp.run("add_one(41)").unwrap(), V::Int(42));
    }

    #[test]
    fn host_function_errors_propagate() {
        let mut interp = Interpreter::new();
        interp.bind_host_fn("fail", |_| Err(ScriptError::host("tool broke")));
        assert!(matches!(
            interp.run("fail()"),
            Err(ScriptError::Host { .. })
        ));
    }

    #[test]
    fn user_function_shadows_builtin() {
        let src = "def len(x):\n    return 99\nlen('abc')";
        assert_eq!(run(src), V::Int(99));
    }

    #[test]
    fn globals_persist_across_runs() {
        let mut interp = Interpreter::new();
        interp.run("x = 7").unwrap();
        assert_eq!(interp.run("x + 1").unwrap(), V::Int(8));
        assert_eq!(interp.get_global("x"), Some(&V::Int(7)));
    }

    #[test]
    fn last_expression_is_result() {
        assert_eq!(run("1\n2\n3"), V::Int(3));
        assert_eq!(run("x = 5"), V::None);
    }

    #[test]
    fn return_at_top_level_ends_program() {
        assert_eq!(run("return 9"), V::Int(9));
    }

    #[test]
    fn short_circuit_evaluation() {
        // The undefined name on the RHS must not be evaluated.
        assert_eq!(run("False and missing_name"), V::Bool(false));
        assert_eq!(run("True or missing_name"), V::Bool(true));
        // Python-style value semantics.
        assert_eq!(run("0 or 'fallback'"), V::str("fallback"));
        assert_eq!(run("1 and 2"), V::Int(2));
    }

    #[test]
    fn comparison_chaining_style_conditions() {
        assert_eq!(run("x = 5\nx > 1 and x < 10"), V::Bool(true));
        assert_eq!(run("'a' < 'b'"), V::Bool(true));
        assert_eq!(run("2 >= 2.0"), V::Bool(true));
    }

    #[test]
    fn string_slice() {
        assert_eq!(run("'hello'[1:3]"), V::str("el"));
        assert_eq!(run("'hello'[:2]"), V::str("he"));
        assert_eq!(run("'hello'[-2:]"), V::str("lo"));
        assert_eq!(run("'hello'[0]"), V::str("h"));
    }

    #[test]
    fn mutation_through_function_boundary() {
        let src = "def add(xs, v):\n    xs.append(v)\nitems = []\nadd(items, 1)\nadd(items, 2)\nlen(items)";
        assert_eq!(run(src), V::Int(2));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A small integer-arithmetic AST we can evaluate both in Rust and
        /// as generated Pyrite source.
        #[derive(Debug, Clone)]
        enum Arith {
            Lit(i32),
            Add(Box<Arith>, Box<Arith>),
            Sub(Box<Arith>, Box<Arith>),
            Mul(Box<Arith>, Box<Arith>),
        }

        impl Arith {
            fn eval(&self) -> i64 {
                match self {
                    Arith::Lit(v) => i64::from(*v),
                    Arith::Add(a, b) => a.eval() + b.eval(),
                    Arith::Sub(a, b) => a.eval() - b.eval(),
                    Arith::Mul(a, b) => a.eval() * b.eval(),
                }
            }

            fn source(&self) -> String {
                match self {
                    // Negative literals parenthesized (unary minus binds
                    // tighter in renders like `3 * -4`).
                    Arith::Lit(v) => format!("({v})"),
                    Arith::Add(a, b) => format!("({} + {})", a.source(), b.source()),
                    Arith::Sub(a, b) => format!("({} - {})", a.source(), b.source()),
                    Arith::Mul(a, b) => format!("({} * {})", a.source(), b.source()),
                }
            }
        }

        fn arith_strategy() -> impl Strategy<Value = Arith> {
            let leaf = (-1000i32..1000).prop_map(Arith::Lit);
            leaf.prop_recursive(4, 32, 3, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Arith::Add(Box::new(a), Box::new(b))),
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Arith::Sub(Box::new(a), Box::new(b))),
                    (inner.clone(), inner).prop_map(|(a, b)| Arith::Mul(Box::new(a), Box::new(b))),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn integer_arithmetic_matches_rust(expr in arith_strategy()) {
                let got = Interpreter::new().run(&expr.source()).unwrap();
                prop_assert_eq!(got, V::Int(expr.eval()));
            }

            #[test]
            fn lexer_and_parser_never_panic(src in ".{0,120}") {
                let _ = crate::parser::parse(&src);
            }

            #[test]
            fn sorted_output_is_sorted_permutation(xs in prop::collection::vec(-100i64..100, 0..20)) {
                let list = xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
                let out = Interpreter::new().run(&format!("sorted([{list}])")).unwrap();
                let mut expect = xs.clone();
                expect.sort_unstable();
                let expect_v = V::list(expect.into_iter().map(V::Int).collect());
                prop_assert_eq!(out, expect_v);
            }

            #[test]
            fn string_round_trip_through_interpreter(s in "[a-zA-Z0-9 ]{0,30}") {
                let out = Interpreter::new()
                    .run(&format!("x = \"{s}\"\nx.upper().lower()"))
                    .unwrap();
                prop_assert_eq!(out, V::str(s.to_lowercase()));
            }
        }
    }

    #[test]
    fn realistic_agent_program() {
        // The shape of code a CodeAgent writes: scan files, filter by
        // keyword, accumulate results.
        let mut interp = Interpreter::new();
        interp.bind_host_fn("list_files", |_| {
            Ok(V::list(vec![
                V::str("national_theft.csv"),
                V::str("alabama.csv"),
                V::str("notes.txt"),
            ]))
        });
        interp.bind_host_fn("read_file", |args| {
            let name = args[0].as_str()?;
            Ok(V::str(match name {
                "national_theft.csv" => "year,thefts\n2001,86250\n2024,1135291",
                _ => "irrelevant",
            }))
        });
        let src = r#"
result = None
for f in list_files():
    if "theft" in f:
        content = read_file(f)
        lines = content.splitlines()
        for line in lines[1:]:
            parts = line.split(",")
            if parts[0] == "2024":
                result = int(parts[1])
result
"#;
        assert_eq!(interp.run(src).unwrap(), V::Int(1_135_291));
    }
}
