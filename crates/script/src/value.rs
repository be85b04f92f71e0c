//! Runtime values for Pyrite.
//!
//! Lists and dicts have Python reference semantics (`Rc<RefCell<…>>`), so
//! `xs.append(…)` inside a function mutates the caller's list. Conversion
//! to/from [`aida_data::Value`] bridges the script world and the data
//! world at the host-function boundary.

use crate::bytecode::{CompiledFn, Pools};
use crate::error::ScriptError;
use aida_data::Value as DataValue;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A user-defined function: compiled function `idx` of the program whose
/// pools it shares, so it runs on the VM from any later program.
#[derive(Debug, Clone)]
pub struct UserFn {
    /// The defining program's pools.
    pub pools: Arc<Pools>,
    /// Index into `pools.funcs`.
    pub idx: usize,
}

impl UserFn {
    /// The compiled function.
    pub fn compiled(&self) -> &CompiledFn {
        &self.pools.funcs[self.idx]
    }
}

/// A Pyrite runtime value.
#[derive(Debug, Clone)]
pub enum ScriptValue {
    /// `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Immutable string.
    Str(Rc<String>),
    /// Mutable list (reference semantics).
    List(Rc<RefCell<Vec<ScriptValue>>>),
    /// Mutable dict with string keys (reference semantics).
    Dict(Rc<RefCell<BTreeMap<String, ScriptValue>>>),
    /// User-defined function.
    Func(Rc<UserFn>),
}

impl ScriptValue {
    /// Creates a string value.
    pub fn str(s: impl Into<String>) -> Self {
        ScriptValue::Str(Rc::new(s.into()))
    }

    /// Creates a list value.
    pub fn list(items: Vec<ScriptValue>) -> Self {
        ScriptValue::List(Rc::new(RefCell::new(items)))
    }

    /// Creates a dict value.
    pub fn dict(entries: BTreeMap<String, ScriptValue>) -> Self {
        ScriptValue::Dict(Rc::new(RefCell::new(entries)))
    }

    /// Python truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            ScriptValue::None => false,
            ScriptValue::Bool(b) => *b,
            ScriptValue::Int(i) => *i != 0,
            ScriptValue::Float(f) => *f != 0.0,
            ScriptValue::Str(s) => !s.is_empty(),
            ScriptValue::List(l) => !l.borrow().is_empty(),
            ScriptValue::Dict(d) => !d.borrow().is_empty(),
            ScriptValue::Func(_) => true,
        }
    }

    /// The value's type name (diagnostics).
    pub fn type_name(&self) -> &'static str {
        match self {
            ScriptValue::None => "NoneType",
            ScriptValue::Bool(_) => "bool",
            ScriptValue::Int(_) => "int",
            ScriptValue::Float(_) => "float",
            ScriptValue::Str(_) => "str",
            ScriptValue::List(_) => "list",
            ScriptValue::Dict(_) => "dict",
            ScriptValue::Func(_) => "function",
        }
    }

    /// Integer accessor (bools and integral floats coerce).
    pub fn as_int(&self) -> Result<i64, ScriptError> {
        match self {
            ScriptValue::Int(i) => Ok(*i),
            ScriptValue::Bool(b) => Ok(i64::from(*b)),
            ScriptValue::Float(f) if f.fract() == 0.0 && f.is_finite() => Ok(*f as i64),
            other => Err(ScriptError::host(format!(
                "expected int, found {}",
                other.type_name()
            ))),
        }
    }

    /// Float accessor (ints coerce).
    pub fn as_float(&self) -> Result<f64, ScriptError> {
        match self {
            ScriptValue::Float(f) => Ok(*f),
            ScriptValue::Int(i) => Ok(*i as f64),
            ScriptValue::Bool(b) => Ok(f64::from(u8::from(*b))),
            other => Err(ScriptError::host(format!(
                "expected float, found {}",
                other.type_name()
            ))),
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Result<&str, ScriptError> {
        match self {
            ScriptValue::Str(s) => Ok(s.as_str()),
            other => Err(ScriptError::host(format!(
                "expected str, found {}",
                other.type_name()
            ))),
        }
    }

    /// Structural equality (Python `==`).
    pub fn eq_value(&self, other: &ScriptValue) -> bool {
        match (self, other) {
            (ScriptValue::None, ScriptValue::None) => true,
            (ScriptValue::Bool(a), ScriptValue::Bool(b)) => a == b,
            (ScriptValue::Int(a), ScriptValue::Int(b)) => a == b,
            (ScriptValue::Float(a), ScriptValue::Float(b)) => a == b,
            (ScriptValue::Int(a), ScriptValue::Float(b))
            | (ScriptValue::Float(b), ScriptValue::Int(a)) => (*a as f64) == *b,
            (ScriptValue::Str(a), ScriptValue::Str(b)) => a == b,
            (ScriptValue::List(a), ScriptValue::List(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.eq_value(y))
            }
            (ScriptValue::Dict(a), ScriptValue::Dict(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.eq_value(vb))
            }
            _ => false,
        }
    }

    /// Converts to the data-layer value (host-function boundary). Dicts
    /// become lists of `[key, value]` pairs; functions error.
    pub fn to_data(&self) -> Result<DataValue, ScriptError> {
        Ok(match self {
            ScriptValue::None => DataValue::Null,
            ScriptValue::Bool(b) => DataValue::Bool(*b),
            ScriptValue::Int(i) => DataValue::Int(*i),
            ScriptValue::Float(f) => DataValue::Float(*f),
            ScriptValue::Str(s) => DataValue::Str(s.as_str().into()),
            ScriptValue::List(items) => DataValue::List(
                items
                    .borrow()
                    .iter()
                    .map(|v| v.to_data())
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            ScriptValue::Dict(entries) => DataValue::List(
                entries
                    .borrow()
                    .iter()
                    .map(|(k, v)| {
                        Ok(DataValue::List(vec![
                            DataValue::Str(k.as_str().into()),
                            v.to_data()?,
                        ]))
                    })
                    .collect::<Result<Vec<_>, ScriptError>>()?,
            ),
            ScriptValue::Func(f) => {
                return Err(ScriptError::host(format!(
                    "cannot pass function '{}' to a tool",
                    f.compiled().name
                )))
            }
        })
    }

    /// Converts from the data-layer value.
    pub fn from_data(value: &DataValue) -> ScriptValue {
        match value {
            DataValue::Null => ScriptValue::None,
            DataValue::Bool(b) => ScriptValue::Bool(*b),
            DataValue::Int(i) => ScriptValue::Int(*i),
            DataValue::Float(f) => ScriptValue::Float(*f),
            DataValue::Str(s) => ScriptValue::str(&**s),
            DataValue::List(items) => {
                ScriptValue::list(items.iter().map(ScriptValue::from_data).collect())
            }
        }
    }

    /// `repr()`-style rendering (strings quoted inside containers).
    pub fn repr(&self) -> String {
        match self {
            ScriptValue::Str(s) => format!("'{s}'"),
            other => other.to_string(),
        }
    }
}

impl fmt::Display for ScriptValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptValue::None => write!(f, "None"),
            ScriptValue::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            ScriptValue::Int(i) => write!(f, "{i}"),
            ScriptValue::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            ScriptValue::Str(s) => write!(f, "{s}"),
            ScriptValue::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", item.repr())?;
                }
                write!(f, "]")
            }
            ScriptValue::Dict(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "'{k}': {}", v.repr())?;
                }
                write!(f, "}}")
            }
            ScriptValue::Func(func) => write!(f, "<function {}>", func.compiled().name),
        }
    }
}

impl PartialEq for ScriptValue {
    fn eq(&self, other: &Self) -> bool {
        self.eq_value(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!ScriptValue::None.truthy());
        assert!(!ScriptValue::Int(0).truthy());
        assert!(ScriptValue::Int(5).truthy());
        assert!(!ScriptValue::str("").truthy());
        assert!(ScriptValue::list(vec![ScriptValue::Int(1)]).truthy());
        assert!(!ScriptValue::dict(BTreeMap::new()).truthy());
    }

    #[test]
    fn reference_semantics_for_lists() {
        let a = ScriptValue::list(vec![ScriptValue::Int(1)]);
        let b = a.clone();
        if let ScriptValue::List(items) = &b {
            items.borrow_mut().push(ScriptValue::Int(2));
        }
        if let ScriptValue::List(items) = &a {
            assert_eq!(items.borrow().len(), 2);
        } else {
            panic!("not a list");
        }
    }

    #[test]
    fn equality_bridges_int_float() {
        assert_eq!(ScriptValue::Int(2), ScriptValue::Float(2.0));
        assert_ne!(ScriptValue::Int(2), ScriptValue::Float(2.5));
        assert_eq!(ScriptValue::str("a"), ScriptValue::str("a"));
        assert_ne!(ScriptValue::str("a"), ScriptValue::Int(1));
    }

    #[test]
    fn data_round_trip() {
        let v = ScriptValue::list(vec![
            ScriptValue::Int(1),
            ScriptValue::str("x"),
            ScriptValue::Bool(true),
            ScriptValue::None,
        ]);
        let data = v.to_data().unwrap();
        let back = ScriptValue::from_data(&data);
        assert_eq!(v, back);
    }

    #[test]
    fn dict_converts_to_pair_list() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), ScriptValue::Int(1));
        let data = ScriptValue::dict(m).to_data().unwrap();
        match data {
            DataValue::List(pairs) => {
                assert_eq!(pairs.len(), 1);
                match &pairs[0] {
                    DataValue::List(kv) => {
                        assert_eq!(kv[0], DataValue::Str("k".into()));
                        assert_eq!(kv[1], DataValue::Int(1));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_matches_python_style() {
        assert_eq!(ScriptValue::Bool(true).to_string(), "True");
        assert_eq!(ScriptValue::None.to_string(), "None");
        assert_eq!(
            ScriptValue::list(vec![ScriptValue::str("a"), ScriptValue::Int(1)]).to_string(),
            "['a', 1]"
        );
    }

    #[test]
    fn functions_cannot_cross_tool_boundary() {
        let f = crate::Interpreter::new()
            .run("def f():\n    pass\nf")
            .unwrap();
        assert_eq!(f.to_string(), "<function f>");
        assert!(f.to_data().is_err());
    }
}
