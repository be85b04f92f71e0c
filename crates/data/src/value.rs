//! Dynamically-typed values.
//!
//! [`Value`] is the single cell type used across the workspace: record
//! fields, SQL cells, script interop, and LLM extraction results all flow
//! through it. The type is intentionally small (no maps; nested structure is
//! represented with [`Value::List`] or flattened field names) so operators
//! can stay simple.

use crate::error::DataError;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A dynamically-typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (SQL NULL / Python None).
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string, shared: cloning a value (or a record carrying a
    /// document's text) never copies the bytes.
    Str(Arc<str>),
    /// An ordered list of values.
    List(Vec<Value>),
}

impl Value {
    /// Returns the name of this value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the boolean content, coercing via SQL-ish truthiness:
    /// `Null` is false, numbers are true when nonzero, strings when
    /// non-empty, lists when non-empty.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(items) => !items.is_empty(),
        }
    }

    /// Strict boolean accessor.
    pub fn as_bool(&self) -> Result<bool, DataError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }

    /// Integer accessor; floats with integral values coerce.
    pub fn as_int(&self) -> Result<i64, DataError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Ok(*f as i64),
            other => Err(type_err("int", other)),
        }
    }

    /// Float accessor; integers coerce.
    pub fn as_float(&self) -> Result<f64, DataError> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(type_err("float", other)),
        }
    }

    /// String slice accessor (no coercion).
    pub fn as_str(&self) -> Result<&str, DataError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(type_err("str", other)),
        }
    }

    /// List accessor (no coercion).
    pub fn as_list(&self) -> Result<&[Value], DataError> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(type_err("list", other)),
        }
    }

    /// Parses a raw text cell into the most specific value type: empty →
    /// `Null`, then `Int`, `Float`, `Bool` (`true`/`false`, case-insensitive),
    /// falling back to `Str`. Used by the CSV type-inference pass.
    pub fn infer(text: &str) -> Value {
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            if f.is_finite() {
                return Value::Float(f);
            }
        }
        // Numbers with thousands separators appear in FTC-style reports.
        if trimmed.len() > 1 && trimmed.chars().all(|c| c.is_ascii_digit() || c == ',') {
            let compact: String = trimmed.chars().filter(|c| *c != ',').collect();
            if let Ok(i) = compact.parse::<i64>() {
                return Value::Int(i);
            }
        }
        match trimmed.to_ascii_lowercase().as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Str(trimmed.into()),
        }
    }

    /// Numeric comparison helper used by SQL/semops ordering. Returns `None`
    /// when the two values are incomparable (e.g. `Str` vs `Int`).
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, Value::Null) => Some(Ordering::Equal),
            (Value::Null, _) => Some(Ordering::Less),
            (_, Value::Null) => Some(Ordering::Greater),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.partial_cmp_value(y) {
                        Some(Ordering::Equal) => continue,
                        other => return other,
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            (a, b) => {
                let (af, bf) = (a.as_float().ok()?, b.as_float().ok()?);
                af.partial_cmp(&bf)
            }
        }
    }

    /// Structural equality with numeric coercion (`Int(2) == Float(2.0)`).
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (a, b) => a == b,
        }
    }
}

fn type_err(expected: &'static str, found: &Value) -> DataError {
    DataError::TypeMismatch {
        expected,
        found: format!("{found}"),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}
impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::List(items.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(opt: Option<T>) -> Self {
        opt.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_parses_specific_types() {
        assert_eq!(Value::infer("42"), Value::Int(42));
        assert_eq!(Value::infer("-7"), Value::Int(-7));
        assert_eq!(Value::infer("3.5"), Value::Float(3.5));
        assert_eq!(Value::infer("true"), Value::Bool(true));
        assert_eq!(Value::infer("FALSE"), Value::Bool(false));
        assert_eq!(Value::infer(""), Value::Null);
        assert_eq!(Value::infer("  "), Value::Null);
        assert_eq!(Value::infer("hello"), Value::Str("hello".into()));
    }

    #[test]
    fn infer_handles_thousands_separators() {
        assert_eq!(Value::infer("1,234,567"), Value::Int(1_234_567));
        // A lone comma is not a number.
        assert_eq!(Value::infer(",,"), Value::Str(",,".into()));
    }

    #[test]
    fn truthiness_matches_python_semantics() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(-1).truthy());
        assert!(!Value::Str("".into()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::List(vec![]).truthy());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Float(4.0).as_int().unwrap(), 4);
        assert!(Value::Float(4.5).as_int().is_err());
        assert_eq!(Value::Int(4).as_float().unwrap(), 4.0);
        assert!(Value::Str("4".into()).as_int().is_err());
    }

    #[test]
    fn ordering_across_numeric_types() {
        use std::cmp::Ordering::*;
        assert_eq!(
            Value::Int(2).partial_cmp_value(&Value::Float(2.5)),
            Some(Less)
        );
        assert_eq!(Value::Null.partial_cmp_value(&Value::Int(0)), Some(Less));
        assert_eq!(
            Value::Str("a".into()).partial_cmp_value(&Value::Str("b".into())),
            Some(Less)
        );
        assert_eq!(
            Value::Str("a".into()).partial_cmp_value(&Value::Int(1)),
            None
        );
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::from(vec![1i64, 2]);
        let b = Value::from(vec![1i64, 3]);
        let c = Value::from(vec![1i64, 2, 0]);
        assert_eq!(a.partial_cmp_value(&b), Some(Ordering::Less));
        assert_eq!(a.partial_cmp_value(&c), Some(Ordering::Less));
    }

    #[test]
    fn loose_equality_bridges_int_float() {
        assert!(Value::Int(2).loose_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).loose_eq(&Value::Float(2.1)));
        assert!(Value::Str("x".into()).loose_eq(&Value::Str("x".into())));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::from(vec![1i64, 2]).to_string(), "[1, 2]");
        assert_eq!(Value::Null.to_string(), "");
    }
}
