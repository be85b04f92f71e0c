//! Records and schemas.
//!
//! A [`Record`] is the tuple type flowing through semantic-operator plans:
//! an ordered list of named [`Value`]s plus a lightweight provenance tag
//! (`source`) identifying the document the record was derived from. Field
//! order is stable and significant (projection preserves it), but lookup by
//! name is O(1)-ish via linear scan over small arity — records in this
//! system rarely exceed a dozen fields.

use crate::error::DataError;
use crate::value::Value;
use std::fmt;

/// A named, typed column in a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Natural-language description (semantic operators feed this to the
    /// LLM when extracting the field).
    pub desc: String,
}

impl Field {
    /// Creates a field with an empty description.
    pub fn new(name: impl Into<String>) -> Self {
        Field {
            name: name.into(),
            desc: String::new(),
        }
    }

    /// Creates a field with a natural-language description.
    pub fn described(name: impl Into<String>, desc: impl Into<String>) -> Self {
        Field {
            name: name.into(),
            desc: desc.into(),
        }
    }
}

/// An ordered collection of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// An empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// Builds a schema from field names.
    pub fn of<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Schema {
            fields: names.into_iter().map(|n| Field::new(n)).collect(),
        }
    }

    /// Builds a schema from explicit fields.
    pub fn from_fields(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// True if the schema contains the field.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Restricts the schema to the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Result<Schema, DataError> {
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            let idx = self
                .index_of(name)
                .ok_or_else(|| DataError::UnknownField((*name).to_string()))?;
            fields.push(self.fields[idx].clone());
        }
        Ok(Schema { fields })
    }

    /// Field names as a vector of string slices.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

/// A tuple of named values with provenance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(String, Value)>,
    /// Identifier of the source document (or upstream record) this record
    /// was derived from. Used for lineage and evaluation.
    pub source: String,
}

impl Record {
    /// Creates an empty record with a source tag.
    pub fn new(source: impl Into<String>) -> Self {
        Record {
            fields: Vec::new(),
            source: source.into(),
        }
    }

    /// Builder-style field insertion (replaces an existing field).
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Sets a field, replacing any existing field of the same name.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        let value = value.into();
        match self.fields.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.fields.push((name, value)),
        }
    }

    /// Field lookup by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Field lookup returning `Value::Null` when missing.
    pub fn get_or_null(&self, name: &str) -> Value {
        self.get(name).cloned().unwrap_or(Value::Null)
    }

    /// Required field lookup.
    pub fn require(&self, name: &str) -> Result<&Value, DataError> {
        self.get(name)
            .ok_or_else(|| DataError::UnknownField(name.to_string()))
    }

    /// Iterates `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the record carries no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Projects the record onto the given columns (missing columns become
    /// `Null`, mirroring SQL outer semantics used by extraction operators).
    pub fn project(&self, names: &[&str]) -> Record {
        let mut out = Record::new(self.source.clone());
        for name in names {
            out.set(*name, self.get_or_null(name));
        }
        out
    }

    /// Renders the record as `k=v` pairs for prompts and traces.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(name);
            out.push('=');
            out.push_str(&value.to_string());
        }
        out
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_replaces_existing_field() {
        let mut r = Record::new("doc1");
        r.set("year", 2001i64);
        r.set("year", 2024i64);
        assert_eq!(r.len(), 1);
        assert_eq!(r.get("year"), Some(&Value::Int(2024)));
    }

    #[test]
    fn field_order_is_insertion_order() {
        let r = Record::new("d").with("b", 1i64).with("a", 2i64);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
    }

    #[test]
    fn projection_fills_missing_with_null() {
        let r = Record::new("d").with("x", 1i64);
        let p = r.project(&["x", "y"]);
        assert_eq!(p.get("x"), Some(&Value::Int(1)));
        assert_eq!(p.get("y"), Some(&Value::Null));
        assert_eq!(p.source, "d");
    }

    #[test]
    fn schema_project_errors_on_unknown() {
        let s = Schema::of(["a", "b"]);
        assert!(s.project(&["a", "c"]).is_err());
        let p = s.project(&["b"]).unwrap();
        assert_eq!(p.names(), vec!["b"]);
    }

    #[test]
    fn render_and_display() {
        let r = Record::new("d").with("a", 1i64).with("b", "x");
        assert_eq!(r.to_string(), "{a=1, b=x}");
    }

    #[test]
    fn require_reports_unknown_field() {
        let r = Record::new("d");
        assert!(matches!(r.require("nope"), Err(DataError::UnknownField(_))));
    }
}
