//! In-memory tables: the structured side of the runtime.
//!
//! A [`Table`] is a schema plus row-major values. Tables are produced by the
//! CSV/HTML parsers, materialized by `compute`/`search` operators, and
//! queried by the `aida-sql` engine.

use crate::error::DataError;
use crate::record::{Record, Schema};
use crate::value::Value;

/// A row-major in-memory table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row; its arity must match the schema.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), DataError> {
        if row.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                found: row.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Cell accessor by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> Option<&Value> {
        let col = self.schema.index_of(column)?;
        self.rows.get(row).map(|r| &r[col])
    }

    /// Builds a table from records using the union of their field names (in
    /// first-seen order); missing fields become `Null`.
    pub fn from_records(records: &[Record]) -> Table {
        let mut names: Vec<String> = Vec::new();
        for rec in records {
            for (name, _) in rec.iter() {
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
        let schema = Schema::of(names.iter().cloned());
        let mut table = Table::new(schema);
        for rec in records {
            let row: Vec<Value> = names.iter().map(|n| rec.get_or_null(n)).collect();
            // Arity matches by construction.
            table.rows.push(row);
        }
        table
    }

    /// Pretty-prints the table with column-aligned ASCII output (used by
    /// example binaries and the benchmark harness).
    pub fn render(&self) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(cell);
                for _ in cell.len()..widths[i] {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        write_row(
            &mut out,
            &names.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        );
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        write_row(&mut out, &sep);
        for row in &rendered {
            write_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(Schema::of(["year", "thefts"]));
        t.push_row(vec![Value::Int(2001), Value::Int(86_250)])
            .unwrap();
        t.push_row(vec![Value::Int(2024), Value::Int(1_135_291)])
            .unwrap();
        t
    }

    #[test]
    fn push_row_checks_arity() {
        let mut t = Table::new(Schema::of(["a"]));
        assert!(t.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(t.push_row(vec![Value::Int(1)]).is_ok());
    }

    #[test]
    fn cell_access() {
        let t = sample();
        assert_eq!(t.cell(1, "thefts"), Some(&Value::Int(1_135_291)));
        assert_eq!(t.cell(1, "nope"), None);
    }

    #[test]
    fn from_records_unions_fields() {
        let recs = vec![
            Record::new("a").with("x", 1i64),
            Record::new("b").with("y", 2i64).with("x", 3i64),
        ];
        let t = Table::from_records(&recs);
        assert_eq!(t.schema().names(), vec!["x", "y"]);
        assert_eq!(t.rows()[0], vec![Value::Int(1), Value::Null]);
        assert_eq!(t.rows()[1], vec![Value::Int(3), Value::Int(2)]);
    }

    #[test]
    fn render_contains_all_cells() {
        let s = sample().render();
        assert!(s.contains("year"));
        assert!(s.contains("1135291"));
        assert!(s.lines().count() >= 4);
    }
}
