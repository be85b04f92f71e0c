//! `aida-sql`: a small SQL engine over in-memory tables.
//!
//! The paper argues the runtime should "leverage structured information,
//! possibly generated from unstructured data, which it can then query using
//! SQL" — materialized tables produced by `compute`/`search` executions are
//! re-queried cheaply instead of re-running LLM extraction. This crate is
//! that structured side: a catalog of [`aida_data::Table`]s and a SELECT
//! engine supporting projections, expressions, `WHERE`, `GROUP BY`/`HAVING`
//! with the classic aggregates, `ORDER BY`, and `LIMIT`.
//!
//! # Example
//!
//! ```
//! use aida_sql::{Catalog, execute};
//! use aida_data::{Schema, Table, Value};
//!
//! let mut reports = Table::new(Schema::of(["year", "thefts"]));
//! reports.push_row(vec![Value::Int(2001), Value::Int(86_250)]).unwrap();
//! reports.push_row(vec![Value::Int(2024), Value::Int(1_135_291)]).unwrap();
//!
//! let mut catalog = Catalog::new();
//! catalog.register("reports", reports);
//!
//! let out = execute("SELECT thefts FROM reports WHERE year = 2024", &catalog).unwrap();
//! assert_eq!(out.cell(0, "thefts"), Some(&Value::Int(1_135_291)));
//! ```

pub mod ast;
pub mod catalog;
pub mod exec;
pub mod lexer;
pub mod parser;

pub use ast::{Expr, Query, SelectItem};
pub use catalog::Catalog;
pub use exec::{execute_query, explain};

use aida_data::Table;
use std::fmt;

/// SQL errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Tokenizer failure.
    Lex(String),
    /// Parser failure.
    Parse(String),
    /// Unknown table.
    UnknownTable(String),
    /// Unknown column.
    UnknownColumn(String),
    /// Type/aggregation misuse.
    Eval(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "sql lex error: {m}"),
            SqlError::Parse(m) => write!(f, "sql parse error: {m}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            SqlError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            SqlError::Eval(m) => write!(f, "sql evaluation error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Parses and executes a single SELECT statement against a catalog.
pub fn execute(sql: &str, catalog: &Catalog) -> Result<Table, SqlError> {
    let query = parser::parse(sql)?;
    exec::execute_query(&query, catalog)
}

/// The result of a general SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// Rows from a SELECT or EXPLAIN.
    Rows(Table),
    /// A table was created (name, row count).
    Created(String, usize),
    /// A table was dropped.
    Dropped(String),
}

impl StatementResult {
    /// The rows, when the statement produced any.
    pub fn rows(&self) -> Option<&Table> {
        match self {
            StatementResult::Rows(t) => Some(t),
            _ => None,
        }
    }
}

/// Parses and executes one statement, mutating the catalog when needed.
///
/// Supported statements:
/// * `SELECT …` — returns rows;
/// * `CREATE TABLE <name> AS SELECT …` — materializes the query;
/// * `DROP TABLE <name>` — removes a table;
/// * `EXPLAIN SELECT …` — returns a one-column description of the plan.
pub fn execute_statement(sql: &str, catalog: &mut Catalog) -> Result<StatementResult, SqlError> {
    let trimmed = sql.trim();
    let upper = trimmed.to_ascii_uppercase();
    if let Some(rest) = upper.strip_prefix("CREATE TABLE ") {
        let as_pos = rest
            .find(" AS ")
            .ok_or_else(|| SqlError::Parse("CREATE TABLE requires AS SELECT".into()))?;
        let name = trimmed["CREATE TABLE ".len().."CREATE TABLE ".len() + as_pos]
            .trim()
            .to_string();
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(SqlError::Parse(format!("invalid table name '{name}'")));
        }
        let select_sql = &trimmed["CREATE TABLE ".len() + as_pos + " AS ".len()..];
        let table = execute(select_sql, catalog)?;
        let rows = table.len();
        catalog.register(&name, table);
        return Ok(StatementResult::Created(name, rows));
    }
    if let Some(rest) = upper.strip_prefix("DROP TABLE ") {
        let name = trimmed["DROP TABLE ".len().."DROP TABLE ".len() + rest.len()]
            .trim()
            .trim_end_matches(';')
            .to_string();
        return match catalog.drop_table(&name) {
            Some(_) => Ok(StatementResult::Dropped(name)),
            None => Err(SqlError::UnknownTable(name)),
        };
    }
    if upper.starts_with("EXPLAIN ") {
        let select_sql = &trimmed["EXPLAIN ".len()..];
        let query = parser::parse(select_sql)?;
        let mut table = Table::new(aida_data::Schema::of(["plan"]));
        for line in exec::explain(&query) {
            table
                .push_row(vec![aida_data::Value::Str(line.into())])
                .map_err(|e| SqlError::Eval(e.to_string()))?;
        }
        return Ok(StatementResult::Rows(table));
    }
    execute(trimmed, catalog).map(StatementResult::Rows)
}

#[cfg(test)]
mod statement_tests {
    use super::*;
    use aida_data::{Schema, Value};

    fn catalog() -> Catalog {
        let mut t = Table::new(Schema::of(["year", "thefts"]));
        t.push_row(vec![Value::Int(2001), Value::Int(86_250)])
            .unwrap();
        t.push_row(vec![Value::Int(2024), Value::Int(1_135_291)])
            .unwrap();
        let mut cat = Catalog::new();
        cat.register("reports", t);
        cat
    }

    #[test]
    fn create_table_as_select_materializes() {
        let mut cat = catalog();
        let result = execute_statement(
            "CREATE TABLE recent AS SELECT year, thefts FROM reports WHERE year > 2010",
            &mut cat,
        )
        .unwrap();
        assert_eq!(result, StatementResult::Created("recent".into(), 1));
        let rows = execute("SELECT thefts FROM recent", &cat).unwrap();
        assert_eq!(rows.cell(0, "thefts"), Some(&Value::Int(1_135_291)));
    }

    #[test]
    fn create_rejects_bad_names_and_missing_as() {
        let mut cat = catalog();
        assert!(
            execute_statement("CREATE TABLE bad name AS SELECT 1 FROM reports", &mut cat).is_err()
        );
        assert!(execute_statement("CREATE TABLE x SELECT 1 FROM reports", &mut cat).is_err());
    }

    #[test]
    fn drop_table_removes_and_errors_on_missing() {
        let mut cat = catalog();
        assert_eq!(
            execute_statement("DROP TABLE reports", &mut cat).unwrap(),
            StatementResult::Dropped("reports".into())
        );
        assert!(matches!(
            execute_statement("DROP TABLE reports", &mut cat),
            Err(SqlError::UnknownTable(_))
        ));
    }

    #[test]
    fn explain_describes_the_pipeline() {
        let mut cat = catalog();
        let result = execute_statement(
            "EXPLAIN SELECT year, SUM(thefts) AS t FROM reports WHERE year > 2000 \
             GROUP BY year ORDER BY t DESC LIMIT 3",
            &mut cat,
        )
        .unwrap();
        let rows = result.rows().unwrap();
        let text: Vec<String> = rows
            .rows()
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert!(text[0].starts_with("Scan: reports"));
        assert!(text.iter().any(|l| l.starts_with("Filter")));
        assert!(text.iter().any(|l| l.starts_with("Aggregate")));
        assert!(text.iter().any(|l| l.starts_with("Sort")));
        assert!(text.iter().any(|l| l.starts_with("Limit: 3")));
    }

    #[test]
    fn plain_select_passes_through() {
        let mut cat = catalog();
        let result = execute_statement("SELECT COUNT(*) AS n FROM reports", &mut cat).unwrap();
        assert_eq!(result.rows().unwrap().cell(0, "n"), Some(&Value::Int(2)));
    }
}
