//! A from-scratch CSV reader and writer.
//!
//! Implements the practical core of RFC 4180: comma separation, CRLF/LF row
//! endings, double-quoted fields with embedded commas/quotes/newlines, and
//! quote-escaping by doubling. The reader is a single-pass state machine;
//! it never allocates more than one row at a time beyond the output.

use crate::error::DataError;
use crate::record::Schema;
use crate::table::Table;
use crate::value::Value;

/// Parses CSV text into rows of string cells.
///
/// Empty trailing lines are ignored. Returns an error on an unterminated
/// quoted field.
pub fn parse(text: &str) -> Result<Vec<Vec<String>>, DataError> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut line = 1usize;
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cell.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    cell.push(c);
                }
                _ => cell.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    row.push(std::mem::take(&mut cell));
                }
                '\r' => {
                    // Swallow the LF of a CRLF pair; lone CR also ends a row.
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                    line += 1;
                }
                '\n' => {
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                    line += 1;
                }
                _ => cell.push(c),
            }
        }
    }

    if in_quotes {
        return Err(DataError::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if saw_any && (!cell.is_empty() || !row.is_empty()) {
        row.push(cell);
        rows.push(row);
    }
    // Drop fully-empty trailing rows produced by trailing newlines.
    while rows.last().is_some_and(|r| r.len() == 1 && r[0].is_empty()) {
        rows.pop();
    }
    Ok(rows)
}

/// Parses CSV text whose first row is a header into a typed [`Table`].
///
/// Cell types are inferred per-cell with [`Value::infer`]. Rows shorter than
/// the header are padded with `Null`; longer rows are an error.
pub fn parse_table(text: &str) -> Result<Table, DataError> {
    let rows = parse(text)?;
    let mut iter = rows.into_iter();
    let header = match iter.next() {
        Some(h) => h,
        None => return Ok(Table::new(Schema::empty())),
    };
    let schema = Schema::of(header.iter().map(|h| h.trim().to_string()));
    let mut table = Table::new(schema);
    for (i, row) in iter.enumerate() {
        if row.len() > header.len() {
            return Err(DataError::ArityMismatch {
                expected: header.len(),
                found: row.len(),
            });
        }
        let mut values: Vec<Value> = row.iter().map(|c| Value::infer(c)).collect();
        values.resize(header.len(), Value::Null);
        table.push_row(values).map_err(|_| DataError::Csv {
            line: i + 2,
            message: "row arity mismatch".into(),
        })?;
    }
    Ok(table)
}

/// Escapes a cell for CSV output, quoting only when necessary.
fn escape_cell(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        let mut out = String::with_capacity(cell.len() + 2);
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        cell.to_string()
    }
}

/// Serializes rows of cells to CSV text with LF row endings.
pub fn write(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape_cell(cell));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_rows() {
        let rows = parse("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parses_quoted_fields_with_commas_and_newlines() {
        let rows = parse("name,notes\n\"Smith, J\",\"line1\nline2\"\n").unwrap();
        assert_eq!(rows[1][0], "Smith, J");
        assert_eq!(rows[1][1], "line1\nline2");
    }

    #[test]
    fn doubled_quotes_unescape() {
        let rows = parse("a\n\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(rows[1][0], "say \"hi\"");
    }

    #[test]
    fn handles_crlf_endings() {
        let rows = parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["1", "2"]);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = parse("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, DataError::Csv { .. }));
    }

    #[test]
    fn empty_input_yields_no_rows() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("\n\n").unwrap().is_empty());
    }

    #[test]
    fn table_infers_types_and_pads_short_rows() {
        let t = parse_table("year,count,label\n2001,325519,theft\n2024,\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][1], Value::Int(325_519));
        assert_eq!(t.rows()[1][1], Value::Null);
        assert_eq!(t.rows()[1][2], Value::Null);
    }

    #[test]
    fn table_rejects_long_rows() {
        assert!(parse_table("a,b\n1,2,3\n").is_err());
    }

    #[test]
    fn write_round_trips_through_parse() {
        let rows = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["with \"quote\"".to_string(), "multi\nline".to_string()],
        ];
        let text = write(&rows);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, rows);
    }

    #[test]
    fn escape_only_when_needed() {
        assert_eq!(escape_cell("plain"), "plain");
        assert_eq!(escape_cell("a,b"), "\"a,b\"");
        assert_eq!(escape_cell("q\"q"), "\"q\"\"q\"");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        // Cells with every troublesome character class: commas, quotes,
        // newlines, CRs, unicode.
        fn cell_strategy() -> impl Strategy<Value = String> {
            prop::collection::vec(
                prop_oneof![
                    Just(",".to_string()),
                    Just("\"".to_string()),
                    Just("\n".to_string()),
                    Just("\r\n".to_string()),
                    "[a-zA-Z0-9 ]{0,6}",
                    Just("é日本".to_string()),
                ],
                0..5,
            )
            .prop_map(|parts| parts.concat())
        }

        proptest! {
            #[test]
            fn write_parse_round_trip(
                rows in prop::collection::vec(
                    prop::collection::vec(cell_strategy(), 1..5),
                    1..8,
                )
            ) {
                // Normalize: all rows same width (parse is strict only in
                // table mode, but round-trip needs rectangular input to
                // compare shape).
                let width = rows[0].len();
                let rows: Vec<Vec<String>> =
                    rows.into_iter().map(|mut r| { r.resize(width, String::new()); r }).collect();
                // Fully-empty trailing rows are dropped by the parser by
                // design; skip inputs that end with one.
                prop_assume!(!rows.last().unwrap().iter().all(String::is_empty) || width > 1);
                let text = write(&rows);
                let parsed = parse(&text).unwrap();
                prop_assert_eq!(parsed, rows);
            }

            #[test]
            fn parse_never_panics(text in ".{0,200}") {
                let _ = parse(&text);
            }

            #[test]
            fn infer_round_trips_integers(i in any::<i64>()) {
                prop_assert_eq!(Value::infer(&i.to_string()), Value::Int(i));
            }
        }
    }
}
