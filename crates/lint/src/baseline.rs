//! `lint.toml` — configuration and the checked-in baseline/allowlist.
//!
//! The linter is dependency-free, so this is a hand-rolled parser for
//! the small TOML subset the file actually uses: `[section]` tables,
//! `[[allow]]` array-of-tables, and `key = value` where value is a
//! quoted string, a one-line array of quoted strings, an integer, or a
//! bool. Unknown keys are ignored (forward compatibility); malformed
//! lines produce a typed error with the line number.

use std::fmt;

/// One baseline entry: a finding matching all present fields is
/// suppressed (reported as `baselined`, not `new`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allow {
    /// Rule family id the entry applies to (`"D3"` …). Empty = any.
    pub rule: String,
    /// File the entry applies to (exact or suffix match). Empty = any.
    pub file: String,
    /// Substring that must appear in the finding's snippet or message.
    /// Empty = any.
    pub contains: String,
    /// Why this is acceptable — required, so every suppression carries
    /// its justification in the diff that introduced it.
    pub reason: String,
}

impl Allow {
    /// Whether this entry suppresses `f`.
    pub fn matches(&self, f: &crate::rules::Finding) -> bool {
        (self.rule.is_empty() || self.rule == f.rule)
            && (self.file.is_empty() || f.file == self.file || f.file.ends_with(&self.file))
            && (self.contains.is_empty()
                || f.snippet.contains(&self.contains)
                || f.message.contains(&self.contains))
    }
}

/// Parse error with 1-based line.
#[derive(Debug)]
pub struct TomlError {
    /// Line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// A parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `"…"`.
    Str(String),
    /// `["a", "b"]`.
    List(Vec<String>),
    /// `42`.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
}

/// One `key = value` with the table path it appeared under.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Table name (`"lint"`), or `"allow"` for `[[allow]]` items.
    pub table: String,
    /// Index of the `[[allow]]` item this entry belongs to (0-based);
    /// `usize::MAX` for plain `[section]` entries.
    pub item: usize,
    /// Key name.
    pub key: String,
    /// Parsed value.
    pub value: Value,
}

/// Parses the TOML subset into a flat entry list.
pub fn parse(text: &str) -> Result<Vec<Entry>, TomlError> {
    let mut entries = Vec::new();
    let mut table = String::new();
    let mut item = usize::MAX;
    let mut allow_count = 0usize;
    for (lineno, line) in logical_lines(text) {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            table = name.trim().to_string();
            item = allow_count;
            allow_count += 1;
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            table = name.trim().to_string();
            item = usize::MAX;
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(TomlError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let key = line[..eq].trim().to_string();
        let value = parse_value(line[eq + 1..].trim(), lineno)?;
        entries.push(Entry {
            table: table.clone(),
            item,
            key,
            value,
        });
    }
    Ok(entries)
}

/// Folds physical lines into logical ones: a line whose `[`s (outside
/// strings) outnumber its `]`s continues onto the next line, so arrays
/// may span lines. Comments are stripped per physical line. Each
/// logical line carries the 1-based number of its first physical line.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String, i64)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let stripped = strip_comment(raw);
        let depth = bracket_depth(stripped);
        match pending.take() {
            Some((start, mut acc, open)) => {
                acc.push(' ');
                acc.push_str(stripped.trim());
                if open + depth > 0 {
                    pending = Some((start, acc, open + depth));
                } else {
                    out.push((start, acc));
                }
            }
            None => {
                if depth > 0 {
                    pending = Some((idx + 1, stripped.trim().to_string(), depth));
                } else {
                    out.push((idx + 1, stripped.to_string()));
                }
            }
        }
    }
    if let Some((start, acc, _)) = pending {
        // Unterminated array: hand it to the value parser as-is so the
        // error points at the opening line.
        out.push((start, acc));
    }
    out
}

/// Net `[` minus `]` outside quoted strings. Table headers (`[lint]`,
/// `[[allow]]`) are balanced, so they contribute zero.
fn bracket_depth(line: &str) -> i64 {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth
}

/// Removes a trailing `# comment` that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(text: &str, line: usize) -> Result<Value, TomlError> {
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('"') {
        return Ok(Value::Str(parse_string(text, line)?.0));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let (s, used) = parse_string(rest, line)?;
            items.push(s);
            rest = rest[used..].trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() {
                return Err(TomlError {
                    line,
                    message: format!("expected `,` between array items, got `{rest}`"),
                });
            }
        }
        return Ok(Value::List(items));
    }
    text.parse::<i64>().map(Value::Int).map_err(|_| TomlError {
        line,
        message: format!("unsupported value `{text}`"),
    })
}

/// Parses a leading quoted string; returns (content, bytes consumed).
fn parse_string(text: &str, line: usize) -> Result<(String, usize), TomlError> {
    let mut chars = text.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => {
            return Err(TomlError {
                line,
                message: format!("expected quoted string, got `{text}`"),
            });
        }
    }
    let mut out = String::new();
    let mut escaped = false;
    for (i, c) in chars {
        if escaped {
            out.push(match c {
                'n' => '\n',
                't' => '\t',
                other => other,
            });
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Ok((out, i + 1)),
            other => out.push(other),
        }
    }
    Err(TomlError {
        line,
        message: "unterminated string".to_string(),
    })
}

/// Splits findings into (new, baselined) against the allowlist. Order
/// within each bucket is preserved.
pub fn apply_baseline(
    findings: Vec<crate::rules::Finding>,
    allows: &[Allow],
) -> (Vec<crate::rules::Finding>, Vec<crate::rules::Finding>) {
    let mut new = Vec::new();
    let mut baselined = Vec::new();
    for f in findings {
        if allows.iter().any(|a| a.matches(&f)) {
            baselined.push(f);
        } else {
            new.push(f);
        }
    }
    (new, baselined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Severity};

    #[test]
    fn parses_sections_arrays_and_allows() {
        let text = r#"
# top comment
[lint]
roots = ["crates", "src"]   # trailing comment
clock_file = "crates/llm/src/clock.rs"
max_findings = 500
strict = true

[[allow]]
rule = "D3"
file = "m.rs"
reason = "tie-break is total"

[[allow]]
rule = "L1"
reason = "guard dropped before second lock"
"#;
        let entries = parse(text).unwrap();
        let roots = entries
            .iter()
            .find(|e| e.table == "lint" && e.key == "roots")
            .unwrap();
        assert_eq!(
            roots.value,
            Value::List(vec!["crates".into(), "src".into()])
        );
        let allows: Vec<&Entry> = entries.iter().filter(|e| e.table == "allow").collect();
        assert_eq!(allows.last().unwrap().item, 1);
        assert!(entries
            .iter()
            .any(|e| e.key == "strict" && e.value == Value::Bool(true)));
        assert!(entries
            .iter()
            .any(|e| e.key == "max_findings" && e.value == Value::Int(500)));
    }

    #[test]
    fn multi_line_arrays_fold_into_one_entry() {
        let text = "[lint]\nmods = [\n    \"a.rs\",  # first\n    \"b.rs\",\n]\nafter = \"x\"\n";
        let entries = parse(text).unwrap();
        assert_eq!(
            entries[0].value,
            Value::List(vec!["a.rs".into(), "b.rs".into()])
        );
        assert_eq!(entries[1].value, Value::Str("x".into()));
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let entries = parse("[lint]\nname = \"a # b\"").unwrap();
        assert_eq!(entries[0].value, Value::Str("a # b".into()));
    }

    #[test]
    fn malformed_line_reports_line_number() {
        let err = parse("[lint]\nwhat is this").unwrap_err();
        assert_eq!(err.line, 2);
    }

    fn finding(rule: &'static str, file: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            severity: Severity::Error,
            file: file.to_string(),
            line: 1,
            message: String::new(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn allow_matches_rule_file_and_contains() {
        let allow = Allow {
            rule: "D3".into(),
            file: "core/src/manager.rs".into(),
            contains: "entries.iter".into(),
            reason: "total tie-break".into(),
        };
        assert!(allow.matches(&finding(
            "D3",
            "crates/core/src/manager.rs",
            "let x = self.entries.iter().min_by(cmp);"
        )));
        assert!(!allow.matches(&finding("D3", "crates/core/src/manager.rs", "other")));
        assert!(!allow.matches(&finding("D1", "crates/core/src/manager.rs", "entries.iter")));
        assert!(!allow.matches(&finding("D3", "crates/obs/src/report.rs", "entries.iter")));
    }

    #[test]
    fn baseline_splits_new_from_known() {
        let allows = vec![Allow {
            rule: "D1".into(),
            ..Allow::default()
        }];
        let (new, base) = apply_baseline(
            vec![finding("D1", "a.rs", ""), finding("D2", "b.rs", "")],
            &allows,
        );
        assert_eq!(new.len(), 1);
        assert_eq!(new[0].rule, "D2");
        assert_eq!(base.len(), 1);
    }
}
