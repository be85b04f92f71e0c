//! Deterministic report rendering: a human table for the terminal and a
//! JSONL export for `results/`.
//!
//! Both renderers consume findings already sorted by
//! [`crate::rules::Finding::sort_key`], carry no timestamps or absolute
//! paths, and therefore emit byte-identical output across runs — ci.sh
//! `cmp`s two consecutive runs to hold the linter to that.

use crate::rules::Finding;
use std::fmt::Write as _;

/// Renders the human-readable report.
pub fn render_text(new: &[Finding], baselined: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "aida-lint: {files_scanned} files scanned");
    if new.is_empty() {
        let _ = writeln!(out, "clean: 0 new findings ({} baselined)", baselined.len());
        return out;
    }
    let errors = new.iter().filter(|f| f.severity.name() == "error").count();
    let _ = writeln!(
        out,
        "{} new finding(s) [{} error, {} warning], {} baselined",
        new.len(),
        errors,
        new.len() - errors,
        baselined.len()
    );
    for f in new {
        let _ = writeln!(
            out,
            "  {} {:7} {}:{} {}",
            f.rule,
            f.severity.name(),
            f.file,
            f.line,
            f.message
        );
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "      | {}", f.snippet);
        }
    }
    out
}

/// Renders the JSONL report: one object per finding (new findings carry
/// `"status":"new"`, baselined ones `"status":"baselined"`), then a
/// final summary object.
pub fn render_jsonl(new: &[Finding], baselined: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for (status, list) in [("new", new), ("baselined", baselined)] {
        for f in list {
            let _ = writeln!(
                out,
                "{{\"rule\":{},\"severity\":{},\"status\":{},\"file\":{},\"line\":{},\"message\":{},\"snippet\":{}}}",
                json_str(f.rule),
                json_str(f.severity.name()),
                json_str(status),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet),
            );
        }
    }
    let _ = writeln!(
        out,
        "{{\"summary\":true,\"files_scanned\":{},\"new\":{},\"baselined\":{}}}",
        files_scanned,
        new.len(),
        baselined.len()
    );
    out
}

/// Minimal JSON string escaping (the obs crate has a fuller writer, but
/// the linter must not depend on the crates it audits).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Severity;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            rule: "D1",
            severity: Severity::Error,
            file: "crates/x/src/a.rs".into(),
            line: 7,
            message: "wall clock".into(),
            snippet: "let t = Instant::now(); // \"quoted\"".into(),
        }]
    }

    #[test]
    fn jsonl_is_line_per_finding_plus_summary() {
        let jsonl = render_jsonl(&sample(), &[], 3);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"rule\":\"D1\""));
        assert!(lines[0].contains("\"status\":\"new\""));
        assert!(lines[0].contains("\\\"quoted\\\""));
        assert!(lines[1].contains("\"summary\":true"));
        assert!(lines[1].contains("\"files_scanned\":3"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_jsonl(&sample(), &sample(), 9);
        let b = render_jsonl(&sample(), &sample(), 9);
        assert_eq!(a, b);
        assert_eq!(
            render_text(&sample(), &[], 1),
            render_text(&sample(), &[], 1)
        );
    }

    #[test]
    fn clean_report_reads_clean() {
        let text = render_text(&[], &sample(), 5);
        assert!(text.contains("clean: 0 new findings (1 baselined)"));
    }
}
