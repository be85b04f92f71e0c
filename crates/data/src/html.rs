//! A minimal HTML reader.
//!
//! The legal workload contains HTML report pages; agents and semantic
//! operators need (a) the visible text and (b) any `<table>` contents. This
//! module implements a small, forgiving tag scanner — enough for
//! machine-generated report pages, not a general browser parser.

use crate::record::Schema;
use crate::table::Table;
use crate::value::Value;

/// Strips tags and decodes the handful of common entities, returning the
/// visible text with collapsed whitespace. `<script>`/`<style>` bodies are
/// dropped entirely.
pub fn to_text(html: &str) -> String {
    let mut out = String::with_capacity(html.len() / 2);
    let mut chars = html.char_indices().peekable();
    let mut skip_until: Option<&'static str> = None;
    while let Some((i, c)) = chars.next() {
        if c == '<' {
            let rest = &html[i..];
            if let Some(close) = skip_until {
                if rest
                    .get(..close.len())
                    .is_some_and(|head| head.eq_ignore_ascii_case(close))
                {
                    skip_until = None;
                }
                // Consume through the end of this tag either way.
                for (_, tc) in chars.by_ref() {
                    if tc == '>' {
                        break;
                    }
                }
                continue;
            }
            let lower = rest.get(..8).unwrap_or(rest).to_ascii_lowercase();
            if lower.starts_with("<script") {
                skip_until = Some("</script");
            } else if lower.starts_with("<style") {
                skip_until = Some("</style");
            }
            let mut tag = String::new();
            for (_, tc) in chars.by_ref() {
                if tc == '>' {
                    break;
                }
                tag.push(tc);
            }
            // Block-level tags become line breaks so rows stay separated.
            let name = tag
                .trim_start_matches('/')
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_ascii_lowercase();
            if matches!(
                name.as_str(),
                "p" | "div" | "tr" | "br" | "li" | "h1" | "h2" | "h3" | "h4" | "table"
            ) {
                out.push('\n');
            } else if matches!(name.as_str(), "td" | "th") {
                out.push(' ');
            }
        } else if skip_until.is_none() {
            out.push(c);
        }
    }
    collapse_whitespace(&decode_entities(&out))
}

/// Decodes `&amp; &lt; &gt; &quot; &#39; &nbsp;`.
fn decode_entities(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let replaced = [
            ("&amp;", "&"),
            ("&lt;", "<"),
            ("&gt;", ">"),
            ("&quot;", "\""),
            ("&#39;", "'"),
            ("&nbsp;", " "),
        ]
        .iter()
        .find(|(ent, _)| rest.starts_with(ent));
        match replaced {
            Some((ent, rep)) => {
                out.push_str(rep);
                rest = &rest[ent.len()..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

fn collapse_whitespace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let line = line.split_whitespace().collect::<Vec<_>>().join(" ");
        if !line.is_empty() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Extracts every `<table>` in the document as a typed [`Table`]. The first
/// row (or the `<th>` row) is treated as the header; cells are type-inferred.
pub fn extract_tables(html: &str) -> Vec<Table> {
    let lower = html.to_ascii_lowercase();
    let mut tables = Vec::new();
    let mut cursor = 0usize;
    while let Some(start) = lower[cursor..].find("<table") {
        let start = cursor + start;
        let body_start = match lower[start..].find('>') {
            Some(p) => start + p + 1,
            None => break,
        };
        let end = match lower[body_start..].find("</table") {
            Some(p) => body_start + p,
            None => lower.len(),
        };
        if let Some(table) = parse_table_body(&html[body_start..end]) {
            tables.push(table);
        }
        cursor = end + 1;
        if cursor >= lower.len() {
            break;
        }
    }
    tables
}

fn parse_table_body(body: &str) -> Option<Table> {
    let lower = body.to_ascii_lowercase();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cursor = 0usize;
    while let Some(tr) = lower[cursor..].find("<tr") {
        let tr = cursor + tr;
        let row_start = lower[tr..].find('>')? + tr + 1;
        let row_end = lower[row_start..]
            .find("</tr")
            .map(|p| row_start + p)
            .unwrap_or(lower.len());
        rows.push(parse_row_cells(&body[row_start..row_end]));
        cursor = row_end + 1;
        if cursor >= lower.len() {
            break;
        }
    }
    let mut iter = rows.into_iter().filter(|r| !r.is_empty());
    let header = iter.next()?;
    let schema = Schema::of(header.iter().map(|h| h.trim().to_string()));
    let width = schema.len();
    let mut table = Table::new(schema);
    for row in iter {
        let mut values: Vec<Value> = row.iter().map(|c| Value::infer(c)).collect();
        values.resize(width, Value::Null);
        values.truncate(width);
        let _ = table.push_row(values);
    }
    Some(table)
}

fn parse_row_cells(row_html: &str) -> Vec<String> {
    let lower = row_html.to_ascii_lowercase();
    let mut cells = Vec::new();
    let mut cursor = 0usize;
    loop {
        let td = lower[cursor..].find("<td").map(|p| (p, "</td"));
        let th = lower[cursor..].find("<th").map(|p| (p, "</th"));
        let (offset, close) = match (td, th) {
            (Some(a), Some(b)) => {
                if a.0 <= b.0 {
                    a
                } else {
                    b
                }
            }
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        let open = cursor + offset;
        let content_start = match lower[open..].find('>') {
            Some(p) => open + p + 1,
            None => break,
        };
        let content_end = lower[content_start..]
            .find(close)
            .map(|p| content_start + p)
            .unwrap_or(lower.len());
        cells.push(decode_entities(
            strip_tags(&row_html[content_start..content_end]).trim(),
        ));
        cursor = content_end + 1;
        if cursor >= lower.len() {
            break;
        }
    }
    cells
}

fn strip_tags(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_tag = false;
    for c in text.chars() {
        match c {
            '<' => in_tag = true,
            '>' => in_tag = false,
            _ if !in_tag => out.push(c),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"<html><head><style>body{color:red}</style>
<script>var x = "<table>";</script></head>
<body><h1>Identity Theft Reports</h1>
<p>National totals &amp; trends.</p>
<table>
  <tr><th>year</th><th>reports</th></tr>
  <tr><td>2001</td><td>86,250</td></tr>
  <tr><td>2024</td><td>1,135,291</td></tr>
</table></body></html>"#;

    #[test]
    fn text_extraction_drops_script_and_style() {
        let text = to_text(PAGE);
        assert!(text.contains("Identity Theft Reports"));
        assert!(text.contains("National totals & trends."));
        assert!(!text.contains("var x"));
        assert!(!text.contains("color:red"));
    }

    #[test]
    fn multibyte_text_inside_a_script_body_does_not_panic() {
        // `</script` is 8 bytes; the `<` here sits 8 bytes before the
        // end, so the probe window would split the two-byte `é`.
        assert_eq!(to_text("<script>x<aaaaaaé</script>"), "");
    }

    #[test]
    fn table_extraction_infers_types() {
        let tables = extract_tables(PAGE);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.schema().names(), vec!["year", "reports"]);
        assert_eq!(t.cell(1, "reports"), Some(&Value::Int(1_135_291)));
    }

    #[test]
    fn entities_decode() {
        assert_eq!(
            decode_entities("a &lt;b&gt; &amp; c &#39;d&#39;"),
            "a <b> & c 'd'"
        );
        assert_eq!(decode_entities("no entities"), "no entities");
        assert_eq!(decode_entities("&unknown;"), "&unknown;");
    }

    #[test]
    fn multiple_tables_extracted() {
        let html = "<table><tr><th>a</th></tr><tr><td>1</td></tr></table>\
                    <table><tr><th>b</th></tr><tr><td>2</td></tr></table>";
        let tables = extract_tables(html);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].schema().names(), vec!["a"]);
        assert_eq!(tables[1].cell(0, "b"), Some(&Value::Int(2)));
    }

    #[test]
    fn ragged_rows_are_padded_and_truncated() {
        let html = "<table><tr><th>a</th><th>b</th></tr>\
                    <tr><td>1</td></tr>\
                    <tr><td>1</td><td>2</td><td>3</td></tr></table>";
        let tables = extract_tables(html);
        let t = &tables[0];
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][1], Value::Null);
        assert_eq!(t.rows()[1].len(), 2);
    }

    #[test]
    fn empty_html_has_no_tables() {
        assert!(extract_tables("<p>hello</p>").is_empty());
        assert_eq!(to_text("<p></p>"), "");
    }
}
