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
///
/// Two passes: tags are cut out into one buffer, then entities are
/// decoded (an entity may span a cut tag) and whitespace collapsed in
/// one walk over it.
pub fn to_text(html: &str) -> String {
    collapse_decoded(&strip_tags_and_scripts(html))
}

/// The text between tags, with a line break for each block-level tag and
/// a space for each cell tag; `<script>`/`<style>` bodies are dropped.
/// A tag runs from `<` through the next `>`, or to the end.
fn strip_tags_and_scripts(html: &str) -> String {
    let mut out = String::with_capacity(html.len());
    // The closing tag a `<script>` or `<style>` body runs to.
    let mut skip_until: Option<&'static [u8]> = None;
    let mut i = 0;
    while let Some(offset) = html[i..].find('<') {
        let open = i + offset;
        if skip_until.is_none() {
            out.push_str(&html[i..open]);
        }
        let close = html[open + 1..].find('>').map(|p| open + 1 + p);
        let rest = &html.as_bytes()[open..];
        if let Some(end) = skip_until {
            if starts_with_ignore_case(rest, end) {
                skip_until = None;
            }
        } else {
            if starts_with_ignore_case(rest, b"<script") {
                skip_until = Some(b"</script");
            } else if starts_with_ignore_case(rest, b"<style") {
                skip_until = Some(b"</style");
            }
            let tag = &html[open + 1..close.unwrap_or(html.len())];
            if let Some(sep) = tag_separator(tag) {
                out.push(sep);
            }
        }
        match close {
            Some(close) => i = close + 1,
            None => return out,
        }
    }
    if skip_until.is_none() {
        out.push_str(&html[i..]);
    }
    out
}

fn starts_with_ignore_case(bytes: &[u8], prefix: &[u8]) -> bool {
    bytes
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
}

/// Block-level tags: each becomes a line break, so rows stay separated.
const BLOCK_TAGS: [&str; 10] = [
    "p", "div", "tr", "br", "li", "h1", "h2", "h3", "h4", "table",
];

/// What a tag (the text between `<` and `>`) leaves in the text: a line
/// break for a block-level tag and a space for a cell. The tag's name is
/// its first word after any leading `/`s, compared ASCII-case-insensitively.
fn tag_separator(tag: &str) -> Option<char> {
    let name = tag.trim_start_matches('/').split_whitespace().next()?;
    let is = |names: &[&str]| names.iter().any(|n| name.eq_ignore_ascii_case(n));
    if is(&BLOCK_TAGS) {
        Some('\n')
    } else if is(&["td", "th"]) {
        Some(' ')
    } else {
        None
    }
}

/// The six entities decoded, and what each becomes.
const ENTITIES: [(&str, char); 6] = [
    ("&amp;", '&'),
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
    ("&#39;", '\''),
    ("&nbsp;", ' '),
];

/// `text` with its entities decoded, then each line (split as
/// `str::lines` splits) cut to its words (split as
/// `str::split_whitespace` splits) joined by one space; empty lines are
/// dropped and every kept line ends in `\n`. One walk: a decoded
/// `&nbsp;` is whitespace like any other.
fn collapse_decoded(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    // Whether the current line has a word yet, and whether whitespace has
    // come since its last word.
    let (mut line_has_word, mut space) = (false, false);
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        let (c, len) = if c == '&' {
            entity(rest)
        } else {
            (c, c.len_utf8())
        };
        rest = &rest[len..];
        if c == '\n' {
            if line_has_word {
                out.push('\n');
            }
            (line_has_word, space) = (false, false);
        } else if c.is_whitespace() {
            space = line_has_word;
        } else {
            if space {
                out.push(' ');
            }
            out.push(c);
            (line_has_word, space) = (true, false);
        }
    }
    if line_has_word {
        out.push('\n');
    }
    out
}

/// Decodes `&amp; &lt; &gt; &quot; &#39; &nbsp;`.
fn decode_entities(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        let (c, len) = entity(&rest[pos..]);
        out.push(c);
        rest = &rest[pos + len..];
    }
    out.push_str(rest);
    out
}

/// For `rest` starting with `&`: the character its entity decodes to and
/// the entity's length, or a bare `&`.
fn entity(rest: &str) -> (char, usize) {
    ENTITIES
        .iter()
        .find(|(entity, _)| rest.starts_with(entity))
        .map_or(('&', 1), |&(entity, c)| (c, entity.len()))
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
#[path = "../tests/common/html_oracle.rs"]
mod html_oracle;

#[cfg(test)]
mod tests {
    use super::html_oracle::to_text_oracle;
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
    fn multibyte_text_after_every_tag_strips_as_the_oracle_does() {
        // Byte 8 after each `<` falls inside a multi-byte character, which
        // once made every tag lowercase the whole rest of the document.
        let tags = if cfg!(debug_assertions) { 2_000 } else { 8_000 };
        let html: String = (0..tags).map(|n| format!("<b>日本語{n}</b> ")).collect();
        assert_eq!(to_text(&html), to_text_oracle(&html));
        assert!(to_text(&html).starts_with("日本語0 日本語1 "));
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        const CASES: u32 = if cfg!(debug_assertions) { 1024 } else { 16384 };

        /// Pieces of HTML: mixed-case and slashed tags, tags with
        /// attributes and odd spacing, `<script>`/`<style>` blocks that
        /// hold `<` and near-miss closers, unclosed tags, whole and
        /// partial entities, `\r\n`, Unicode whitespace and multi-byte
        /// text right after `<`.
        #[rustfmt::skip]
        const PIECES: &[&str] = &[
            "<p>", "<P>", "</p>", "<Div class=\"x\">", "</DIV >", "<tr>", "</Tr>", "<bR/>",
            "<br>", "<li>", "<H1>", "</h4>", "<TABLE border=1>", "<td>", "<TH>", "</td>",
            "< p>", "</ td>", "<//p>", "<p\u{2003}x>", "<\u{a0}li>", "<tr\tclass=a>",
            "<b>", "<span>", "<tbody>", "<pre>", "<p/>", "<>", "< >", "<!-- c -->",
            "<script>var x = '<p>';</script>", "<ScRiPt type=t>a<b && c</SCRIPT >",
            "<style>p<td{color:red}</style>", "<STYLE>x</stylex>y</style>",
            "<script>", "</script>", "<style>", "</Style>", "<scriptx>", "<styles>",
            "<p", "<div class='x'", "<", ">", "&", "&am", "&amp", "&amp;", "&lt;",
            "&gt;", "&quot;", "&#39;", "&#3", "&nbsp;", "&nbsp", "&amp;lt;",
            "\r\n", "\n", "\r", " ", "\t", "\u{2003}", "\u{a0}", "\u{85}", "\u{2028}", "\u{b}",
            "<日本語>", "<é", "<aaaaaaé", "<b>日本語</b>", "<ǅ>", "İ", "—",
        ];

        fn piece() -> impl Strategy<Value = String> {
            prop_oneof![
                (0..PIECES.len()).prop_map(|i| PIECES[i].to_string()),
                "[a-zA-Z0-9 .,]{1,8}",
                "[a-z日é &;<>/\n]{1,6}",
            ]
        }

        fn html() -> impl Strategy<Value = String> {
            prop::collection::vec(piece(), 0..40).prop_map(|pieces| pieces.concat())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(CASES))]
            #[test]
            fn to_text_is_the_oracles(html in html()) {
                prop_assert_eq!(to_text(&html), to_text_oracle(&html));
            }
        }
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
        assert_eq!(
            decode_entities("&quot;x&quot;&nbsp;&amp;lt;&am"),
            "\"x\" &lt;&am"
        );
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
