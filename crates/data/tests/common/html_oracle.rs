//! `aida_data::html::to_text` as it was written char by char, with a
//! `String` per tag and one per pass: the oracle for the byte scan. It
//! takes nothing from `aida_data`. `html.rs`'s tests and `aida-core`'s
//! Context tests include this file by path.

/// Strips tags and decodes the handful of common entities, returning the
/// visible text with collapsed whitespace. `<script>`/`<style>` bodies are
/// dropped entirely.
pub fn to_text_oracle(html: &str) -> String {
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
