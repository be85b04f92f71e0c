//! The generic readers against the line-by-line readers they replaced.
//!
//! `reference_*` are the readers as they were before the lowered-text,
//! table-view, line-span and gram-set memos: each call lowers the text
//! line by line, probes every line for every needle and rescans the text
//! for comma lines. The property test asserts the memo-backed readers
//! (the extractor merges equal needles, skips the ones a document's gram
//! set rules out and bisects the line range for the rest) return
//! identical values, for a document subject (memoized slots) and for a
//! plain-text subject of the same text (slots computed per call, no gram
//! set), and that a document's memoized line spans are its lines. The
//! needles run from 2 bytes (`é`, `٣`), which the set always passes, up;
//! short texts often end in a word with no line break after it, and some
//! lines are longer than 64 bytes with several hits of one needle. A
//! second property checks a task head's memo against the derivations each
//! call made before heads: prompt tokens, content-key parts, oracle query,
//! needles. `ci.sh` runs both in release at the full case count.

use super::{
    content_words, first_number, generic_extract, generic_filter, table_extract, EXTRACT_PREAMBLE,
    FILTER_PREAMBLE, MAP_PREAMBLE,
};
use crate::oracle::Subject;
use crate::{noise, tokens, TaskHead};
use aida_data::{Document, Value};
use proptest::prelude::*;
use std::ops::Range;

fn reference_filter(instruction: &str, text: &str) -> bool {
    let needles = content_words(instruction);
    if needles.is_empty() {
        return true;
    }
    let haystack = text.to_ascii_lowercase();
    let hits = needles
        .iter()
        .filter(|w| haystack.contains(w.as_str()))
        .count();
    (hits as f64) / (needles.len() as f64) >= 0.5
}

fn reference_table_extract(instruction: &str, field: &str, text: &str) -> Option<Value> {
    let comma_lines: Vec<&str> = text.lines().filter(|l| l.contains(',')).collect();
    if comma_lines.len() < 3 {
        return None;
    }
    let header = comma_lines[0];
    let cols: Vec<String> = header
        .split(',')
        .map(|c| c.trim().to_ascii_lowercase())
        .collect();
    let mut needles = content_words(instruction);
    needles.extend(content_words(&field.replace('_', " ")));
    let mut best_col: Option<(usize, usize)> = None;
    for (i, col) in cols.iter().enumerate() {
        let col_tokens = content_words(&col.replace('_', " "));
        let score = col_tokens.iter().filter(|t| needles.contains(t)).count();
        if score > 0 && best_col.is_none_or(|(s, _)| score > s) {
            best_col = Some((score, i));
        }
    }
    let (_, col_idx) = best_col?;
    let key = instruction
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse::<i64>().ok())
        .find(|n| (1900..=2100).contains(n))?;
    for line in &comma_lines[1..] {
        let cells: Vec<&str> = line.split(',').collect();
        let keyed = cells
            .iter()
            .any(|c| c.trim().parse::<i64>().map(|v| v == key).unwrap_or(false));
        if keyed {
            let Some(raw) = cells.get(col_idx).map(|c| c.trim()) else {
                continue;
            };
            let cleaned: String = raw.chars().filter(|c| *c != ',').collect();
            if let Ok(i) = cleaned.parse::<i64>() {
                return Some(Value::Int(i));
            }
            if let Ok(f) = cleaned.parse::<f64>() {
                return Some(Value::Float(f));
            }
            return Some(Value::Str(raw.into()));
        }
    }
    None
}

fn reference_extract(instruction: &str, field: &str, field_desc: &str, text: &str) -> Value {
    if let Some(v) = reference_table_extract(instruction, field, text) {
        return v;
    }
    let mut needles = content_words(instruction);
    needles.extend(content_words(&field.replace('_', " ")));
    needles.extend(content_words(field_desc));
    let mut best: Option<(usize, &str)> = None;
    for line in text.lines() {
        let lower = line.to_ascii_lowercase();
        let score = needles
            .iter()
            .filter(|w| lower.contains(w.as_str()))
            .count();
        if score > 0 && best.is_none_or(|(s, _)| score > s) {
            best = Some((score, line));
        }
    }
    let want_year = field.to_ascii_lowercase().contains("year");
    let line = match best {
        Some((_, line)) => line,
        None => {
            return text
                .lines()
                .find_map(|l| first_number(l, want_year))
                .unwrap_or(Value::Null);
        }
    };
    match first_number(line, want_year) {
        Some(v) => v,
        None => Value::Str(line.trim().into()),
    }
}

/// Pieces a text is built from: mixed-case words that instructions ask
/// about, numbers with separators, every line ending `str::lines` treats
/// differently (LF, CRLF, a lone CR), ASCII whitespace that
/// `u8::is_ascii_whitespace` and `char::is_whitespace` disagree on
/// (U+000B), non-ASCII whitespace and alphanumerics, and table lines:
/// headers, keyed rows, ragged rows and rows keyed twice. Two pieces are
/// lines longer than 64 bytes with several hits of one needle.
const TEXT_PIECES: &[&str] = &[
    "Identity",
    "THEFT",
    "theft",
    "Reports",
    "fraud",
    "Year",
    "the",
    "of",
    "Straße",
    "é",
    "٣",
    "total",
    " ",
    " ",
    ", ",
    ",",
    ":",
    "\n",
    "\n",
    "\r\n",
    "\r",
    "\u{0B}",
    "\u{0C}",
    "\t",
    "\u{A0}",
    "\u{85}",
    "2024",
    "2001",
    "1,135,291",
    "86250",
    "13.16",
    "-7",
    "+2024",
    "year,fraud_reports,identity_theft_reports\n",
    "Year, Identity Theft ,Other\r\n",
    "YEAR,thefts,notes\u{0B}\n",
    "2024,2600000,1135291\n",
    "2001 , 325519 , 86250\r\n",
    "2024,9\n",
    "2024\n",
    "2001,2001,x y\n",
    "2024,1.5,inf\n",
    "row,é٣,THEFT reports",
    "TAX",
    "id",
    "Tax-ID",
    "Identity theft reports rose; identity THEFT reports fell; theft of tax ids too\n",
    "fraud fraud fraud and é é ٣ ٣ for 2001 in a line that is longer than sixty-four bytes",
];

const INSTRUCTIONS: &[&str] = &[
    "mentions identity theft",
    "Identity THEFT reports in 2024",
    "number of identity theft reports in 2001",
    "fraud reports in 2024 and 2001",
    "theft theft theft in 2024",
    "theft reports theft fraud theft reports in 2001",
    "fraud Fraud identity identity identity reports",
    "the of and",
    "report year",
    "total Straße é",
    "thefts in 1899 then 2024",
    "٣ reports 2001",
    "tax é ٣ id",
    "",
];

const FIELDS: &[&str] = &["thefts", "identity_theft", "year", "fraud", "value", ""];

const FIELD_DESCS: &[&str] = &[
    "",
    "number of reports",
    "the year",
    "notes x",
    "é total",
    "reports reports fraud",
    "identity theft theft total total total",
];

/// Short texts (which often end in a word, with no line break after it),
/// and long ones of more than 64 lines, so the extractor's bisection
/// recurses several levels.
fn text() -> impl Strategy<Value = String> {
    let piece = 0..TEXT_PIECES.len();
    let line = prop::collection::vec(piece.clone(), 0..6).prop_map(|picks| {
        let mut line: String = picks.into_iter().map(|i| TEXT_PIECES[i]).collect();
        line.push('\n');
        line
    });
    prop_oneof![
        prop::collection::vec(piece, 0..48)
            .prop_map(|picks| picks.into_iter().map(|i| TEXT_PIECES[i]).collect()),
        prop::collection::vec(line, 65..160).prop_map(|lines| lines.concat()),
    ]
}

fn lines_of<'t>(text: &'t str, spans: &[Range<usize>]) -> Vec<&'t str> {
    spans.iter().map(|span| &text[span.clone()]).collect()
}

fn pick(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..options.len()).prop_map(move |i| options[i])
}

const CASES: u32 = if cfg!(debug_assertions) { 512 } else { 16384 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn memo_backed_readers_answer_like_the_line_readers(
        text in text(),
        instruction in pick(INSTRUCTIONS),
        field in pick(FIELDS),
        field_desc in pick(FIELD_DESCS),
        name in pick(&["d.txt", "d.csv", "d.eml"]),
    ) {
        let doc = Document::new(name, text.as_str());
        prop_assert_eq!(lines_of(&text, doc.line_spans()), text.lines().collect::<Vec<_>>());
        // One head per task for both subjects: the second reads the first's
        // needles.
        let filter = TaskHead::filter(instruction);
        let extract = TaskHead::extract(instruction, field, field_desc);
        for subject in [Subject::doc(&doc), Subject::text_only(name, &text)] {
            prop_assert_eq!(
                table_extract(extract.needles(), &subject),
                reference_table_extract(instruction, field, &text)
            );
            prop_assert_eq!(
                generic_filter(&filter, &subject),
                reference_filter(instruction, &text)
            );
            prop_assert_eq!(
                generic_extract(&extract, &subject),
                reference_extract(instruction, field, field_desc, &text)
            );
        }
    }
}

/// Pieces of a head's instruction, field and description: upper case,
/// non-ASCII letters, stopwords, repeated words, years in and out of the
/// row-key range, the theme question and the query separator.
const WORDING: &[&str] = &[
    "Identity",
    "THEFT",
    "theft",
    "theft",
    "Reports",
    "fraud",
    "Year",
    "year",
    "the",
    "of",
    "and",
    "number",
    "Straße",
    "é",
    "٣",
    "2024",
    "2001",
    "1899",
    "+2024",
    "Common Theme",
    "common theme",
    "::",
    "_",
    " ",
    " ",
    ",",
];

fn wording() -> impl Strategy<Value = String> {
    prop::collection::vec(0..WORDING.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| WORDING[i]).collect())
}

/// What each call derived from a filter's, extract's or map's fields
/// before task heads, per kind (0 filter, 1 extract, 2 map): the content
/// key's task parts, the prompt's tokens before the subject, the oracle
/// query, the generic reader's needles, its weighted line needles, the
/// table row key, whether a year is wanted, and the theme test.
#[allow(clippy::type_complexity)]
fn reference_derivations(
    kind: usize,
    instruction: &str,
    field: &str,
    field_desc: &str,
    target_tokens: usize,
) -> (
    Vec<u64>,
    usize,
    String,
    Vec<String>,
    Vec<(String, usize)>,
    Option<i64>,
    bool,
    bool,
) {
    let hash = noise::hash_str;
    let (parts, prompt, query) = match kind {
        0 => (
            vec![1, hash(instruction)],
            FILTER_PREAMBLE.tokens() + tokens::count_parts(&[instruction]),
            instruction.to_string(),
        ),
        1 => (
            vec![2, hash(instruction), hash(field), hash(field_desc)],
            EXTRACT_PREAMBLE.tokens() + tokens::count_parts(&[instruction, field, field_desc]),
            format!("{instruction} :: {field}"),
        ),
        _ => (
            vec![3, hash(instruction), target_tokens as u64],
            MAP_PREAMBLE.tokens() + tokens::count_parts(&[instruction]),
            instruction.to_string(),
        ),
    };
    let mut words = content_words(instruction);
    let (mut weighted, mut row_key, mut want_year) = (Vec::new(), None, false);
    if kind == 1 {
        words.extend(content_words(field));
        let mut all = words.clone();
        all.extend(content_words(field_desc));
        all.sort_unstable();
        weighted = all
            .chunk_by(|a, b| a == b)
            .map(|equal| (equal[0].clone(), equal.len()))
            .collect();
        row_key = instruction
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse::<i64>().ok())
            .find(|n| (1900..=2100).contains(n));
        want_year = field.to_ascii_lowercase().contains("year");
    }
    let theme = instruction.to_ascii_lowercase().contains("common theme");
    (
        parts, prompt, query, words, weighted, row_key, want_year, theme,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn a_head_derives_what_each_call_derived(
        kind in 0usize..3,
        instruction in wording(),
        field in wording(),
        field_desc in wording(),
        target_tokens in 0usize..200,
        order in 0usize..2,
    ) {
        let head = match kind {
            0 => TaskHead::filter(&instruction),
            1 => TaskHead::extract(&instruction, &field, &field_desc),
            _ => TaskHead::map(&instruction, target_tokens),
        };
        let (parts, prompt, query, words, weighted, row_key, want_year, theme) =
            reference_derivations(kind, &instruction, &field, &field_desc, target_tokens);
        // Fill the memo in either order, then read every slot twice.
        if order == 1 {
            head.needles();
            head.oracle_query();
        }
        for _ in 0..2 {
            prop_assert_eq!(head.key_parts(), &parts[..]);
            prop_assert_eq!(head.prompt_tokens(), prompt);
            prop_assert_eq!(head.oracle_query().text(), query.as_str());
            prop_assert_eq!(head.oracle_query().lower(), query.to_ascii_lowercase());
            prop_assert_eq!(head.query_hash(), noise::hash_str(&query));
            let needles = head.needles();
            prop_assert_eq!(&needles.words, &words);
            if kind == 1 {
                prop_assert_eq!(&needles.weighted, &weighted);
                prop_assert_eq!(needles.row_key, row_key);
                prop_assert_eq!(needles.want_year, want_year);
            }
            if kind == 2 {
                prop_assert_eq!(head.asks_theme(), theme);
            }
        }
    }
}
