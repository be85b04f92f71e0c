//! Span tree data model.
//!
//! A span is a virtual-time interval attributed to one node of the query
//! hierarchy: query → agentic op → agent step → program (tool call) →
//! physical operator. Leaf LLM calls are recorded as *events* on the
//! innermost open span rather than as spans of their own: they may be
//! issued from a deterministic thread pool, and span identity must stay
//! independent of worker interleaving.

use crate::event::Event;
use crate::json::Json;
use std::fmt::{self, Write as _};

/// What layer of the runtime a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole `Query::run` invocation (root of a trace tree).
    Query,
    /// One agentic operator (search / compute / sem-tool dispatch).
    AgenticOp,
    /// One ReAct step of the code agent.
    AgentStep,
    /// One semantic-program tool call (synthesize + optimize + execute).
    Program,
    /// One physical semantic operator inside an executed plan.
    PhysicalOp,
    /// A SQL statement executed against the catalog.
    Sql,
    /// Anything else.
    Other,
}

impl SpanKind {
    /// Stable lowercase identifier used in reports and JSONL.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::AgenticOp => "agentic_op",
            SpanKind::AgentStep => "agent_step",
            SpanKind::Program => "program",
            SpanKind::PhysicalOp => "physical_op",
            SpanKind::Sql => "sql",
            SpanKind::Other => "other",
        }
    }
}

/// One recorded span. All times are virtual seconds from the `SimClock`;
/// no wall-clock value ever enters a span, so traces replay bit-for-bit.
#[derive(Debug, Clone)]
pub struct SpanData {
    /// Index into the recorder's span table.
    pub id: usize,
    /// Parent span id, if any.
    pub parent: Option<usize>,
    /// Layer of the hierarchy.
    pub kind: SpanKind,
    /// Human-readable label (operator name, instruction prefix, ...).
    pub name: String,
    /// Virtual start time (seconds).
    pub start_s: f64,
    /// Virtual end time (seconds); `start_s` until finished.
    pub end_s: f64,
    /// Records entering this node, when meaningful.
    pub rows_in: Option<usize>,
    /// Records leaving this node, when meaningful.
    pub rows_out: Option<usize>,
    /// LLM call attempts billed while this span was innermost (self only,
    /// excluding descendants). Fault retries count: they are billed.
    pub calls: u64,
    /// Input tokens billed while this span was innermost (self only).
    pub input_tokens: u64,
    /// Output tokens billed while this span was innermost (self only).
    pub output_tokens: u64,
    /// Dollars billed while this span was innermost (self only).
    pub cost_usd: f64,
    /// Free-form key/value attributes (insertion-ordered).
    pub attrs: Vec<(String, String)>,
    /// Typed events attached while this span was innermost.
    pub events: Vec<Event>,
}

impl SpanData {
    pub(crate) fn new(
        id: usize,
        parent: Option<usize>,
        kind: SpanKind,
        name: String,
        start_s: f64,
    ) -> SpanData {
        SpanData {
            id,
            parent,
            kind,
            name,
            start_s,
            end_s: start_s,
            rows_in: None,
            rows_out: None,
            calls: 0,
            input_tokens: 0,
            output_tokens: 0,
            cost_usd: 0.0,
            attrs: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Virtual duration in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_s - self.start_s).max(0.0)
    }

    /// Serializes this span as one JSON object (one JSONL line).
    pub fn to_json(&self) -> Json {
        let mut attrs = Json::obj();
        for (k, v) in &self.attrs {
            attrs = attrs.field(k, v.as_str());
        }
        Json::obj()
            .field("type", "span")
            .field("id", self.id)
            .field(
                "parent",
                match self.parent {
                    Some(p) => Json::Num(p as f64),
                    None => Json::Null,
                },
            )
            .field("kind", self.kind.name())
            .field("name", self.name.as_str())
            .field("start_s", self.start_s)
            .field("end_s", self.end_s)
            .field(
                "rows_in",
                match self.rows_in {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            )
            .field(
                "rows_out",
                match self.rows_out {
                    Some(n) => Json::Num(n as f64),
                    None => Json::Null,
                },
            )
            .field("calls", self.calls)
            .field("input_tokens", self.input_tokens)
            .field("output_tokens", self.output_tokens)
            .field("cost_usd", self.cost_usd)
            .field("attrs", attrs)
            .field(
                "events",
                Json::Arr(self.events.iter().map(Event::to_json).collect()),
            )
    }
}

/// Clips a label to at most `max` characters on a char boundary,
/// appending `…` when truncated. Newlines are flattened to spaces so
/// labels stay single-line in reports.
pub fn clip(s: &str, max: usize) -> String {
    clipped(s, max).to_string()
}

/// [`clip`] of `value`'s text, formatted only when it is displayed: a
/// span name or attribute passed as `clipped(..)` costs nothing on a
/// disabled recorder. Formatting stops at the first character past
/// `max`, so a long value is never rendered whole.
pub fn clipped<T: fmt::Display>(value: T, max: usize) -> Clipped<T> {
    Clipped { value, max }
}

/// The lazy form of [`clip`], built by [`clipped`].
#[derive(Debug)]
pub struct Clipped<T> {
    value: T,
    max: usize,
}

impl<T: fmt::Display> fmt::Display for Clipped<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = ClipWriter {
            out: f,
            room: self.max,
            held: None,
            cut: false,
        };
        match write!(out, "{}", self.value) {
            // The writer stopped the value at the cut: not an error.
            Err(_) if out.cut => Ok(()),
            Err(e) => Err(e),
            Ok(()) => match out.held {
                Some(c) => out.out.write_char(c),
                None => Ok(()),
            },
        }
    }
}

/// Flattens and clips what is written through it. The `max`-th
/// character is held back until the next one shows whether the text is
/// cut there (`…`) or ends there (the held character).
struct ClipWriter<'a, 'b> {
    out: &'a mut fmt::Formatter<'b>,
    /// Characters that may still be written before the held one.
    room: usize,
    held: Option<char>,
    cut: bool,
}

impl fmt::Write for ClipWriter<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            let c = if matches!(c, '\n' | '\r' | '\t') {
                ' '
            } else {
                c
            };
            if self.room > 1 {
                self.room -= 1;
                self.out.write_char(c)?;
            } else if self.room == 1 && self.held.is_none() {
                self.held = Some(c);
            } else {
                self.out.write_char('…')?;
                self.cut = true;
                return Err(fmt::Error);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// `clip` as it was written before it became [`Clipped`]'s
    /// `to_string`: flatten, count, cut. The oracle for the lazy form.
    fn clip_oracle(s: &str, max: usize) -> String {
        let flat: String = s
            .chars()
            .map(|c| {
                if matches!(c, '\n' | '\r' | '\t') {
                    ' '
                } else {
                    c
                }
            })
            .collect();
        if flat.chars().count() <= max {
            flat
        } else {
            let mut out: String = flat.chars().take(max.saturating_sub(1)).collect();
            out.push('…');
            out
        }
    }

    /// Writes its text `chunk` bytes at a time (on char boundaries), so
    /// the clip sees a value arrive in many `write_str` calls.
    struct Chunked<'a>(&'a str, usize);

    impl fmt::Display for Chunked<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut rest = self.0;
            while !rest.is_empty() {
                let mut end = self.1.min(rest.len()).max(1);
                while !rest.is_char_boundary(end) {
                    end += 1;
                }
                f.write_str(&rest[..end])?;
                rest = &rest[end..];
            }
            Ok(())
        }
    }

    #[test]
    fn clip_flattens_and_truncates() {
        assert_eq!(clip("short", 10), "short");
        assert_eq!(clip("a\nb\tc", 10), "a b c");
        assert_eq!(clip("abcdefghij", 5), "abcd…");
    }

    #[test]
    fn clipped_matches_the_oracle_around_the_limit() {
        for max in 0..6usize {
            for len in max.saturating_sub(1)..=max + 1 {
                for unit in ["a", "\n", "\t", "\r", "é", "日", "…"] {
                    let text = unit.repeat(len);
                    let want = clip_oracle(&text, max);
                    assert_eq!(clip(&text, max), want, "{text:?} at {max}");
                    assert_eq!(clipped(&text, max).to_string(), want);
                    assert_eq!(clipped(Chunked(&text, 1), max).to_string(), want);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn clipped_writes_what_clip_returns(
            text in "[ab \n\t\ré日…]{0,14}",
            max in 0usize..16,
            chunk in 1usize..5,
        ) {
            let want = clip_oracle(&text, max);
            prop_assert_eq!(&clip(&text, max), &want);
            prop_assert_eq!(&clipped(&text, max).to_string(), &want);
            prop_assert_eq!(&clipped(Chunked(&text, chunk), max).to_string(), &want);
        }
    }

    #[test]
    fn span_json_has_stable_shape() {
        let mut s = SpanData::new(0, None, SpanKind::Query, "q".into(), 1.5);
        s.end_s = 2.5;
        s.calls = 3;
        let line = s.to_json().render();
        assert!(line.starts_with(r#"{"type":"span","id":0,"parent":null,"kind":"query""#));
        assert!(line.contains(r#""start_s":1.5"#));
        assert!(line.contains(r#""calls":3"#));
    }
}
