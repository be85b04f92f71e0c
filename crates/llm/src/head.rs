//! Task heads: the per-operator part of a filter, extract or map task.
//!
//! A semantic operator applies one instruction to every record of a
//! Context. What the simulator derives from that instruction alone — the
//! prompt's tokens before the subject, the content key's task parts, the
//! oracle query and its lowercase, the generic reader's needles — is the
//! same for every record and every model. A [`TaskHead`] derives each on
//! first use and keeps it, so an operator that builds one head and sends
//! every record through [`crate::LlmTask::Prepared`] derives them once.
//! The memo is lazy: a call the cache serves asks only for the key parts.
//! Every slot holds exactly what the per-call derivation computes, so keys,
//! responses and bills do not depend on whether a head is shared.

use crate::oracle::OracleQuery;
use crate::sim::{self, content_words};
use crate::{noise, tokens};
use std::sync::OnceLock;

/// The part of a filter, extract or map task that is the same for every
/// subject: the instruction, the extracted field and its description, or
/// the summary's token budget. Build one per operator and borrow it for
/// every record ([`crate::LlmTask::Prepared`]); it is `Sync`, so parallel
/// workers share it.
#[derive(Debug, Clone)]
pub struct TaskHead<'a> {
    instruction: &'a str,
    kind: HeadKind<'a>,
    memo: HeadMemo,
}

/// Which task a head opens, with the fields beyond the instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HeadKind<'a> {
    /// A boolean judgement.
    Filter,
    /// A field extraction.
    Extract {
        /// Target field name.
        field: &'a str,
        /// Field description (guides the generic reader).
        field_desc: &'a str,
    },
    /// A free-text transformation.
    Map {
        /// Completion-length budget in tokens.
        target_tokens: usize,
    },
}

/// What a head derives from its fields, each slot filled on first use.
#[derive(Debug, Clone, Default)]
struct HeadMemo {
    /// The content key's task parts and how many of them there are.
    key_parts: OnceLock<([u64; 4], usize)>,
    prompt_tokens: OnceLock<usize>,
    query: OnceLock<Query>,
    needles: OnceLock<Needles>,
    /// Whether a map's instruction asks for a common theme.
    theme: OnceLock<bool>,
}

/// The oracle query beyond the head's own fields.
#[derive(Debug, Clone)]
struct Query {
    /// An extract's `"{instruction} :: {field}"`; `None` for a filter or
    /// map, whose query is the instruction.
    joined: Option<Box<str>>,
    /// The query's ASCII lowercase; `None` when it is the query itself.
    lower: Option<Box<str>>,
    /// `hash_str` of the query: the call key's instruction part.
    hash: u64,
}

/// The generic reader's needles: content words of the head's fields.
#[derive(Debug, Clone)]
pub(crate) struct Needles {
    /// The instruction's content words, then (extract) the field's: a
    /// filter's needles, and the words an extract's table reader matches
    /// column headers against.
    pub(crate) words: Vec<String>,
    /// (Extract) `words` plus the field description's, sorted, each with
    /// the number of times it occurs: the line scorer's needles.
    pub(crate) weighted: Vec<(String, usize)>,
    /// (Extract) the first year the instruction names: the table row key.
    pub(crate) row_key: Option<i64>,
    /// (Extract) whether the field asks for a year.
    pub(crate) want_year: bool,
}

impl<'a> TaskHead<'a> {
    fn new(instruction: &'a str, kind: HeadKind<'a>) -> TaskHead<'a> {
        TaskHead {
            instruction,
            kind,
            memo: HeadMemo::default(),
        }
    }

    /// A filter's head: the natural-language predicate.
    pub fn filter(instruction: &'a str) -> TaskHead<'a> {
        TaskHead::new(instruction, HeadKind::Filter)
    }

    /// An extract's head: the instruction, the target field and its
    /// description.
    pub fn extract(instruction: &'a str, field: &'a str, field_desc: &'a str) -> TaskHead<'a> {
        TaskHead::new(instruction, HeadKind::Extract { field, field_desc })
    }

    /// A map's head: the instruction and the completion's token budget.
    pub fn map(instruction: &'a str, target_tokens: usize) -> TaskHead<'a> {
        TaskHead::new(instruction, HeadKind::Map { target_tokens })
    }

    pub(crate) fn kind(&self) -> HeadKind<'a> {
        self.kind
    }

    /// The content key's task parts: the kind's tag, then `hash_str` of
    /// the instruction and (extract) of the field and its description, or
    /// (map) the token budget.
    pub(crate) fn key_parts(&self) -> &[u64] {
        let (parts, n) = self.memo.key_parts.get_or_init(|| {
            let instruction = noise::hash_str(self.instruction);
            match self.kind {
                HeadKind::Filter => ([1, instruction, 0, 0], 2),
                HeadKind::Extract { field, field_desc } => (
                    [
                        2,
                        instruction,
                        noise::hash_str(field),
                        noise::hash_str(field_desc),
                    ],
                    4,
                ),
                HeadKind::Map { target_tokens } => ([3, instruction, target_tokens as u64, 0], 3),
            }
        });
        &parts[..*n]
    }

    /// The prompt's tokens before the subject's part: the kind's preamble
    /// and the head's fields, as [`tokens::count_parts`] counts them.
    pub(crate) fn prompt_tokens(&self) -> usize {
        *self.memo.prompt_tokens.get_or_init(|| match self.kind {
            HeadKind::Filter => {
                sim::FILTER_PREAMBLE.tokens() + tokens::count_parts(&[self.instruction])
            }
            HeadKind::Extract { field, field_desc } => {
                sim::EXTRACT_PREAMBLE.tokens()
                    + tokens::count_parts(&[self.instruction, field, field_desc])
            }
            HeadKind::Map { .. } => {
                sim::MAP_PREAMBLE.tokens() + tokens::count_parts(&[self.instruction])
            }
        })
    }

    fn query_memo(&self) -> &Query {
        self.memo.query.get_or_init(|| {
            let joined = match self.kind {
                HeadKind::Extract { field, .. } => {
                    Some(format!("{} :: {field}", self.instruction).into_boxed_str())
                }
                HeadKind::Filter | HeadKind::Map { .. } => None,
            };
            let text = joined.as_deref().unwrap_or(self.instruction);
            let lower = text
                .bytes()
                .any(|b| b.is_ascii_uppercase())
                .then(|| text.to_ascii_lowercase().into_boxed_str());
            Query {
                hash: noise::hash_str(text),
                joined,
                lower,
            }
        })
    }

    /// What the oracle's rules are asked: a filter's or map's
    /// instruction, an extract's `"{instruction} :: {field}"`, with its
    /// lowercase.
    pub(crate) fn oracle_query(&self) -> OracleQuery<'_> {
        let query = self.query_memo();
        let text = query.joined.as_deref().unwrap_or(self.instruction);
        OracleQuery::new(text, query.lower.as_deref().unwrap_or(text))
    }

    /// `hash_str` of the oracle query: the call key's instruction part.
    pub(crate) fn query_hash(&self) -> u64 {
        self.query_memo().hash
    }

    /// The generic reader's needles.
    pub(crate) fn needles(&self) -> &Needles {
        self.memo.needles.get_or_init(|| {
            let mut words = content_words(self.instruction);
            let HeadKind::Extract { field, field_desc } = self.kind else {
                return Needles {
                    words,
                    weighted: Vec::new(),
                    row_key: None,
                    want_year: false,
                };
            };
            words.extend(content_words(field));
            let mut all = words.clone();
            all.extend(content_words(field_desc));
            all.sort_unstable();
            let weighted = all
                .chunk_by(|a, b| a == b)
                .map(|equal| (equal[0].clone(), equal.len()))
                .collect();
            Needles {
                words,
                weighted,
                row_key: self
                    .instruction
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse::<i64>().ok())
                    .find(|n| sim::ROW_KEYS.contains(n)),
                want_year: field.to_ascii_lowercase().contains("year"),
            }
        })
    }

    /// Whether a map's instruction asks for a common theme (the group-by
    /// labeller's question), which the generic reader answers with
    /// [`sim`]'s theme label instead of a summary.
    pub(crate) fn asks_theme(&self) -> bool {
        *self.memo.theme.get_or_init(|| {
            self.instruction
                .to_ascii_lowercase()
                .contains("common theme")
        })
    }
}
