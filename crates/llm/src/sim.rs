//! The simulated LLM itself.
//!
//! [`SimLlm::invoke`] is the single entry point every semantic operator and
//! agent step goes through. It (1) computes the true answer — via a
//! registered oracle rule when one applies, otherwise by generically
//! *reading* the subject text — (2) corrupts the answer through the
//! tier/difficulty noise channel, and (3) bills tokens to the shared
//! [`UsageMeter`] and reports the call's simulated latency.

use crate::cache::{self, CacheKey, Lookup, SemanticCache};
use crate::models::{ModelCatalog, ModelId};
use crate::noise;
use crate::oracle::{Oracle, OracleAnswer, Subject};
use crate::tokens;
use crate::usage::UsageMeter;
use aida_data::Value;
use aida_obs::{Event, Recorder};

/// A semantic task submitted to the simulated LLM.
#[derive(Debug, Clone)]
pub enum LlmTask<'a> {
    /// Boolean judgement over a subject (semantic filter).
    Filter {
        /// Natural-language predicate.
        instruction: &'a str,
        /// What the model reads.
        subject: Subject<'a>,
    },
    /// Field extraction from a subject (semantic map/extract).
    Extract {
        /// Natural-language instruction.
        instruction: &'a str,
        /// Target field name.
        field: &'a str,
        /// Field description (guides the generic reader).
        field_desc: &'a str,
        /// What the model reads.
        subject: Subject<'a>,
    },
    /// Free-text transformation (summaries); `target_tokens` bounds the
    /// completion length for billing.
    Map {
        /// Natural-language instruction.
        instruction: &'a str,
        /// What the model reads.
        subject: Subject<'a>,
        /// Completion-length budget in tokens.
        target_tokens: usize,
    },
    /// Pick one of several options (LLM-judge).
    Choose {
        /// The question posed.
        question: &'a str,
        /// Candidate answers.
        options: &'a [String],
        /// Ground-truth index if the caller knows it.
        correct: Option<usize>,
    },
    /// A planning/tool-selection call whose completion the caller already
    /// synthesized (agent policies); the simulator only bills it.
    Freeform {
        /// Prompt text (billed as input).
        prompt: &'a str,
        /// Completion text (billed as output, returned verbatim).
        response: &'a str,
        /// The content hash of the completion's compiled plan. The call
        /// is cache-keyed by it instead of the raw text, so two textually
        /// different plans that lower to identical bytecode share one
        /// entry; hits count as [`crate::cache::CacheStats::plan_hits`].
        plan_hash: (u64, u64),
    },
}

/// The result of a simulated call.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmResponse {
    /// The structured answer (Bool for filters, extracted Value, Str).
    pub value: Value,
    /// The answer rendered as completion text.
    pub text: String,
    /// Prompt tokens billed.
    pub input_tokens: usize,
    /// Completion tokens billed.
    pub output_tokens: usize,
    /// Simulated call latency in seconds (callers advance the clock).
    pub latency_s: f64,
    /// Whether the noise channel corrupted the true answer.
    pub corrupted: bool,
}

/// The simulated LLM service.
#[derive(Debug, Clone)]
pub struct SimLlm {
    catalog: ModelCatalog,
    oracle: Oracle,
    meter: UsageMeter,
    seed: u64,
    fault_rate: f64,
    recorder: Recorder,
    cache: Option<SemanticCache>,
}

impl SimLlm {
    /// Creates a simulator with the default catalog and a fresh meter.
    pub fn new(seed: u64) -> Self {
        SimLlm {
            catalog: ModelCatalog::default(),
            oracle: Oracle::new(),
            meter: UsageMeter::new(),
            seed,
            fault_rate: 0.0,
            recorder: Recorder::disabled(),
            cache: None,
        }
    }

    /// Attaches a trace recorder: every billed call (including injected
    /// faults and retry backoff) is reported as an event on the innermost
    /// open span.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached trace recorder (disabled unless opted in).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Enables transient-fault injection: with this per-call probability a
    /// call "fails once and is retried" — the failed attempt's prompt (and
    /// a truncated completion) is billed, and a backoff is added to the
    /// call's latency. Deterministic per call key, like all noise.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The configured transient-fault rate.
    pub fn fault_rate(&self) -> f64 {
        self.fault_rate
    }

    /// The model catalog.
    pub fn catalog(&self) -> &ModelCatalog {
        &self.catalog
    }

    /// The shared usage meter.
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// The oracle rule registry (generators register rules here).
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// The base seed for this simulator instance.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Attaches a semantic call cache: repeated calls with an identical
    /// content key are served from the store at zero dollars/tokens and
    /// the cache's configured hit latency. Off by default.
    pub fn with_cache(mut self, cache: SemanticCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached semantic cache, if any.
    pub fn cache(&self) -> Option<&SemanticCache> {
        self.cache.as_ref()
    }

    /// The content-addressed cache key for a call: every determinant of
    /// the simulated response (seed, model, task kind and fields, and
    /// the subject's name, text, and oracle labels) is hashed, so equal
    /// keys imply the simulator would answer identically.
    pub fn content_key(&self, model: ModelId, task: &LlmTask<'_>) -> CacheKey {
        self.keyed(model, task).0
    }

    /// The content key plus whether it was derived from a compiled plan's
    /// bytecode hash (drives the `plan_hits` stat class on hits).
    fn keyed(&self, model: ModelId, task: &LlmTask<'_>) -> (CacheKey, bool) {
        let mut parts: Vec<u64> = vec![self.seed, noise::hash_str(model.name())];
        let push_subject = |parts: &mut Vec<u64>, subject: &Subject<'_>| {
            parts.push(noise::hash_str(&subject.name));
            parts.push(subject.text_hash());
            if let Some(labels) = subject.labels {
                for (name, value) in labels {
                    parts.push(noise::hash_str(name));
                    parts.push(cache::hash_value(value));
                }
            }
        };
        match task {
            LlmTask::Filter {
                instruction,
                subject,
            } => {
                parts.push(1);
                parts.push(noise::hash_str(instruction));
                push_subject(&mut parts, subject);
            }
            LlmTask::Extract {
                instruction,
                field,
                field_desc,
                subject,
            } => {
                parts.push(2);
                parts.push(noise::hash_str(instruction));
                parts.push(noise::hash_str(field));
                parts.push(noise::hash_str(field_desc));
                push_subject(&mut parts, subject);
            }
            LlmTask::Map {
                instruction,
                subject,
                target_tokens,
            } => {
                parts.push(3);
                parts.push(noise::hash_str(instruction));
                parts.push(*target_tokens as u64);
                push_subject(&mut parts, subject);
            }
            LlmTask::Choose {
                question,
                options,
                correct,
            } => {
                parts.push(4);
                parts.push(noise::hash_str(question));
                parts.push(options.len() as u64);
                parts.extend(options.iter().map(|o| noise::hash_str(o)));
                parts.push(correct.map(|i| i as u64 + 1).unwrap_or(0));
            }
            LlmTask::Freeform {
                prompt,
                plan_hash: (hi, lo),
                ..
            } => {
                // The inner tag 6 marks the plan-hash part; it is part of
                // every stored key, so it stays.
                parts.push(5);
                parts.push(noise::hash_str(prompt));
                parts.push(6);
                parts.push(*hi);
                parts.push(*lo);
            }
        }
        let plan_keyed = matches!(task, LlmTask::Freeform { .. });
        (CacheKey::from_parts(&parts), plan_keyed)
    }

    /// Executes a task with the given model, billing the meter. With a
    /// cache attached, an exact content-key hit skips billing entirely
    /// and returns the stored response at the cache's hit latency.
    pub fn invoke(&self, model: ModelId, task: &LlmTask<'_>) -> LlmResponse {
        let Some(cache) = &self.cache else {
            return self.dispatch(model, task);
        };
        let (key, plan_keyed) = self.keyed(model, task);
        match cache.begin(key) {
            Lookup::Hit(mut resp) => {
                resp.latency_s = cache::HIT_LATENCY_S;
                if plan_keyed {
                    cache.note_plan_hit();
                }
                if self.recorder.is_enabled() {
                    self.recorder.counter_add(aida_obs::registry::CACHE_HIT, 1);
                }
                resp
            }
            // A coalesced waiter shares the in-flight call: nothing is
            // billed, but it waits out the call's full latency.
            Lookup::Coalesced(resp) => {
                if self.recorder.is_enabled() {
                    self.recorder
                        .counter_add(aida_obs::registry::CACHE_COALESCED, 1);
                }
                resp
            }
            Lookup::Compute(pending) => {
                let resp = self.dispatch(model, task);
                cache.admit(pending, resp.clone());
                if self.recorder.is_enabled() {
                    self.recorder.counter_add(aida_obs::registry::CACHE_MISS, 1);
                    let stats = cache.stats();
                    self.recorder.gauge_set(
                        aida_obs::registry::CACHE_BYTES,
                        stats.lookups() as f64,
                        stats.bytes as f64,
                    );
                }
                resp
            }
        }
    }

    fn dispatch(&self, model: ModelId, task: &LlmTask<'_>) -> LlmResponse {
        match task {
            LlmTask::Filter {
                instruction,
                subject,
            } => self.run_filter(model, instruction, subject),
            LlmTask::Extract {
                instruction,
                field,
                field_desc,
                subject,
            } => self.run_extract(model, instruction, field, field_desc, subject),
            LlmTask::Map {
                instruction,
                subject,
                target_tokens,
            } => self.run_map(model, instruction, subject, *target_tokens),
            LlmTask::Choose {
                question,
                options,
                correct,
            } => self.run_choose(model, question, options, *correct),
            LlmTask::Freeform {
                prompt, response, ..
            } => self.run_freeform(model, prompt, response),
        }
    }

    fn call_key(&self, model: ModelId, instruction: &str, subject_name: &str) -> u64 {
        noise::combine(&[
            self.seed,
            noise::hash_str(model.name()),
            noise::hash_str(instruction),
            noise::hash_str(subject_name),
        ])
    }

    /// Bills a call (and, when fault injection fires for this call key,
    /// the failed first attempt plus a retry backoff). Returns the billed
    /// tokens and the call's total simulated latency.
    fn bill(
        &self,
        model: ModelId,
        input_tokens: usize,
        output_tokens: usize,
        key: u64,
    ) -> (usize, usize, f64) {
        let spec = self.catalog.spec(model);
        let mut latency = spec.latency(input_tokens, output_tokens);
        let mut faulted = false;
        if self.fault_rate > 0.0
            && noise::decide(noise::combine(&[key, 0x00FA_017E]), self.fault_rate)
        {
            // The failed attempt consumed the prompt and a truncated
            // completion before dying; add a retry backoff.
            let truncated = output_tokens / 4;
            self.meter.record(model, input_tokens, truncated);
            let backoff = spec.latency(input_tokens, truncated) + 1.0;
            latency += backoff;
            faulted = true;
            if self.recorder.is_enabled() {
                self.recorder.event(Event::FaultRetry {
                    model: model.name().to_string(),
                    backoff_s: backoff,
                    billed_input_tokens: input_tokens as u64,
                    billed_output_tokens: truncated as u64,
                    cost_usd: spec.cost(input_tokens, truncated),
                });
                self.recorder
                    .counter_add(aida_obs::registry::LLM_FAULT_RETRIES, 1);
            }
        }
        self.meter.record(model, input_tokens, output_tokens);
        if self.recorder.is_enabled() {
            self.recorder.event(Event::LlmCall {
                model: model.name().to_string(),
                input_tokens: input_tokens as u64,
                output_tokens: output_tokens as u64,
                cost_usd: spec.cost(input_tokens, output_tokens),
                latency_s: latency,
                faulted,
            });
            self.recorder.counter_add(aida_obs::registry::LLM_CALLS, 1);
            self.recorder
                .counter_add(&format!("llm.calls.{}", model.name()), 1);
            self.recorder.histogram_record(
                aida_obs::registry::LLM_TOKENS_PER_CALL,
                (input_tokens + output_tokens) as f64,
            );
        }
        (input_tokens, output_tokens, latency)
    }

    fn run_filter(&self, model: ModelId, instruction: &str, subject: &Subject<'_>) -> LlmResponse {
        let mut difficulty = subject.difficulty();
        let truth = match self.oracle.answer(instruction, subject) {
            Some(OracleAnswer::Bool(b)) => b,
            Some(OracleAnswer::BoolWithDifficulty(b, d)) => {
                difficulty = d.clamp(0.0, 1.0);
                b
            }
            Some(OracleAnswer::Value(v)) => v.truthy(),
            Some(OracleAnswer::Text(t)) => !t.is_empty(),
            None => generic_filter(instruction, &subject.text),
        };
        let key = self.call_key(model, instruction, &subject.name);
        let err = self.catalog.spec(model).error_at(difficulty);
        let corrupted = noise::decide(key, err);
        let answer = if corrupted { !truth } else { truth };
        let input = tokens::count_parts(&[FILTER_PREAMBLE, instruction]) + part_tokens(subject);
        let (input_tokens, output_tokens, latency_s) = self.bill(model, input, 4, key);
        LlmResponse {
            value: Value::Bool(answer),
            text: if answer {
                "true".into()
            } else {
                "false".into()
            },
            input_tokens,
            output_tokens,
            latency_s,
            corrupted,
        }
    }

    fn run_extract(
        &self,
        model: ModelId,
        instruction: &str,
        field: &str,
        field_desc: &str,
        subject: &Subject<'_>,
    ) -> LlmResponse {
        let oracle_query = format!("{instruction} :: {field}");
        let mut difficulty = subject.difficulty();
        let truth = match self.oracle.answer(&oracle_query, subject) {
            Some(OracleAnswer::Value(v)) => v,
            Some(OracleAnswer::Bool(b)) => Value::Bool(b),
            Some(OracleAnswer::BoolWithDifficulty(b, d)) => {
                difficulty = d.clamp(0.0, 1.0);
                Value::Bool(b)
            }
            Some(OracleAnswer::Text(t)) => Value::Str(t.into()),
            None => generic_extract(instruction, field, field_desc, &subject.text),
        };
        let key = self.call_key(model, &oracle_query, &subject.name);
        let err = self.catalog.spec(model).error_at(difficulty);
        let corrupted = noise::decide(key, err);
        let value = if corrupted {
            corrupt_value(&truth, &subject.text, key)
        } else {
            truth
        };
        let prompt = tokens::count_parts(&[EXTRACT_PREAMBLE, instruction, field, field_desc])
            + part_tokens(subject);
        let out = tokens::count(&value.to_string()).max(4) + 6;
        let (input_tokens, output_tokens, latency_s) = self.bill(model, prompt, out, key);
        LlmResponse {
            text: value.to_string(),
            value,
            input_tokens,
            output_tokens,
            latency_s,
            corrupted,
        }
    }

    fn run_map(
        &self,
        model: ModelId,
        instruction: &str,
        subject: &Subject<'_>,
        target_tokens: usize,
    ) -> LlmResponse {
        let truth = match self.oracle.answer(instruction, subject) {
            Some(OracleAnswer::Text(t)) => t,
            Some(OracleAnswer::Value(v)) => v.to_string(),
            Some(OracleAnswer::Bool(b)) => b.to_string(),
            Some(OracleAnswer::BoolWithDifficulty(b, _)) => b.to_string(),
            None if instruction.to_ascii_lowercase().contains("common theme") => {
                theme_label(&subject.text)
            }
            None => generic_summary(&subject.text, target_tokens),
        };
        let key = self.call_key(model, instruction, &subject.name);
        let err = self.catalog.spec(model).error_at(subject.difficulty());
        let corrupted = noise::decide(key, err);
        let text = if corrupted {
            // A degraded summary: drop the tail half.
            let cut = truth.len() / 2;
            let mut t = truth[..floor_char_boundary(&truth, cut)].to_string();
            t.push_str(" …");
            t
        } else {
            truth
        };
        let prompt = tokens::count_parts(&[MAP_PREAMBLE, instruction]) + part_tokens(subject);
        let out = tokens::count(&text).clamp(1, target_tokens.max(8));
        let (input_tokens, output_tokens, latency_s) = self.bill(model, prompt, out, key);
        LlmResponse {
            value: Value::Str(text.as_str().into()),
            text,
            input_tokens,
            output_tokens,
            latency_s,
            corrupted,
        }
    }

    fn run_choose(
        &self,
        model: ModelId,
        question: &str,
        options: &[String],
        correct: Option<usize>,
    ) -> LlmResponse {
        let key = self.call_key(model, question, "choose");
        let err = self.catalog.spec(model).error_at(0.3);
        let corrupted = !options.is_empty() && noise::decide(key, err);
        let truth = correct.unwrap_or(0).min(options.len().saturating_sub(1));
        let pick = if corrupted && options.len() > 1 {
            // Deterministically pick a different option.
            let offset = 1 + noise::choose(noise::splitmix64(key), options.len() - 1);
            (truth + offset) % options.len()
        } else {
            truth
        };
        let text = options.get(pick).cloned().unwrap_or_default();
        let options_text = options.join("\n");
        let prompt = tokens::count_parts(&[CHOOSE_PREAMBLE, question, &options_text]);
        let (input_tokens, output_tokens, latency_s) =
            self.bill(model, prompt, tokens::count(&text).max(2), key);
        LlmResponse {
            value: Value::Int(pick as i64),
            text,
            input_tokens,
            output_tokens,
            latency_s,
            corrupted,
        }
    }

    fn run_freeform(&self, model: ModelId, prompt: &str, response: &str) -> LlmResponse {
        let input = tokens::count_parts(&[AGENT_PREAMBLE, prompt]);
        let out = tokens::count(response).max(1);
        let key = self.call_key(model, prompt, "freeform");
        let (input_tokens, output_tokens, latency_s) = self.bill(model, input, out, key);
        LlmResponse {
            value: Value::Str(response.into()),
            text: response.to_string(),
            input_tokens,
            output_tokens,
            latency_s,
            corrupted: false,
        }
    }
}

/// The subject text's share of a prompt, as [`tokens::count_parts`] would
/// count it: the text's tokens plus the per-part framing.
fn part_tokens(subject: &Subject<'_>) -> usize {
    subject.text_tokens() + tokens::PART_FRAMING
}

const FILTER_PREAMBLE: &str = "You are a precise data analyst. Answer true or false: does the \
                               following item satisfy the predicate?";
const EXTRACT_PREAMBLE: &str = "You are a precise data analyst. Extract the requested field from \
                                the following item. Reply with only the value.";
const MAP_PREAMBLE: &str = "You are a precise data analyst. Transform the following item as \
                            instructed.";
const CHOOSE_PREAMBLE: &str = "You are a careful judge. Pick the best option for the question.";
const AGENT_PREAMBLE: &str = "You are an expert data-analysis agent that plans, writes code, and \
                              uses tools to answer questions over a data lake.";

/// Words too common to carry signal in keyword matching.
pub const STOPWORDS: &[&str] = &[
    "a",
    "an",
    "and",
    "are",
    "as",
    "at",
    "be",
    "but",
    "by",
    "for",
    "from",
    "has",
    "have",
    "in",
    "is",
    "it",
    "its",
    "of",
    "on",
    "or",
    "that",
    "the",
    "this",
    "to",
    "was",
    "were",
    "which",
    "with",
    "all",
    "any",
    "each",
    "every",
    "file",
    "files",
    "find",
    "return",
    "contain",
    "contains",
    "containing",
    "list",
    "does",
    "do",
    "into",
    "about",
    "between",
    "their",
    "they",
    "if",
    "then",
    "than",
    "only",
    "also",
    "please",
    "compute",
    "number",
    "value",
];

fn content_words(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| w.len() > 1)
        .map(|w| w.to_ascii_lowercase())
        .filter(|w| !STOPWORDS.contains(&w.as_str()))
        .collect()
}

/// Generic keyword-overlap filter: true when at least half of the
/// instruction's content words appear in the subject text.
fn generic_filter(instruction: &str, text: &str) -> bool {
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

/// Table-aware extraction for CSV-like text: picks the column whose header
/// tokens best overlap the instruction/field tokens, and the row keyed by a
/// year (or other number) mentioned in the instruction. Returns `None` when
/// the text doesn't look tabular or nothing matches.
fn table_extract(instruction: &str, field: &str, text: &str) -> Option<Value> {
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
    // Score each column by token overlap with the needles.
    let mut best_col: Option<(usize, usize)> = None; // (score, idx)
    for (i, col) in cols.iter().enumerate() {
        let col_tokens = content_words(&col.replace('_', " "));
        let score = col_tokens.iter().filter(|t| needles.contains(t)).count();
        if score > 0 && best_col.is_none_or(|(s, _)| score > s) {
            best_col = Some((score, i));
        }
    }
    let (_, col_idx) = best_col?;
    // Row key: a year mentioned in the instruction, else the first number.
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
            // A ragged keyed row (shorter than the chosen column) is
            // skipped so a later well-formed row can still answer.
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

/// Generic line-oriented extraction: tries table-aware extraction first,
/// then scores lines by overlap with the instruction/field tokens and pulls
/// the first number (or the line text) from the best line.
fn generic_extract(instruction: &str, field: &str, field_desc: &str, text: &str) -> Value {
    if let Some(v) = table_extract(instruction, field, text) {
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
            // No line matched the keywords; fall back to the first number
            // anywhere in the text (a model would still read something).
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

/// Finds the first number in a line; `prefer_year` picks a 4-digit integer
/// when present. Handles thousands separators.
fn first_number(line: &str, prefer_year: bool) -> Option<Value> {
    let mut numbers: Vec<Value> = Vec::new();
    let mut current = String::new();
    let flush = |current: &mut String, numbers: &mut Vec<Value>| {
        if current.is_empty() {
            return;
        }
        let cleaned: String = current.chars().filter(|c| *c != ',').collect();
        if let Ok(i) = cleaned.parse::<i64>() {
            numbers.push(Value::Int(i));
        } else if let Ok(f) = cleaned.parse::<f64>() {
            numbers.push(Value::Float(f));
        }
        current.clear();
    };
    for c in line.chars() {
        if c.is_ascii_digit() || c == '.' || c == ',' {
            current.push(c);
        } else {
            flush(&mut current, &mut numbers);
        }
    }
    flush(&mut current, &mut numbers);
    if prefer_year {
        if let Some(year) = numbers
            .iter()
            .find(|v| matches!(v, Value::Int(i) if (1900..=2100).contains(i)))
        {
            return Some(year.clone());
        }
    }
    numbers.into_iter().next()
}

/// Names the dominant theme of a text: its three most frequent content
/// words (the generic solver for "name the common theme" instructions,
/// used by the semantic group-by labeller).
fn theme_label(text: &str) -> String {
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for line in text.lines() {
        // Email headers are structure, not content.
        let lower = line.trim_start().to_ascii_lowercase();
        if lower.starts_with("from:")
            || lower.starts_with("to:")
            || lower.starts_with("date:")
            || lower.starts_with("cc:")
        {
            continue;
        }
        // Count each word once per line so repeated quoting doesn't drown
        // the signal.
        let mut seen = std::collections::BTreeSet::new();
        for w in content_words(line) {
            // Skip header-ish tokens, pronouns, and bare numbers — they
            // carry no thematic signal.
            if matches!(
                w.as_str(),
                "subject"
                    | "date"
                    | "com"
                    | "www"
                    | "http"
                    | "me"
                    | "we"
                    | "you"
                    | "our"
                    | "your"
                    | "please"
                    | "thanks"
            ) || w.chars().all(|c| c.is_ascii_digit())
            {
                continue;
            }
            if seen.insert(w.clone()) {
                *counts.entry(w).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(&String, &usize)> = counts.iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let words: Vec<&str> = ranked.iter().take(3).map(|(w, _)| w.as_str()).collect();
    if words.is_empty() {
        "miscellaneous".to_string()
    } else {
        words.join(" / ")
    }
}

fn generic_summary(text: &str, target_tokens: usize) -> String {
    let mut out = String::new();
    let mut words = text.split_whitespace();
    for word in words.by_ref().take(target_tokens) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    if words.next().is_some() {
        out.push('…');
    }
    out
}

fn corrupt_value(truth: &Value, text: &str, key: u64) -> Value {
    match noise::choose(noise::splitmix64(key ^ 0x00C0_FFEE), 3) {
        0 => Value::Null,
        1 => {
            // A number from elsewhere in the text, if any.
            let lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return Value::Null;
            }
            let idx = noise::choose(key ^ 0xBEEF, lines.len());
            first_number(lines[idx], false).unwrap_or(Value::Null)
        }
        _ => match truth {
            Value::Int(i) => {
                let delta = 1 + (noise::splitmix64(key) % 9) as i64;
                Value::Int(i + delta * if key & 1 == 0 { 1 } else { -1 })
            }
            Value::Float(f) => {
                let factor = 1.0 + 0.1 * noise::unit_f64(key);
                Value::Float(f * factor)
            }
            other => other.clone(),
        },
    }
}

fn floor_char_boundary(s: &str, mut idx: usize) -> usize {
    idx = idx.min(s.len());
    while idx > 0 && !s.is_char_boundary(idx) {
        idx -= 1;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FnRule, OracleAnswer};
    use aida_data::Document;
    use std::sync::Arc;

    fn sim() -> SimLlm {
        SimLlm::new(42)
    }

    #[test]
    fn filter_uses_oracle_label_when_registered() {
        let llm = sim();
        llm.oracle().register(Arc::new(FnRule::new(
            "enron",
            |_, subject: &Subject| match subject.label("gt_relevant")? {
                Value::Bool(b) => Some(OracleAnswer::Bool(*b)),
                _ => None,
            },
        )));
        let doc = Document::new("m.eml", "Subject: hi\n\nnothing about deals")
            .with_label("gt_relevant", true)
            .with_label("difficulty", 0.0);
        let task = LlmTask::Filter {
            instruction: "firsthand discussion of transactions",
            subject: Subject::doc(&doc),
        };
        let resp = llm.invoke(ModelId::Flagship, &task);
        assert_eq!(resp.value, Value::Bool(true));
        assert!(!resp.corrupted);
        assert!(resp.input_tokens > 0 && resp.output_tokens > 0);
    }

    #[test]
    fn filter_is_deterministic() {
        let llm = sim();
        let doc = Document::new("a.txt", "identity theft reports 2024");
        let task = LlmTask::Filter {
            instruction: "mentions identity theft",
            subject: Subject::doc(&doc),
        };
        let a = llm.invoke(ModelId::Nano, &task);
        let b = llm.invoke(ModelId::Nano, &task);
        assert_eq!(a.value, b.value);
    }

    #[test]
    fn noisier_model_corrupts_more() {
        let llm = sim();
        let mut flips = [0usize; 2];
        for i in 0..500 {
            let name = format!("doc{i}.txt");
            let doc = Document::new(name, "identity theft data here").with_label("difficulty", 1.0);
            let task = LlmTask::Filter {
                instruction: "mentions identity theft",
                subject: Subject::doc(&doc),
            };
            flips[0] += usize::from(llm.invoke(ModelId::Flagship, &task).corrupted);
            flips[1] += usize::from(llm.invoke(ModelId::Nano, &task).corrupted);
        }
        assert!(
            flips[1] > flips[0] * 2,
            "nano {} vs flagship {}",
            flips[1],
            flips[0]
        );
    }

    #[test]
    fn generic_filter_matches_keyword_overlap() {
        assert!(generic_filter(
            "mentions identity theft reports",
            "Identity theft reports rose to 1,135,291 in 2024."
        ));
        assert!(!generic_filter(
            "mentions natural gas pipelines",
            "Identity theft reports rose in 2024."
        ));
        // Empty instruction passes everything.
        assert!(generic_filter("of the", "anything"));
    }

    #[test]
    fn generic_extract_finds_numbers_on_best_line() {
        let text = "fraud reports: 500000\nidentity theft reports: 86250\nother: 100";
        let v = generic_extract("identity theft", "thefts", "number of reports", text);
        assert_eq!(v, Value::Int(86_250));
    }

    #[test]
    fn generic_extract_prefers_years_for_year_fields() {
        let v = generic_extract(
            "report year",
            "year",
            "the year",
            "in 2024 there were 1,135,291",
        );
        assert_eq!(v, Value::Int(2024));
    }

    #[test]
    fn generic_extract_null_when_nothing_matches() {
        let v = generic_extract("identity theft", "thefts", "", "completely unrelated words");
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn table_extract_reads_csv_by_column_and_year() {
        let csv = "year,fraud_reports,identity_theft_reports,other_reports\n\
                   2001,325519,86250,120000\n\
                   2023,2400000,1036900,1900000\n\
                   2024,2600000,1135291,2000000\n";
        let v = table_extract("number of identity theft reports in 2024", "thefts", csv);
        assert_eq!(v, Some(Value::Int(1_135_291)));
        let v = table_extract("identity theft reports in 2001", "thefts", csv);
        assert_eq!(v, Some(Value::Int(86_250)));
        // Different column selected for a fraud question.
        let v = table_extract("fraud reports in 2024", "fraud", csv);
        assert_eq!(v, Some(Value::Int(2_600_000)));
    }

    #[test]
    fn table_extract_rejects_non_tabular_text() {
        assert_eq!(
            table_extract("thefts in 2024", "thefts", "no commas here"),
            None
        );
        assert_eq!(
            table_extract("thefts in 2024", "thefts", "a,b\n1,2\n"),
            None,
            "needs at least three comma lines"
        );
    }

    #[test]
    fn table_extract_skips_ragged_keyed_rows() {
        // The first 2024-keyed row is ragged; the next one answers.
        let csv = "year,fraud,identity_theft_reports\n2001,1,2\n2024\n2024,9,1135291\n";
        assert_eq!(
            table_extract("identity theft reports in 2024", "thefts", csv),
            Some(Value::Int(1_135_291))
        );
    }

    #[test]
    fn table_extract_requires_year_key() {
        let csv = "year,thefts\n2001,1\n2024,2\n";
        assert_eq!(table_extract("thefts somewhere", "thefts", csv), None);
    }

    #[test]
    fn first_number_handles_commas_and_floats() {
        assert_eq!(
            first_number("total 1,234,567 reports", false),
            Some(Value::Int(1_234_567))
        );
        assert_eq!(
            first_number("ratio 13.16", false),
            Some(Value::Float(13.16))
        );
        assert_eq!(first_number("no numbers", false), None);
    }

    #[test]
    fn theme_labels_use_dominant_content_words() {
        let text = "pipeline maintenance schedule\npipeline capacity maintenance\npipeline gas";
        let label = theme_label(text);
        assert!(label.contains("pipeline"), "{label}");
        assert!(label.contains("maintenance"), "{label}");
        assert_eq!(theme_label(""), "miscellaneous");
    }

    #[test]
    fn map_bills_output_within_target() {
        let llm = sim();
        let doc = Document::new("a.txt", "word ".repeat(500));
        let task = LlmTask::Map {
            instruction: "summarize",
            subject: Subject::doc(&doc),
            target_tokens: 40,
        };
        let resp = llm.invoke(ModelId::Mini, &task);
        assert!(resp.output_tokens <= 40);
        assert!(resp.latency_s > 0.0);
    }

    #[test]
    fn choose_returns_correct_index_without_noise() {
        let llm = sim();
        let options = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let task = LlmTask::Choose {
            question: "which is second?",
            options: &options,
            correct: Some(1),
        };
        let resp = llm.invoke(ModelId::Flagship, &task);
        let idx = resp.value.as_int().unwrap() as usize;
        assert!(idx < 3);
        if !resp.corrupted {
            assert_eq!(idx, 1);
        } else {
            assert_ne!(idx, 1);
        }
    }

    #[test]
    fn fault_injection_bills_retries_deterministically() {
        let doc = Document::new("a.txt", "word ".repeat(200));
        let run = |rate: f64| {
            let llm = SimLlm::new(4).with_fault_rate(rate);
            let mut latency = 0.0;
            for i in 0..200 {
                let name = format!("d{i}");
                let d = Document::new(name, &*doc.content);
                let resp = llm.invoke(
                    ModelId::Mini,
                    &LlmTask::Filter {
                        instruction: "mentions word",
                        subject: Subject::doc(&d),
                    },
                );
                latency += resp.latency_s;
            }
            (llm.meter().snapshot().usage(ModelId::Mini).calls, latency)
        };
        let (calls_clean, lat_clean) = run(0.0);
        let (calls_faulty, lat_faulty) = run(0.25);
        assert_eq!(calls_clean, 200);
        // Roughly a quarter of calls billed twice.
        assert!(
            (230..=275).contains(&(calls_faulty as i64)),
            "faulty calls {calls_faulty}"
        );
        assert!(lat_faulty > lat_clean + 30.0, "{lat_faulty} vs {lat_clean}");
        // Determinism: the same config replays exactly.
        assert_eq!(run(0.25), run(0.25));
    }

    #[test]
    fn recorder_sees_every_billed_attempt() {
        use aida_obs::{Recorder, SpanKind};
        let recorder = Recorder::new();
        let llm = SimLlm::new(4)
            .with_fault_rate(0.25)
            .with_recorder(recorder.clone());
        let span = recorder.span(SpanKind::Other, "batch", 0.0);
        for i in 0..100 {
            let name = format!("d{i}");
            let d = Document::new(name, "word ".repeat(200));
            llm.invoke(
                ModelId::Mini,
                &LlmTask::Filter {
                    instruction: "mentions word",
                    subject: Subject::doc(&d),
                },
            );
        }
        span.finish(1.0);
        let trace = recorder.trace();
        let snap = llm.meter().snapshot();
        // The span's self aggregates equal the meter: successes + retries.
        assert_eq!(trace.spans[0].calls, snap.usage(ModelId::Mini).calls);
        assert_eq!(
            trace.spans[0].input_tokens + trace.spans[0].output_tokens,
            snap.total_tokens()
        );
        assert!((trace.spans[0].cost_usd - snap.cost(llm.catalog())).abs() < 1e-9);
        assert_eq!(trace.counters["llm.calls"], 100);
        let retries = trace.counters["llm.fault_retries"];
        assert!(retries > 0, "expected some injected faults");
        assert_eq!(trace.counters["llm.calls.sim-4o-mini"], 100);
        assert_eq!(
            trace.spans[0]
                .events
                .iter()
                .filter(|e| e.name() == "fault_retry")
                .count() as u64,
            retries
        );
    }

    #[test]
    fn freeform_bills_both_sides_and_echoes() {
        let llm = sim();
        let before = llm.meter().snapshot();
        let task = LlmTask::Freeform {
            prompt: "plan the next step",
            response: "files = list_files()",
            plan_hash: (1, 1),
        };
        let resp = llm.invoke(ModelId::Flagship, &task);
        assert_eq!(resp.text, "files = list_files()");
        let delta = llm.meter().snapshot().since(&before);
        assert_eq!(delta.usage(ModelId::Flagship).calls, 1);
        assert!(delta.usage(ModelId::Flagship).output_tokens >= 4);
    }

    #[test]
    fn meter_accumulates_across_invocations() {
        let llm = sim();
        let doc = Document::new("a.txt", "text body");
        for _ in 0..3 {
            llm.invoke(
                ModelId::Mini,
                &LlmTask::Filter {
                    instruction: "text",
                    subject: Subject::doc(&doc),
                },
            );
        }
        assert_eq!(llm.meter().snapshot().usage(ModelId::Mini).calls, 3);
    }

    #[test]
    fn cached_repeat_is_free_and_identical() {
        use crate::cache::SemanticCache;
        let llm = SimLlm::new(42).with_cache(SemanticCache::with_capacity(0));
        let doc = Document::new("a.txt", "identity theft reports 2024");
        let task = LlmTask::Filter {
            instruction: "mentions identity theft",
            subject: Subject::doc(&doc),
        };
        let cold = llm.invoke(ModelId::Nano, &task);
        let before = llm.meter().snapshot();
        let warm = llm.invoke(ModelId::Nano, &task);
        let delta = llm.meter().snapshot().since(&before);
        assert_eq!(delta.total_calls(), 0, "a hit bills nothing");
        assert_eq!(warm.value, cold.value);
        assert_eq!(warm.text, cold.text);
        assert!(warm.latency_s < cold.latency_s);
        let stats = llm.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // An uncached simulator answers identically (cache transparency).
        let plain = SimLlm::new(42).invoke(ModelId::Nano, &task);
        assert_eq!(plain.value, warm.value);
    }

    #[test]
    fn content_key_separates_models_seeds_and_tasks() {
        use crate::cache::SemanticCache;
        let llm = SimLlm::new(1).with_cache(SemanticCache::with_capacity(0));
        let doc = Document::new("a.txt", "body text");
        let filter = LlmTask::Filter {
            instruction: "text",
            subject: Subject::doc(&doc),
        };
        let map = LlmTask::Map {
            instruction: "text",
            subject: Subject::doc(&doc),
            target_tokens: 20,
        };
        let k1 = llm.content_key(ModelId::Nano, &filter);
        assert_ne!(k1, llm.content_key(ModelId::Mini, &filter), "model");
        assert_ne!(k1, llm.content_key(ModelId::Nano, &map), "task kind");
        assert_ne!(
            k1,
            SimLlm::new(2).content_key(ModelId::Nano, &filter),
            "seed"
        );
        let relabeled = Document::new("a.txt", "body text").with_label("gt_relevant", true);
        let relabeled_task = LlmTask::Filter {
            instruction: "text",
            subject: Subject::doc(&relabeled),
        };
        assert_ne!(
            k1,
            llm.content_key(ModelId::Nano, &relabeled_task),
            "labels"
        );
        assert_eq!(k1, llm.content_key(ModelId::Nano, &filter), "stable");
    }

    #[test]
    fn plan_hash_keys_freeform_calls_by_plan_identity() {
        use crate::cache::SemanticCache;
        let llm = SimLlm::new(7).with_cache(SemanticCache::with_capacity(0));
        let call = |response: &str, plan_hash: (u64, u64)| {
            llm.invoke(
                ModelId::Nano,
                &LlmTask::Freeform {
                    prompt: "task",
                    response,
                    plan_hash,
                },
            )
        };
        call("x = 1", (1, 1));
        call("x  =  1", (1, 1)); // same plan identity → plan-keyed hit
        call("x = 2", (1, 2)); // different plan → miss
        let stats = llm.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.plan_hits, 1);
        let key = |plan_hash: (u64, u64)| {
            llm.content_key(
                ModelId::Nano,
                &LlmTask::Freeform {
                    prompt: "task",
                    response: "x = 1",
                    plan_hash,
                },
            )
        };
        assert_ne!(key((1, 1)), key((1, 2)));
        assert_ne!(key((1, 1)), key((2, 1)));
    }

    #[test]
    fn cache_counters_flow_to_recorder() {
        use crate::cache::SemanticCache;
        use aida_obs::{Recorder, SpanKind};
        let recorder = Recorder::new();
        let llm = SimLlm::new(3)
            .with_cache(SemanticCache::with_capacity(0))
            .with_recorder(recorder.clone());
        let span = recorder.span(SpanKind::Other, "batch", 0.0);
        let doc = Document::new("a.txt", "text body");
        let task = LlmTask::Filter {
            instruction: "text",
            subject: Subject::doc(&doc),
        };
        llm.invoke(ModelId::Mini, &task);
        llm.invoke(ModelId::Mini, &task);
        llm.invoke(ModelId::Mini, &task);
        span.finish(1.0);
        let trace = recorder.trace();
        assert_eq!(trace.counters["cache.miss"], 1);
        assert_eq!(trace.counters["cache.hit"], 2);
        assert_eq!(trace.counters["llm.calls"], 1, "hits are not billed");
        assert!(trace.gauges["cache.bytes"].last() > 0.0);
    }

    #[test]
    fn seeds_change_noise_pattern() {
        let (a, b) = (SimLlm::new(1), SimLlm::new(2));
        let mut observed_difference = false;
        for i in 0..50 {
            let name = format!("d{i}");
            let doc = Document::new(name, "identity theft").with_label("difficulty", 1.0);
            let task = LlmTask::Filter {
                instruction: "mentions identity theft",
                subject: Subject::doc(&doc),
            };
            let r1 = a.invoke(ModelId::Nano, &task);
            let r2 = b.invoke(ModelId::Nano, &task);
            if r1.corrupted != r2.corrupted {
                observed_difference = true;
                break;
            }
        }
        assert!(observed_difference);
    }

    mod properties {
        use super::*;
        use aida_data::Record;
        use proptest::prelude::*;

        // Documents of every kind, with markup, entities, Unicode and odd
        // whitespace in their content.
        fn document() -> impl Strategy<Value = Document> {
            let content = prop::collection::vec(
                prop_oneof![
                    Just("<p>".to_string()),
                    Just("</p><script>x &lt; 1</script>".to_string()),
                    Just("&amp; ".to_string()),
                    Just("\n\n".to_string()),
                    Just("é日本“ ".to_string()),
                    "[a-zA-Z0-9 .,:_-]{0,12}",
                    ".{0,8}",
                ],
                0..12,
            )
            .prop_map(|parts| parts.concat());
            let name = prop_oneof![Just("d.html"), Just("d.eml"), Just("d.csv"), Just("d")];
            (name, content).prop_map(|(name, content)| {
                Document::new(name, content).with_label("difficulty", 0.4)
            })
        }

        fn tasks_over<'a>(instruction: &'a str, subject: Subject<'a>) -> [LlmTask<'a>; 3] {
            [
                LlmTask::Filter {
                    instruction,
                    subject: subject.clone(),
                },
                LlmTask::Extract {
                    instruction,
                    field: "value",
                    field_desc: "the value",
                    subject: subject.clone(),
                },
                LlmTask::Map {
                    instruction,
                    subject,
                    target_tokens: 20,
                },
            ]
        }

        proptest! {
            #[test]
            fn document_memo_changes_no_key_and_no_bill(doc in document(), seed in 0u64..8) {
                prop_assert_eq!(doc.text_tokens(tokens::count), tokens::count(&doc.text()));
                prop_assert_eq!(doc.text_hash(noise::hash_str), noise::hash_str(&doc.text()));

                // The same subject twice: once reading the document's own
                // text (memoized count and hash), once reading a copy of it
                // carried by a record (counted and hashed per call).
                let copy = Record::new(doc.name.clone()).with("contents", doc.text());
                let shared = Record::new(doc.name.clone())
                    .with("contents", Arc::clone(doc.shared_text()));
                let llm = SimLlm::new(seed);
                for instruction in ["mentions identity theft", "summarize the item"] {
                    let tasks = |subject| tasks_over(instruction, subject);
                    let plain = tasks(Subject::record(&copy, Some(&doc)));
                    for memoized in [Subject::doc(&doc), Subject::record(&shared, Some(&doc))] {
                        for (with, without) in tasks(memoized).iter().zip(&plain) {
                            prop_assert_eq!(
                                llm.content_key(ModelId::Mini, with),
                                llm.content_key(ModelId::Mini, without)
                            );
                            prop_assert_eq!(
                                llm.invoke(ModelId::Mini, with),
                                llm.invoke(ModelId::Mini, without)
                            );
                        }
                    }
                }
            }
        }
    }
}
