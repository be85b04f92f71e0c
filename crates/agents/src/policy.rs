//! Deterministic planning policies (the simulated "LLM planner").
//!
//! A policy maps the task and the observation history to the next code
//! block. [`DeepResearchPolicy`] reproduces how open Deep Research
//! CodeAgents behave on the paper's two task families:
//!
//! * **Numeric/ratio questions** — list files, pick the most
//!   promising-looking ones by filename (with seeded jitter: sometimes the
//!   agent latches onto a plausible-but-wrong report page), parse what it
//!   read, answer.
//! * **Corpus filtering questions** — scan files with a keyword heuristic
//!   (the shortcut bias), manually read and judge a few hits, return the
//!   rest unverified.
//!
//! When the registry offers semantic-operator tools (CodeAgent+), the
//! filtering flow switches to the paper's observed *inefficient* tool use:
//! two semantic filters launched over the full corpus without checking the
//! first filter's output, then per-field extractions.

use crate::tool::{RunReceipts, ToolRegistry};
use crate::Persona;
use aida_data::DataLake;
use aida_llm::noise::{self, KeyedRng};
use aida_llm::oracle::Subject;
use aida_llm::{LlmTask, ModelId};
use aida_semops::ExecEnv;

/// What the policy wants to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyAction {
    /// Run this code.
    Code(String),
    /// Stop without further steps.
    Done,
}

/// Everything a policy can see when planning a step.
pub struct PolicyContext<'a> {
    /// The task text.
    pub task: &'a str,
    /// Current step index.
    pub step: usize,
    /// Observations from previous steps.
    pub observations: &'a [String],
    /// Behavioural parameters.
    pub persona: &'a Persona,
    /// Run seed (stable across the run's steps).
    pub seed: u64,
    /// The tools available.
    pub tools: &'a ToolRegistry,
    /// Execution environment (for manual-judgement calls).
    pub(crate) env: &'a ExecEnv,
    /// The lake (label resolution for manual judgements).
    pub(crate) lake: Option<&'a DataLake>,
    /// The agent's model (manual judgements bill to it).
    pub model: ModelId,
    /// The run's receipts (manual judgements add theirs).
    pub(crate) receipts: &'a RunReceipts,
}

impl<'a> PolicyContext<'a> {
    /// A deterministic RNG stable across the run (not per-step), so a
    /// decision made at step 1 can be re-derived at step 3.
    fn run_rng(&self, salt: u64) -> KeyedRng {
        KeyedRng::new(noise::combine(&[self.seed, salt]))
    }

    /// True when a tool is available.
    pub fn has_tool(&self, name: &str) -> bool {
        self.tools.get(name).is_some()
    }

    /// The agent manually reads a document and judges a predicate — one
    /// billed LLM call at the agent's own model.
    fn judge(&self, instruction: &str, doc_name: &str) -> bool {
        let Some(doc) = self.lake.and_then(|l| l.get(doc_name)) else {
            return false;
        };
        let resp = self.env.llm.invoke(
            self.model,
            &LlmTask::Filter {
                instruction,
                subject: Subject::doc(doc),
            },
        );
        self.env.clock.advance(resp.latency_s);
        self.receipts.borrow_mut().add(&resp.receipt);
        resp.value.truthy()
    }
}

/// A planning policy.
pub trait AgentPolicy: Send + Sync {
    /// Produces the next action.
    fn next_step(&self, ctx: &PolicyContext<'_>) -> PolicyAction;
}

/// The open Deep Research planner.
pub struct DeepResearchPolicy;

impl AgentPolicy for DeepResearchPolicy {
    fn next_step(&self, ctx: &PolicyContext<'_>) -> PolicyAction {
        let task = ctx.task.to_ascii_lowercase();
        if task.contains("ratio") || (task_years(ctx.task).len() >= 2) {
            ratio_flow(ctx)
        } else if task.contains("filter") || task.contains("emails") {
            if ctx.has_tool("sem_filter_tool") {
                semantic_tools_flow(ctx)
            } else {
                keyword_filter_flow(ctx)
            }
        } else {
            generic_flow(ctx)
        }
    }
}

// --------------------------------------------------------------------
// Ratio / numeric-question flow
// --------------------------------------------------------------------

fn ratio_flow(ctx: &PolicyContext<'_>) -> PolicyAction {
    if ctx.step == 0 {
        return PolicyAction::Code("files = list_files()\nprint(files)".to_string());
    }
    let files = parse_quoted_list(ctx.observations.first().map(String::as_str).unwrap_or(""));
    if files.is_empty() {
        return PolicyAction::Done;
    }
    let years = {
        let mut ys = task_years(ctx.task);
        ys.sort_unstable();
        if ys.len() >= 2 {
            (ys[ys.len() - 1], ys[0])
        } else {
            (2024, 2001)
        }
    };

    if ctx.step == 1 {
        // Pick the most promising-looking files by filename, with seeded
        // jitter standing in for the planner's fallibility: sometimes a
        // plausible report page outranks the actual answer file.
        let picks = pick_files(ctx, &files);
        let mut code = String::new();
        for name in &picks {
            code.push_str(&format!(
                "print('FILE: {name}')\nprint(read_file('{name}')[:1200])\n"
            ));
        }
        return PolicyAction::Code(code);
    }

    // Step >= 2: analyze what was read.
    let all_obs = ctx.observations.join("\n");
    if let Some(csv_file) = find_csv_with_both_years(&all_obs, years) {
        return PolicyAction::Code(csv_ratio_code(&csv_file, years));
    }
    if all_obs.contains("per 100,000") {
        // The rate trap: compute the ratio from per-100k rates on the
        // annual report pages for the two years.
        let hi = find_file_for_year(&files, years.0, &all_obs);
        let lo = find_file_for_year(&files, years.1, &all_obs);
        if let (Some(hi), Some(lo)) = (hi, lo) {
            let read_more = [&hi, &lo]
                .iter()
                .filter(|n| !all_obs.contains(&format!("FILE: {}", n.as_str())))
                .map(|n| format!("print('FILE: {n}')\nprint(read_file('{n}')[:1200])\n"))
                .collect::<String>();
            if !read_more.is_empty() && ctx.step == 2 {
                return PolicyAction::Code(read_more);
            }
            return PolicyAction::Code(rate_ratio_code(&hi, &lo));
        }
    }
    // Shortcut-taking (the paper's core CodeAgent failure): rather than
    // keep searching, a shortcut-biased agent computes *something* from the
    // tabular files it already read — a spurious ratio from files that
    // cannot answer the question.
    let picks = pick_files(ctx, &files);
    let mut shortcut_rng = ctx.run_rng(0x5c_0f7);
    if ctx.step == 2
        && picks.len() >= 2
        && shortcut_rng.chance(ctx.persona.shortcut_bias)
        && all_obs.contains(',')
    {
        return PolicyAction::Code(spurious_ratio_code(&picks[0], &picks[1]));
    }
    // Otherwise fall back to keyword search once, then give up.
    if ctx.step <= 3 {
        let terms = task_terms(ctx.task).join(" ");
        return PolicyAction::Code(format!(
            "more = search_keywords('{terms}', 3)\nfor f in more:\n    print('FILE: ' + f)\n    print(read_file(f)[:1200])"
        ));
    }
    PolicyAction::Done
}

/// Code a hurried agent writes to get *a* number out of two tabular files:
/// the ratio of their numeric-column totals. Plausible-looking, wrong.
fn spurious_ratio_code(file_a: &str, file_b: &str) -> String {
    format!(
        r#"def total(name):
    t = 0
    for line in read_file(name).splitlines():
        parts = line.split(',')
        if len(parts) >= 2:
            n = parts[1].strip()
            if n.isdigit():
                t += int(n)
    return t
a = total('{file_a}')
b = total('{file_b}')
if b != 0:
    final_answer(float(a) / float(b))
"#
    )
}

fn pick_files(ctx: &PolicyContext<'_>, files: &[String]) -> Vec<String> {
    let terms = task_terms(ctx.task);
    let years: Vec<String> = task_years(ctx.task).iter().map(|y| y.to_string()).collect();
    let mut rng = ctx.run_rng(0x9a11e7);
    let mut scored: Vec<(f64, &String)> = files
        .iter()
        .map(|name| {
            let tokens = name_tokens(name);
            let mut score = 0.0;
            for t in &terms {
                if tokens
                    .iter()
                    .any(|tok| tok.starts_with(t.as_str()) || t.starts_with(tok))
                {
                    score += 1.0;
                }
            }
            for y in &years {
                if tokens.iter().any(|tok| tok == y) {
                    score += 1.0;
                }
            }
            // Planner fallibility: jitter proportional to shortcut bias.
            score += rng.range_f64(0.0, 2.5 + 7.0 * ctx.persona.shortcut_bias);
            (score, name)
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().take(2).map(|(_, n)| n.clone()).collect()
}

fn find_csv_with_both_years(obs: &str, years: (i64, i64)) -> Option<String> {
    // Look for a FILE: marker whose following excerpt contains a CSV header
    // and data rows starting with both years.
    let mut current: Option<&str> = None;
    let mut header_ok = false;
    let (mut hi_ok, mut lo_ok) = (false, false);
    let mut best: Option<String> = None;
    for line in obs.lines() {
        if let Some(name) = line.strip_prefix("FILE: ") {
            if header_ok && hi_ok && lo_ok {
                break;
            }
            current = Some(name.trim());
            header_ok = false;
            hi_ok = false;
            lo_ok = false;
            continue;
        }
        if line.contains(',') {
            if line.to_ascii_lowercase().contains("theft") && !line.starts_with(char::is_numeric) {
                header_ok = true;
            }
            if line.starts_with(&years.0.to_string()) {
                hi_ok = true;
            }
            if line.starts_with(&years.1.to_string()) {
                lo_ok = true;
            }
        }
        if header_ok && hi_ok && lo_ok {
            if let Some(name) = current {
                best = Some(name.to_string());
            }
        }
    }
    best
}

fn find_file_for_year(files: &[String], year: i64, _obs: &str) -> Option<String> {
    let y = year.to_string();
    files
        .iter()
        .find(|f| f.contains(&y) && (f.contains("annual") || f.contains("report")))
        .or_else(|| files.iter().find(|f| f.contains(&y)))
        .cloned()
}

fn csv_ratio_code(file: &str, years: (i64, i64)) -> String {
    format!(
        r#"c = read_file('{file}')
lines = c.splitlines()
header = lines[0].split(',')
col = 1
i = 0
for h in header:
    if 'theft' in h:
        col = i
    i += 1
a = 0.0
b = 0.0
for line in lines[1:]:
    parts = line.split(',')
    if len(parts) > col:
        if parts[0] == '{}':
            a = float(parts[col])
        if parts[0] == '{}':
            b = float(parts[col])
if b != 0:
    final_answer(a / b)
"#,
        years.0, years.1
    )
}

fn rate_ratio_code(hi_file: &str, lo_file: &str) -> String {
    format!(
        r#"def rate(name):
    t = read_file(name)
    i = t.find('rate of ')
    if i < 0:
        return 0.0
    sub = t[i + 8:]
    return float(sub.split(' ')[0])
a = rate('{hi_file}')
b = rate('{lo_file}')
if b != 0:
    final_answer(a / b)
"#
    )
}

// --------------------------------------------------------------------
// Keyword-heuristic filtering flow (CodeAgent)
// --------------------------------------------------------------------

fn keyword_filter_flow(ctx: &PolicyContext<'_>) -> PolicyAction {
    if ctx.step == 0 {
        return PolicyAction::Code("files = list_files()\nprint(len(files))".to_string());
    }
    let keywords = capitalized_terms(ctx.task);
    if ctx.step == 1 {
        // The shortcut: a keyword scan instead of reading for meaning.
        let mut rng = ctx.run_rng(0x5ca9);
        let scan_range = if rng.chance(ctx.persona.premature_stop) {
            // Premature termination: gives up partway through the corpus.
            "files[:len(files) - len(files) // 3]"
        } else {
            "files"
        };
        let cond = keywords
            .iter()
            .map(|k| format!("'{k}' in c"))
            .collect::<Vec<_>>()
            .join(" or ");
        let cond = if cond.is_empty() {
            "False".to_string()
        } else {
            cond
        };
        return PolicyAction::Code(format!(
            "hits = []\nfor f in {scan_range}:\n    c = read_file(f)\n    if {cond}:\n        hits.append(f)\nprint(hits)"
        ));
    }
    if ctx.step == 2 {
        // Manual verification of a few hits; the rest ship unverified.
        let hits = parse_quoted_list(ctx.observations.last().map(String::as_str).unwrap_or(""));
        if hits.is_empty() {
            return PolicyAction::Code("final_answer([])".to_string());
        }
        let mut rng = ctx.run_rng(0x7e71f);
        let mut order: Vec<usize> = (0..hits.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        let verify_n = ctx.persona.verify_budget.min(hits.len());
        let mut kept: Vec<String> = Vec::new();
        for (rank, &idx) in order.iter().enumerate() {
            let name = &hits[idx];
            if rank < verify_n {
                if ctx.judge(ctx.task, name) {
                    kept.push(name.clone());
                }
            } else {
                kept.push(name.clone());
            }
        }
        kept.sort();
        let rendered = kept
            .iter()
            .map(|n| format!("'{n}'"))
            .collect::<Vec<_>>()
            .join(", ");
        return PolicyAction::Code(format!("final_answer([{rendered}])"));
    }
    PolicyAction::Done
}

// --------------------------------------------------------------------
// Semantic-tools flow (CodeAgent+)
// --------------------------------------------------------------------

fn semantic_tools_flow(ctx: &PolicyContext<'_>) -> PolicyAction {
    match ctx.step {
        0 => PolicyAction::Code("files = list_files()\nprint(len(files))".to_string()),
        1 => {
            // The paper's observed inefficiency: both filters launched
            // over the full corpus, without checking the first's output.
            let mention = "the email mentions one or more of the Raptor, Chewco, LJM, Talon, \
                           or Condor business transactions";
            let firsthand = "the email contains firsthand discussion of one or more of the \
                             Raptor, Chewco, LJM, Talon, or Condor business transactions";
            PolicyAction::Code(format!(
                "m1 = sem_filter_tool('{mention}', files)\n\
                 m2 = sem_filter_tool('{firsthand}', files)\n\
                 both = [f for f in m1 if f in m2]\n\
                 print(both)"
            ))
        }
        2 => PolicyAction::Code(
            "senders = sem_extract_tool('extract the sender email address', 'sender', both)\n\
             subjects = sem_extract_tool('extract the subject line', 'subject', both)\n\
             summaries = sem_extract_tool('write a one-sentence summary of the email', 'summary', both)\n\
             final_answer(both)"
                .to_string(),
        ),
        _ => PolicyAction::Done,
    }
}

// --------------------------------------------------------------------
// Generic exploration flow
// --------------------------------------------------------------------

fn generic_flow(ctx: &PolicyContext<'_>) -> PolicyAction {
    match ctx.step {
        0 => {
            let terms = task_terms(ctx.task).join(" ");
            PolicyAction::Code(format!(
                "hits = search_keywords('{terms}', 3)\nprint(hits)\nfor f in hits:\n    print('FILE: ' + f)\n    print(read_file(f)[:800])"
            ))
        }
        1 => {
            // Answer with the most relevant line observed.
            let obs = ctx.observations.join("\n");
            let terms = task_terms(ctx.task);
            let best = obs
                .lines()
                .filter(|l| !l.starts_with("FILE:"))
                .max_by_key(|l| {
                    let lower = l.to_ascii_lowercase();
                    terms.iter().filter(|t| lower.contains(t.as_str())).count()
                })
                .unwrap_or("")
                .replace('\'', " ");
            let best: String = best.chars().take(200).collect();
            PolicyAction::Code(format!("final_answer('{best}')"))
        }
        _ => PolicyAction::Done,
    }
}

// --------------------------------------------------------------------
// Shared parsing helpers
// --------------------------------------------------------------------

/// Extracts the items of the last `['a', 'b', …]`-style printed list.
/// Long observations may be truncated from the front, losing the opening
/// bracket; in that case every quoted token before the closing bracket is
/// taken (the tail of the printed list).
fn parse_quoted_list(text: &str) -> Vec<String> {
    let end = match text.rfind(']') {
        Some(i) => i,
        None => return Vec::new(),
    };
    let start = text[..end].rfind('[').map(|i| i + 1).unwrap_or(0);
    let body = &text[start..end];
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_quote = false;
    for c in body.chars() {
        if c == '\'' {
            if in_quote {
                items.push(std::mem::take(&mut current));
            }
            in_quote = !in_quote;
        } else if in_quote {
            current.push(c);
        }
    }
    items
}

/// Lowercased content words of the task (minus stopwords).
fn task_terms(task: &str) -> Vec<String> {
    task.split(|c: char| !c.is_alphanumeric())
        .filter(|w| w.len() > 2)
        .map(|w| w.to_ascii_lowercase())
        .filter(|w| !aida_llm::sim::STOPWORDS.contains(&w.as_str()))
        .take(8)
        .collect()
}

/// Years (1900–2100) mentioned in the task.
pub fn task_years(task: &str) -> Vec<i64> {
    task.split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse::<i64>().ok())
        .filter(|y| (1900..=2100).contains(y))
        .collect()
}

/// Capitalized proper-noun-ish terms of the task (skipping the first word
/// and short/common tokens) — the keywords a regex-happy agent greps for.
pub fn capitalized_terms(task: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, word) in task.split(|c: char| !c.is_alphanumeric()).enumerate() {
        if i == 0 || word.len() < 3 {
            // Allow short all-caps acronyms like LJM.
            if !(word.len() >= 2 && word.chars().all(|c| c.is_ascii_uppercase())) || i == 0 {
                continue;
            }
        }
        let first_upper = word.chars().next().is_some_and(|c| c.is_ascii_uppercase());
        if first_upper && !out.contains(&word.to_string()) {
            out.push(word.to_string());
        }
    }
    out
}

fn name_tokens(name: &str) -> Vec<String> {
    name.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_list_parsing() {
        assert_eq!(
            parse_quoted_list("noise ['a.csv', 'b.txt'] trailing"),
            vec!["a.csv", "b.txt"]
        );
        assert_eq!(parse_quoted_list("[]"), Vec::<String>::new());
        assert_eq!(parse_quoted_list("no list"), Vec::<String>::new());
        // Last list wins.
        assert_eq!(parse_quoted_list("['x'] then ['y']"), vec!["y"]);
    }

    #[test]
    fn task_parsing_helpers() {
        let task = "What is the ratio between identity theft reports in 2024 and 2001?";
        assert_eq!(task_years(task), vec![2024, 2001]);
        let terms = task_terms(task);
        assert!(terms.contains(&"identity".to_string()));
        assert!(terms.contains(&"theft".to_string()));
    }

    #[test]
    fn capitalized_terms_extracts_transaction_names() {
        let task = "Filter the emails for firsthand discussion of the Raptor, Chewco, LJM, \
                    Talon, or Condor transactions";
        let terms = capitalized_terms(task);
        assert!(terms.contains(&"Raptor".to_string()));
        assert!(terms.contains(&"LJM".to_string()));
        assert!(terms.contains(&"Condor".to_string()));
        assert!(!terms.contains(&"Filter".to_string()), "first word skipped");
    }

    #[test]
    fn csv_detection_requires_both_years() {
        let obs = "FILE: national.csv\nyear,identity_theft_reports\n2001,86250\n2024,1135291\n";
        assert_eq!(
            find_csv_with_both_years(obs, (2024, 2001)),
            Some("national.csv".to_string())
        );
        let partial = "FILE: page.csv\nyear,identity_theft_reports\n2024,1135291\n";
        assert_eq!(find_csv_with_both_years(partial, (2024, 2001)), None);
    }

    #[test]
    fn generated_csv_code_parses() {
        let code = csv_ratio_code("national.csv", (2024, 2001));
        assert!(
            aida_script::parser::parse(&code).is_ok(),
            "code must be valid Pyrite"
        );
        let code = rate_ratio_code("a.html", "b.html");
        assert!(aida_script::parser::parse(&code).is_ok());
    }
}
