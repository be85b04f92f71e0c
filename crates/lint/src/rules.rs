//! The rule families.
//!
//! All rules operate on the token stream from [`crate::lexer`] — no type
//! information, no macro expansion. Each rule is therefore a heuristic
//! that over-approximates; false positives are expected to be rare and
//! are silenced through the `[[allow]]` baseline in `lint.toml` with a
//! written justification (see `docs/lint.md`).
//!
//! | rule | invariant guarded                                          |
//! |------|------------------------------------------------------------|
//! | D1   | virtual clock only: no wall-clock reads outside clock.rs   |
//! | D2   | seeded randomness only: no entropy-seeded RNG              |
//! | D3   | serializer modules never iterate unordered maps unsorted   |
//! | F1   | durability paths pair create/rename with fsync + dir fsync |
//! | P1   | recovery paths return typed errors, never panic            |
//! | L1   | the static lock-acquisition graph is acyclic               |
//! | O1   | metric names come from the registry, never string literals |
//! | O2   | span names and attributes are built only for a kept span    |
//! | S1   | functions stay within the size/complexity budget           |
//! | U1   | every `pub` item has a production consumer outside its file |

use crate::lexer::{lex, Tok, TokKind};
use crate::Config;
use std::collections::HashMap;

/// How bad a finding is. `Error` outranks `Warning` in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Heuristic or advisory: worth a look, may be a false positive.
    Warning,
    /// Violates an invariant the replay/durability guarantees rest on.
    Error,
}

impl Severity {
    /// Lower-case name used in reports and JSONL.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family id (`"D1"`, …, `"L1"`).
    pub rule: &'static str,
    /// Severity rank.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human explanation of what fired and why it matters.
    pub message: String,
    /// The trimmed source line, for context and baseline matching.
    pub snippet: String,
}

impl Finding {
    /// Sort key: severity first (errors lead), then location, so the
    /// report is severity-ranked and byte-stable across runs.
    pub fn sort_key(&self) -> (u8, String, usize, &'static str, String) {
        let sev = match self.severity {
            Severity::Error => 0,
            Severity::Warning => 1,
        };
        (
            sev,
            self.file.clone(),
            self.line,
            self.rule,
            self.message.clone(),
        )
    }
}

/// A parsed file ready for rule passes.
pub struct FileView<'a> {
    /// Workspace-relative forward-slash path.
    pub rel: &'a str,
    /// Raw source.
    pub src: &'a str,
    /// Code tokens only (comments stripped).
    toks: Vec<Tok>,
    /// `in_test[i]` ⇔ `toks[i]` sits under `#[cfg(test)]` / `#[test]`.
    in_test: Vec<bool>,
    /// Half-open token ranges of non-test `fn` bodies, with names.
    fns: Vec<FnSpan>,
}

struct FnSpan {
    name: String,
    line: usize,
    /// Token index range covering the whole item (from `fn` to `}`).
    range: (usize, usize),
}

impl<'a> FileView<'a> {
    /// Lexes and segments `src`.
    pub fn new(rel: &'a str, src: &'a str) -> FileView<'a> {
        let toks: Vec<Tok> = lex(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        let in_test = mark_test_regions(src, &toks);
        let fns = segment_fns(src, &toks, &in_test);
        FileView {
            rel,
            src,
            toks,
            in_test,
            fns,
        }
    }

    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == name)
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(self.src) == p)
    }

    /// The trimmed source line containing token `i`.
    fn snippet(&self, i: usize) -> String {
        line_snippet(self.src, self.toks[i].line)
    }

    fn finding(
        &self,
        rule: &'static str,
        severity: Severity,
        i: usize,
        message: String,
    ) -> Finding {
        Finding {
            rule,
            severity,
            file: self.rel.to_string(),
            line: self.toks[i].line,
            message,
            snippet: self.snippet(i),
        }
    }
}

/// The trimmed content of 1-based `line` in `src`.
fn line_snippet(src: &str, line: usize) -> String {
    src.lines()
        .nth(line.saturating_sub(1))
        .unwrap_or("")
        .trim()
        .to_string()
}

/// Marks tokens under `#[cfg(test)]` items and `#[test]` functions.
///
/// Only the exact attribute `#[cfg(test)]` counts — `#[cfg(not(test))]`
/// guards production code and must stay visible to the rules.
fn mark_test_regions(src: &str, toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct
            && toks[i].text(src) == "#"
            && toks.get(i + 1).is_some_and(|t| t.text(src) == "[")
        {
            let close = match_square(src, toks, i + 1);
            let attr = &toks[i + 2..close.min(toks.len())];
            if is_test_attr(src, attr) {
                let end = item_end(src, toks, close + 1);
                for flag in in_test.iter_mut().take(end.min(toks.len())).skip(i) {
                    *flag = true;
                }
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Whether the attribute token slice is exactly `test` or `cfg ( test )`.
fn is_test_attr(src: &str, attr: &[Tok]) -> bool {
    let texts: Vec<&str> = attr.iter().map(|t| t.text(src)).collect();
    texts == ["test"] || texts == ["cfg", "(", "test", ")"]
}

/// Index of the `]` matching the `[` at `open`, or `toks.len()`.
fn match_square(src: &str, toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// One past the end of the item starting at `start` (skipping any
/// further attributes): the matching `}` of its first top-level brace,
/// or the first top-level `;` for brace-less items like `use`. A struct
/// field or struct-literal field (`name: ..`) ends at its top-level `,`,
/// and any item ends before a delimiter that closes its enclosing scope.
fn item_end(src: &str, toks: &[Tok], mut start: usize) -> usize {
    // Skip stacked attributes between the test attr and the item.
    while start < toks.len()
        && toks[start].text(src) == "#"
        && toks.get(start + 1).is_some_and(|t| t.text(src) == "[")
    {
        start = match_square(src, toks, start + 1) + 1;
    }
    let named = start + usize::from(toks.get(start).is_some_and(|t| t.is_ident(src, "pub")));
    let field = toks.get(named).is_some_and(|t| t.kind == TokKind::Ident)
        && toks.get(named + 1).is_some_and(|t| t.text(src) == ":");
    let (mut paren, mut square, mut brace, mut angle) = (0i64, 0i64, 0i64, 0i64);
    for (j, t) in toks.iter().enumerate().skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        let top = paren == 0 && square == 0 && brace == 0;
        match t.text(src) {
            ")" | "]" | "}" if top => return j,
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => square += 1,
            "]" => square -= 1,
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace == 0 {
                    return j + 1;
                }
            }
            "<" if top => angle += 1,
            ">" if top => angle -= 1,
            ";" if top => return j + 1,
            "," if top && field && angle == 0 => return j + 1,
            _ => {}
        }
    }
    toks.len()
}

/// Extracts non-test `fn` items: name, line, and token range.
fn segment_fns(src: &str, toks: &[Tok], in_test: &[bool]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_fn = toks[i].kind == TokKind::Ident && toks[i].text(src) == "fn" && !in_test[i];
        // `fn` must introduce a named item, not an `fn(..)` pointer type.
        let named = is_fn && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident);
        if !named {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text(src).to_string();
        let line = toks[i].line;
        let end = item_end(src, toks, i);
        fns.push(FnSpan {
            name,
            line,
            range: (i, end),
        });
        // Nested fns inside this body are folded into the outer span,
        // which is what the pairing rules (F1/P1) want anyway.
        i = end;
    }
    fns
}

/// Runs all single-file rules over one file.
pub fn scan_file(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let view = FileView::new(rel, src);
    let mut out = Vec::new();
    rule_d1_wall_clock(&view, cfg, &mut out);
    rule_d2_unseeded_rng(&view, &mut out);
    if path_in(rel, &cfg.serializer_modules) {
        rule_d3_unsorted_iteration(&view, &mut out);
    }
    if path_in(rel, &cfg.durability_files) {
        rule_f1_fsync_pairing(&view, &mut out);
    }
    if path_in(rel, &cfg.recovery_files) {
        rule_p1_panic_free_recovery(&view, cfg, &mut out);
    }
    rule_o1_metric_registry(&view, cfg, &mut out);
    rule_o2_eager_trace_text(&view, &mut out);
    rule_s1_fn_budget(&view, cfg, &mut out);
    out
}

/// Whether `rel` matches any entry (exact or suffix) in `paths`.
fn path_in(rel: &str, paths: &[String]) -> bool {
    paths.iter().any(|p| rel == p || rel.ends_with(p.as_str()))
}

// ---------------------------------------------------------------- D1

/// D1: wall-clock reads (`Instant`, `SystemTime`, `std::time`) are only
/// legal inside the virtual-clock module. `std::time::Duration` is an
/// inert value type and stays allowed everywhere.
fn rule_d1_wall_clock(view: &FileView, cfg: &Config, out: &mut Vec<Finding>) {
    if path_in(view.rel, std::slice::from_ref(&cfg.clock_file)) {
        return;
    }
    for i in 0..view.toks.len() {
        if view.in_test[i] || view.toks[i].kind != TokKind::Ident {
            continue;
        }
        match view.text(i) {
            "Instant" | "SystemTime" | "UNIX_EPOCH" => {
                let what = view.text(i).to_string();
                out.push(view.finding(
                    "D1",
                    Severity::Error,
                    i,
                    format!(
                        "wall-clock type `{what}` outside {}; use the SimClock timeline",
                        cfg.clock_file
                    ),
                ));
            }
            "std"
                if view.is_punct(i + 1, "::")
                    && view.is_ident(i + 2, "time")
                    // `std::time::Duration` alone is deterministic.
                    && !(view.is_punct(i + 3, "::") && view.is_ident(i + 4, "Duration")) =>
            {
                out.push(view.finding(
                    "D1",
                    Severity::Error,
                    i,
                    format!(
                        "`std::time` outside {}; only `std::time::Duration` is exempt",
                        cfg.clock_file
                    ),
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- D2

/// D2: RNG seeded from the environment breaks seeded replay.
fn rule_d2_unseeded_rng(view: &FileView, out: &mut Vec<Finding>) {
    const ENTROPY: &[&str] = &[
        "thread_rng",
        "from_entropy",
        "OsRng",
        "ThreadRng",
        "getrandom",
        "random_seed",
    ];
    for i in 0..view.toks.len() {
        if view.in_test[i] || view.toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = view.text(i);
        let hit = ENTROPY.contains(&t)
            || (t == "rand" && view.is_punct(i + 1, "::") && view.is_ident(i + 2, "random"));
        if hit {
            out.push(view.finding(
                "D2",
                Severity::Error,
                i,
                format!("`{t}` draws entropy from the environment; seed RNGs explicitly"),
            ));
        }
    }
}

// ---------------------------------------------------------------- D3

/// D3: in modules that serialize output, iterating a `HashMap`/`HashSet`
/// without sorting leaks nondeterministic order into reports/JSONL.
///
/// Heuristic: a name is map-typed if the file declares it with a
/// `HashMap`/`HashSet` annotation or constructor; iterating such a name
/// fires unless the same statement mentions a sorting construct.
fn rule_d3_unsorted_iteration(view: &FileView, out: &mut Vec<Finding>) {
    const ITERS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "drain",
        "retain",
    ];
    const SORTED: &[&str] = &[
        "sort",
        "sort_by",
        "sort_by_key",
        "sort_unstable",
        "sort_unstable_by",
        "sort_unstable_by_key",
        "sorted",
        "BTreeMap",
        "BTreeSet",
        "BinaryHeap",
    ];
    // Pass 1: names declared with an unordered map/set type.
    let mut map_names: Vec<String> = Vec::new();
    for i in 0..view.toks.len() {
        if view.toks[i].kind != TokKind::Ident {
            continue;
        }
        // `name: HashMap<..>` (field, param, let) or `name = HashMap::..`.
        let anno = view.is_punct(i + 1, ":")
            && (view.is_ident(i + 2, "HashMap") || view.is_ident(i + 2, "HashSet"));
        let ctor = view.is_punct(i + 1, "=")
            && (view.is_ident(i + 2, "HashMap") || view.is_ident(i + 2, "HashSet"));
        if anno || ctor {
            map_names.push(view.text(i).to_string());
        }
    }
    // Pass 2: iteration over a map-typed name.
    for i in 0..view.toks.len() {
        if view.in_test[i] || view.toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = view.text(i);
        if !map_names.iter().any(|n| n == name) {
            continue;
        }
        let iterated = view.is_punct(i + 1, ".")
            && view
                .toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && ITERS.contains(&t.text(view.src)))
            && view.is_punct(i + 3, "(");
        if !iterated {
            continue;
        }
        // "unless sorted first": scan the enclosing statement for a
        // sorting construct.
        let stmt = statement_range(view, i);
        let sorted = (stmt.0..stmt.1)
            .any(|j| view.toks[j].kind == TokKind::Ident && SORTED.contains(&view.text(j)));
        if !sorted {
            let method = view.text(i + 2).to_string();
            out.push(view.finding(
                "D3",
                Severity::Error,
                i,
                format!(
                    "`{name}.{method}()` iterates an unordered map in a serializer module \
                     without sorting; order leaks into the output"
                ),
            ));
        }
    }
}

/// Token range of the statement containing token `i`: from the previous
/// top-level `;`/`{`/`}` to the next `;` (or `{`, for `for`-loop heads
/// the sort may appear in the chain before the body opens). When the
/// statement `collect`s the iterator, the window extends one more
/// statement to cover the collect-into-vec-then-`sort()` idiom.
fn statement_range(view: &FileView, i: usize) -> (usize, usize) {
    let mut start = i;
    while start > 0 {
        let t = view.text(start - 1);
        if matches!(t, ";" | "{" | "}") {
            break;
        }
        start -= 1;
    }
    let next_stop = |mut j: usize| -> usize {
        let mut paren = 0i64;
        while j < view.toks.len() {
            match view.text(j) {
                "(" => paren += 1,
                ")" => paren -= 1,
                ";" if paren <= 0 => break,
                "{" if paren <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        j
    };
    let mut end = next_stop(i);
    let collected = (start..end).any(|j| view.is_ident(j, "collect"));
    if collected && end < view.toks.len() && view.text(end) == ";" {
        end = next_stop(end + 1);
    }
    (start, end)
}

// ---------------------------------------------------------------- F1

/// F1: in durability files, any function that creates or renames a file
/// must also fsync the file (`sync_all`) and its parent directory in the
/// same function, or the write can vanish in a power cut. In-place
/// write sites (`OpenOptions` appends to a WAL tail or delta chain,
/// durable truncations) need `sync_all` too, though not the directory
/// fsync — the name itself is not changing.
fn rule_f1_fsync_pairing(view: &FileView, out: &mut Vec<Finding>) {
    const DIR_SYNC: &[&str] = &["sync_parent_dir", "sync_dir", "fsync_parent", "fsync_dir"];
    for f in &view.fns {
        let (lo, hi) = f.range;
        let mut writes: Vec<usize> = Vec::new();
        let mut in_place: Vec<usize> = Vec::new();
        let mut has_sync_all = false;
        let mut has_dir_sync = false;
        for j in lo..hi.min(view.toks.len()) {
            if view.in_test[j] || view.toks[j].kind != TokKind::Ident {
                continue;
            }
            match view.text(j) {
                "File"
                    if view.is_punct(j + 1, "::")
                        && view.is_ident(j + 2, "create")
                        && view.is_punct(j + 3, "(") =>
                {
                    writes.push(j);
                }
                "fs" if view.is_punct(j + 1, "::") && view.is_ident(j + 2, "rename") => {
                    writes.push(j);
                }
                "OpenOptions" => in_place.push(j),
                "sync_all" => has_sync_all = true,
                t if DIR_SYNC.contains(&t) => has_dir_sync = true,
                _ => {}
            }
        }
        if writes.is_empty() && in_place.is_empty() {
            continue;
        }
        if !has_sync_all {
            let (first, how) = match writes.first() {
                Some(&j) => (j, "creates/renames a file"),
                None => (in_place[0], "opens a file for in-place writes"),
            };
            out.push(view.finding(
                "F1",
                Severity::Error,
                first,
                format!(
                    "fn `{}` {how} but never calls sync_all; \
                     the write is not durable across a crash",
                    f.name
                ),
            ));
        }
        if !writes.is_empty() && !has_dir_sync {
            out.push(view.finding(
                "F1",
                Severity::Error,
                writes[0],
                format!(
                    "fn `{}` creates/renames a file but never fsyncs the parent \
                     directory; the rename itself can be lost",
                    f.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- P1

/// P1: recovery functions (name matches a configured pattern) must use
/// typed errors — a panic during recovery turns a torn file into a
/// permanently unbootable runtime.
fn rule_p1_panic_free_recovery(view: &FileView, cfg: &Config, out: &mut Vec<Finding>) {
    for f in &view.fns {
        let recovery = cfg
            .recovery_fn_patterns
            .iter()
            .any(|p| f.name.contains(p.as_str()));
        if !recovery {
            continue;
        }
        let (lo, hi) = f.range;
        for j in lo..hi.min(view.toks.len()) {
            if view.in_test[j] || view.toks[j].kind != TokKind::Ident {
                continue;
            }
            let t = view.text(j);
            let call_panic = matches!(t, "unwrap" | "expect") && view.is_punct(j + 1, "(");
            let macro_panic = matches!(t, "panic" | "unreachable" | "todo" | "unimplemented")
                && view.is_punct(j + 1, "!");
            if call_panic || macro_panic {
                out.push(view.finding(
                    "P1",
                    Severity::Error,
                    j,
                    format!(
                        "`{t}` in recovery fn `{}` (line {}); recovery must return \
                         typed errors, never panic",
                        f.name, f.line
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- O1

/// O1: metric names at `counter_add` / `histogram_record` / `gauge_set`
/// call sites must be registry constants, never string literals — a
/// typo'd literal silently forks a series, and two spellings of the same
/// metric make every dashboard lie. Only the registry module itself
/// (where the constants are declared and unit-tested) may spell names
/// out. Dynamic names built with `format!` are exempt: the registry
/// cannot enumerate per-model or per-tenant suffixes.
fn rule_o1_metric_registry(view: &FileView, cfg: &Config, out: &mut Vec<Finding>) {
    const SINKS: &[&str] = &["counter_add", "histogram_record", "gauge_set"];
    if path_in(view.rel, std::slice::from_ref(&cfg.metric_registry_file)) {
        return;
    }
    for i in 0..view.toks.len() {
        if view.in_test[i] || view.toks[i].kind != TokKind::Ident {
            continue;
        }
        let sink = view.text(i);
        if !SINKS.contains(&sink) || !view.is_punct(i + 1, "(") {
            continue;
        }
        if view.toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Str) {
            let name = view.text(i + 2).to_string();
            out.push(view.finding(
                "O1",
                Severity::Error,
                i,
                format!(
                    "string-literal metric name {name} at `{sink}`; use a constant \
                     from {}",
                    cfg.metric_registry_file
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- O2

/// O2: a span's name and attribute values are formatted by the recorder,
/// and only when it keeps the span (`Recorder::span` and
/// `SpanHandle::attr` take `impl Display`). A `format!`, `clip(` or
/// `.render()` written in the argument list of `.span(` / `.attr(`
/// builds the text first, so a request with tracing off pays for it
/// anyway. Pass `format_args!`, `clipped(..)` or the `Display` value.
fn rule_o2_eager_trace_text(view: &FileView, out: &mut Vec<Finding>) {
    for i in 1..view.toks.len() {
        if view.in_test[i] || !view.is_punct(i - 1, ".") || !view.is_punct(i + 1, "(") {
            continue;
        }
        let sink = view.text(i);
        if sink != "span" && sink != "attr" {
            continue;
        }
        let mut depth = 0usize;
        for j in i + 1..view.toks.len() {
            if view.is_punct(j, "(") {
                depth += 1;
            } else if view.is_punct(j, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            let eager = if view.is_ident(j, "format") && view.is_punct(j + 1, "!") {
                Some("format!")
            } else if view.is_ident(j, "clip") && view.is_punct(j + 1, "(") {
                Some("clip(")
            } else if view.is_punct(j, ".")
                && view.is_ident(j + 1, "render")
                && view.is_punct(j + 2, "(")
            {
                Some(".render()")
            } else {
                None
            };
            if let Some(call) = eager {
                out.push(view.finding(
                    "O2",
                    Severity::Warning,
                    j,
                    format!(
                        "`{call}` in the arguments of `.{sink}(` builds trace text even \
                         when tracing is off; pass `format_args!`, `clipped(..)` or the \
                         `Display` value"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- S1

/// S1: per-function size/complexity budget. A function that outgrows the
/// budget is where replay bugs hide: too many interleaved branches to
/// reason about, too long to review as a unit. The metric is
/// deterministic and macro-free: source lines spanned by the item, and
/// branch points counted as the keywords `if`/`else`/`while`/`for`/
/// `loop`/`match` plus match arms (`=>`). Test code is exempt (the
/// harness already strips `#[cfg(test)]` regions and `tests/` trees).
fn rule_s1_fn_budget(view: &FileView, cfg: &Config, out: &mut Vec<Finding>) {
    const BRANCH_KEYWORDS: &[&str] = &["if", "else", "while", "for", "loop", "match"];
    for f in &view.fns {
        let (lo, hi) = f.range;
        if hi <= lo || hi > view.toks.len() {
            continue;
        }
        let lines = view.toks[hi - 1].line - view.toks[lo].line + 1;
        let mut branches = 0usize;
        for j in lo..hi {
            let t = &view.toks[j];
            let hit = match t.kind {
                TokKind::Ident => BRANCH_KEYWORDS.contains(&t.text(view.src)),
                TokKind::Punct => t.text(view.src) == "=>",
                _ => false,
            };
            if hit {
                branches += 1;
            }
        }
        if lines > cfg.s1_max_fn_lines {
            out.push(Finding {
                rule: "S1",
                severity: Severity::Warning,
                file: view.rel.to_string(),
                line: f.line,
                message: format!(
                    "fn `{}` spans {lines} lines (budget {}); split it into \
                     reviewable units",
                    f.name, cfg.s1_max_fn_lines
                ),
                snippet: line_snippet(view.src, f.line),
            });
        }
        if branches > cfg.s1_max_fn_branches {
            out.push(Finding {
                rule: "S1",
                severity: Severity::Warning,
                file: view.rel.to_string(),
                line: f.line,
                message: format!(
                    "fn `{}` has {branches} branch points (budget {}); extract \
                     the dispatch arms or helper predicates",
                    f.name, cfg.s1_max_fn_branches
                ),
                snippet: line_snippet(view.src, f.line),
            });
        }
    }
}

// ---------------------------------------------------------------- L1

/// One static lock acquisition: which node, where.
#[derive(Debug, Clone)]
pub struct LockAcq {
    /// Graph node: `file_stem::receiver`.
    pub node: String,
    /// Where the acquisition happens.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Enclosing function name.
    pub func: String,
}

/// Lines of `src` outside every `#[cfg(test)]` / `#[test]` item: blank
/// and comment lines count, the lines from a test item's attribute to its
/// last token do not. An inline `#[cfg(test)]` field or statement removes
/// only its own lines, not the rest of the file.
pub fn non_test_lines(src: &str) -> usize {
    let view = FileView::new("", src);
    let (mut test_lines, mut counted_to, mut i) = (0, 0, 0);
    while i < view.toks.len() {
        if view.in_test[i] {
            let first = view.toks[i].line.max(counted_to + 1);
            while view.in_test.get(i + 1) == Some(&true) {
                i += 1;
            }
            counted_to = view.toks[i].line;
            test_lines += (counted_to + 1).saturating_sub(first);
        }
        i += 1;
    }
    src.lines().count() - test_lines
}

/// Extracts per-function lock-acquisition sequences from one file.
///
/// An acquisition is `recv.lock()` / `recv.read()` / `recv.write()` with
/// an *empty* argument list — the empty parens distinguish lock guards
/// from `io::Read::read(&mut buf)` and friends.
pub fn lock_sequences(rel: &str, src: &str) -> Vec<Vec<LockAcq>> {
    let view = FileView::new(rel, src);
    let stem = rel
        .rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs");
    let mut seqs = Vec::new();
    for f in &view.fns {
        let (lo, hi) = f.range;
        let mut seq = Vec::new();
        for j in lo..hi.min(view.toks.len()) {
            if view.in_test[j] || view.toks[j].kind != TokKind::Ident {
                continue;
            }
            if j < 2 {
                continue;
            }
            let is_acq = matches!(view.text(j), "lock" | "read" | "write")
                && view.is_punct(j - 1, ".")
                && view.is_punct(j + 1, "(")
                && view.is_punct(j + 2, ")");
            if !is_acq {
                continue;
            }
            // Receiver is the identifier just before the dot.
            let Some(recv) = view
                .toks
                .get(j - 2)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text(src))
            else {
                continue;
            };
            if recv == "self" {
                continue;
            }
            seq.push(LockAcq {
                node: format!("{stem}::{recv}"),
                file: rel.to_string(),
                line: view.toks[j].line,
                func: f.name.clone(),
            });
        }
        if seq.len() > 1 {
            seqs.push(seq);
        }
    }
    seqs
}

/// L1: builds the acquisition-order graph from all sequences and reports
/// one finding per cycle-participating edge set (a deterministic DFS
/// from the lexicographically smallest node).
pub fn rule_l1_lock_cycles(seqs: &[Vec<LockAcq>]) -> Vec<Finding> {
    // Edge a→b for consecutive acquisitions a, b in one function.
    // (Transitive paths are recovered by the DFS.)
    let mut edges: Vec<(String, String, &LockAcq)> = Vec::new();
    for seq in seqs {
        for w in seq.windows(2) {
            if w[0].node != w[1].node {
                edges.push((w[0].node.clone(), w[1].node.clone(), &w[1]));
            }
        }
    }
    edges.sort_by(|a, b| (a.0.as_str(), a.1.as_str()).cmp(&(b.0.as_str(), b.1.as_str())));
    edges.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);

    // Dense node indices (sorted, so traversal order is deterministic).
    let mut names: Vec<&str> = edges
        .iter()
        .flat_map(|(a, b, _)| [a.as_str(), b.as_str()])
        .collect();
    names.sort_unstable();
    names.dedup();
    let index = |n: &str| names.binary_search(&n).unwrap_or(0);
    let mut adj: Vec<Vec<(usize, &LockAcq)>> = vec![Vec::new(); names.len()];
    for (a, b, acq) in &edges {
        adj[index(a)].push((index(b), acq));
    }

    // Tri-color DFS; each back edge closes one reported cycle.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    let mut color = vec![WHITE; names.len()];
    let mut path: Vec<usize> = Vec::new();
    let mut out = Vec::new();
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        v: usize,
        adj: &[Vec<(usize, &LockAcq)>],
        names: &[&str],
        color: &mut [u8],
        path: &mut Vec<usize>,
        out: &mut Vec<Finding>,
    ) {
        color[v] = GRAY;
        path.push(v);
        for &(w, acq) in &adj[v] {
            if color[w] == WHITE {
                dfs(w, adj, names, color, path, out);
            } else if color[w] == GRAY {
                // Back edge: the cycle is the path suffix from w, plus w.
                let start = path.iter().position(|&n| n == w).unwrap_or(0);
                let mut cycle: Vec<&str> = path[start..].iter().map(|&n| names[n]).collect();
                cycle.push(names[w]);
                out.push(Finding {
                    rule: "L1",
                    severity: Severity::Warning,
                    file: acq.file.clone(),
                    line: acq.line,
                    message: format!(
                        "lock-order cycle: {} (closing edge in fn `{}`); \
                         two threads taking these locks in opposite order can deadlock",
                        cycle.join(" -> "),
                        acq.func
                    ),
                    snippet: String::new(),
                });
            }
        }
        path.pop();
        color[v] = 2;
    }
    for v in 0..names.len() {
        if color[v] == WHITE {
            dfs(v, &adj, &names, &mut color, &mut path, &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------- U1

/// Item keywords U1 checks when they follow a bare `pub`.
const U1_ITEMS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];

/// U1: every bare-`pub` item (fn, struct, enum, trait, const, static,
/// type; inherent methods included) must be named by some production
/// file other than its own. `scanned` holds the files whose items are
/// checked, `consumers` the production files whose code counts as a use
/// (test regions and `pub use` re-exports do not). The match is by name,
/// so a common name is never flagged: the rule over-approximates use.
///
/// A type named in the interface of a used `pub` item of its own file
/// (a fn signature, a struct's generics or `pub` fields, an enum, trait,
/// alias, const or static) counts as used too: narrowing it would make
/// that interface leak a private type.
/// Keywords whose next identifier is the name of the item they define.
const DEFINITION_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

pub fn rule_u1_unused_pub(scanned: &[(&str, &str)], consumers: &[(&str, &str)]) -> Vec<Finding> {
    // name -> consumer files that mention it (each file at most once).
    let mut uses: HashMap<&str, Vec<&str>> = HashMap::new();
    for &(rel, src) in consumers {
        let view = FileView::new(rel, src);
        let mut idents: Vec<&str> = Vec::new();
        let mut i = 0usize;
        while i < view.toks.len() {
            if let Some(end) = reexport_end(&view, i) {
                i = end;
                continue;
            }
            // A definition's own name (`fn x`, `struct x`, …) is not a
            // use of another file's `x`.
            let defines = i > 0
                && DEFINITION_KEYWORDS
                    .iter()
                    .any(|kw| view.is_ident(i - 1, kw));
            if !view.in_test[i] && view.toks[i].kind == TokKind::Ident && !defines {
                idents.push(view.toks[i].text(src));
            }
            i += 1;
        }
        idents.sort_unstable();
        idents.dedup();
        for name in idents {
            uses.entry(name).or_default().push(rel);
        }
    }
    let mut out = Vec::new();
    for &(rel, src) in scanned {
        let view = FileView::new(rel, src);
        let items: Vec<PubItem> = (0..view.toks.len())
            .filter(|&i| !view.in_test[i] && view.is_ident(i, "pub"))
            .filter_map(|i| pub_item(&view, i))
            .collect();
        let mut used: Vec<bool> = items
            .iter()
            .map(|it| {
                uses.get(view.text(it.name))
                    .is_some_and(|files| files.iter().any(|f| *f != rel))
            })
            .collect();
        // Close over interfaces: a used item keeps the types it exposes.
        let mut work: Vec<usize> = (0..items.len()).filter(|&k| used[k]).collect();
        while let Some(k) = work.pop() {
            for t in interface(&view, &items[k]) {
                for (m, it) in items.iter().enumerate() {
                    if !used[m] && it.kind != "fn" && view.text(it.name) == view.text(t) {
                        used[m] = true;
                        work.push(m);
                    }
                }
            }
        }
        for (it, _) in items.iter().zip(&used).filter(|(_, u)| !**u) {
            out.push(view.finding(
                "U1",
                Severity::Warning,
                it.name,
                format!(
                    "pub {} `{}` has no production use outside this file; \
                     delete it, narrow it to pub(crate) or private, or move it \
                     into test code",
                    it.kind,
                    view.text(it.name)
                ),
            ));
        }
    }
    out
}

/// A bare-`pub` item: its kind keyword, and the token indices of its
/// `pub` and its name.
struct PubItem {
    kind: &'static str,
    at: usize,
    name: usize,
}

/// The identifier tokens of `it`'s public interface: a fn's signature,
/// a struct's generics and `pub` fields, the whole of any other item.
fn interface(view: &FileView, it: &PubItem) -> Vec<usize> {
    let end = item_end(view.src, &view.toks, it.at);
    let mut toks: Vec<usize> = Vec::new();
    match it.kind {
        "fn" => toks.extend(
            (it.name + 1..end).take_while(|&j| !view.is_punct(j, "{") && !view.is_punct(j, ";")),
        ),
        "struct" => {
            // The generics and where clause, then each `pub` field up to
            // the next `,` at its own depth.
            let body = (it.name + 1..end)
                .find(|&j| view.is_punct(j, "{") || view.is_punct(j, "("))
                .unwrap_or(end);
            toks.extend(it.name + 1..body);
            let mut j = body;
            while j < end {
                if !view.is_ident(j, "pub") {
                    j += 1;
                    continue;
                }
                let mut depth = 0i64;
                while j < end {
                    match view.text(j) {
                        "(" | "[" | "<" | "{" => depth += 1,
                        ")" | "]" | ">" | "}" if depth == 0 => break,
                        ")" | "]" | ">" | "}" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => toks.push(j),
                    }
                    j += 1;
                }
            }
        }
        _ => toks.extend(it.name + 1..end),
    }
    toks.retain(|&j| view.toks[j].kind == TokKind::Ident);
    toks
}

/// For `pub use …;` / `pub(…) use …;` starting at token `i`: one past
/// its `;`. A re-export names an item without using it.
fn reexport_end(view: &FileView, i: usize) -> Option<usize> {
    if !view.is_ident(i, "pub") {
        return None;
    }
    let mut j = i + 1;
    if view.is_punct(j, "(") {
        j = (j..view.toks.len()).find(|&k| view.is_punct(k, ")"))? + 1;
    }
    if !view.is_ident(j, "use") {
        return None;
    }
    let semi = (j..view.toks.len()).find(|&k| view.is_punct(k, ";"))?;
    Some(semi + 1)
}

/// The item a bare `pub` at token `i` declares. `pub(crate)`, `pub mod`,
/// `pub use` and fields are not items U1 checks.
fn pub_item(view: &FileView, i: usize) -> Option<PubItem> {
    let mut j = i + 1;
    // Qualifiers: `const fn`, `unsafe fn`, `async fn`, `extern "C" fn`.
    loop {
        let qualifier = view.is_ident(j, "unsafe")
            || view.is_ident(j, "async")
            || view.is_ident(j, "extern")
            || view.toks.get(j).is_some_and(|t| t.kind == TokKind::Str)
            || (view.is_ident(j, "const")
                && ["fn", "unsafe", "async", "extern"]
                    .iter()
                    .any(|k| view.is_ident(j + 1, k)));
        if !qualifier {
            break;
        }
        j += 1;
    }
    let kind = *U1_ITEMS.iter().find(|k| view.is_ident(j, k))?;
    let mut name = j + 1;
    if kind == "static" && view.is_ident(name, "mut") {
        name += 1;
    }
    (view.toks.get(name)?.kind == TokKind::Ident).then_some(PubItem { kind, at: i, name })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_for(rel: &str) -> Config {
        Config {
            serializer_modules: vec![rel.to_string()],
            durability_files: vec![rel.to_string()],
            recovery_files: vec![rel.to_string()],
            ..Config::default()
        }
    }

    #[test]
    fn u1_a_same_named_definition_elsewhere_is_not_a_use() {
        let files = [
            ("a.rs", "pub fn reset() {}\npub struct Clock;\n"),
            (
                "b.rs",
                "pub fn reset() {}\nstruct Clock;\nfn user() { helper(); }\n",
            ),
        ];
        let flagged: Vec<(String, String)> = rule_u1_unused_pub(&files, &files)
            .into_iter()
            .map(|f| (f.file, f.snippet))
            .collect();
        assert_eq!(
            flagged,
            [
                ("a.rs".to_string(), "pub fn reset() {}".to_string()),
                ("a.rs".to_string(), "pub struct Clock;".to_string()),
                ("b.rs".to_string(), "pub fn reset() {}".to_string()),
            ]
        );
        // A call is still a use.
        let calls = [("c.rs", "fn f() { reset(); }")];
        assert!(rule_u1_unused_pub(&files[..1], &calls)
            .iter()
            .all(|f| !f.snippet.contains("reset")));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f() { let t = Instant::now(); }";
        let f = scan_file("x.rs", src, &Config::default());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D1");
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { let t = Instant::now(); }\n}\nfn g() {}";
        let f = scan_file("x.rs", src, &Config::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn duration_is_exempt_from_d1() {
        let src = "use std::time::Duration;\nfn f(d: Duration) {}";
        let f = scan_file("x.rs", src, &Config::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn clock_file_is_exempt_from_d1() {
        let cfg = Config::default();
        let clock = cfg.clock_file.clone();
        let src = "fn now() -> Instant { Instant::now() }";
        assert!(scan_file(&clock, src, &cfg).is_empty());
        assert_eq!(scan_file("other.rs", src, &cfg).len(), 2);
    }

    #[test]
    fn d3_requires_declared_map_and_no_sort() {
        let cfg = cfg_for("m.rs");
        let bad = "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) { for k in s.m.keys() {} }";
        let f = scan_file("m.rs", bad, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D3");

        let sorted =
            "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) { let mut v: Vec<_> = s.m.keys().collect(); v.sort(); }";
        assert!(scan_file("m.rs", sorted, &cfg).is_empty());

        let btree = "struct S { m: BTreeMap<u32, u32> }\nfn f(s: &S) { for k in s.m.keys() {} }";
        assert!(scan_file("m.rs", btree, &cfg).is_empty());
    }

    #[test]
    fn f1_pairs_create_with_fsyncs() {
        let cfg = cfg_for("snap.rs");
        let bad = "fn save(p: &Path) { let f = File::create(p); }";
        let f = scan_file("snap.rs", bad, &cfg);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "F1"));

        let good =
            "fn save(p: &Path) { let f = File::create(p); f.sync_all(); sync_parent_dir(p); }";
        assert!(scan_file("snap.rs", good, &cfg).is_empty());
    }

    #[test]
    fn p1_flags_unwrap_only_in_recovery_fns() {
        let cfg = cfg_for("wal.rs");
        let bad = "fn replay(b: &[u8]) { let s = parse(b).unwrap(); }";
        let f = scan_file("wal.rs", bad, &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "P1");

        // Same body, non-recovery name: P1 does not apply.
        let other = "fn fresh(b: &[u8]) { let s = parse(b).unwrap(); }";
        assert!(scan_file("wal.rs", other, &cfg).is_empty());

        // unwrap_or is not unwrap.
        let ok = "fn replay(b: &[u8]) { let s = parse(b).unwrap_or(0); }";
        assert!(scan_file("wal.rs", ok, &cfg).is_empty());
    }

    #[test]
    fn o1_flags_literal_metric_names_outside_the_registry() {
        let cfg = Config::default();
        let bad = "fn f(r: &Recorder) { r.counter_add(\"wal.appends\", 1); }";
        let f = scan_file("crates/serve/src/service.rs", bad, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "O1");
        assert_eq!(f[0].severity, Severity::Error);

        // The registry file itself declares the names.
        assert!(scan_file(&cfg.metric_registry_file.clone(), bad, &cfg).is_empty());

        // Constants and dynamic format! names are fine.
        let const_name = "fn f(r: &Recorder) { r.counter_add(registry::WAL_APPENDS, 1); }";
        assert!(scan_file("crates/serve/src/service.rs", const_name, &cfg).is_empty());
        let dynamic =
            "fn f(r: &Recorder) { r.counter_add(&format!(\"llm.calls.{}\", m.name()), 1); }";
        assert!(scan_file("crates/serve/src/service.rs", dynamic, &cfg).is_empty());

        // histogram_record and gauge_set are sinks too; tests are exempt.
        let hist = "fn f(r: &Recorder) { r.histogram_record(\"x.y\", 1.0); }";
        assert_eq!(scan_file("a.rs", hist, &cfg).len(), 1);
        let test_code =
            "#[cfg(test)]\nmod tests { fn f(r: &Recorder) { r.counter_add(\"x\", 1); } }";
        assert!(scan_file("a.rs", test_code, &cfg).is_empty());
    }

    #[test]
    fn o2_flags_trace_text_built_before_the_recorder_sees_it() {
        let cfg = Config::default();
        let at = |src: &str| -> Vec<Finding> { scan_file("crates/core/src/ops.rs", src, &cfg) };
        let eager = [
            "fn f(r: &Recorder, s: u32) { let h = r.span(K, format!(\"step {s}\"), 0.0); }",
            "fn f(h: &SpanHandle, c: &str) { h.attr(\"code\", aida_obs::clip(c, 80)); }",
            "fn f(h: &SpanHandle, p: &Plan) { h.attr(\"plan\", clip(&p.render(), 160)); }",
            "fn f(h: &SpanHandle, b: &Bound) { h.attr(\"bound\", b.render()); }",
        ];
        for src in eager {
            let f = at(src);
            assert!(
                !f.is_empty() && f.iter().all(|x| x.rule == "O2"),
                "{src}: {f:?}"
            );
        }
        assert_eq!(
            at(eager[2]).len(),
            2,
            "clip( and .render() are two findings"
        );

        // Lazy forms, other sinks, and calls after the argument list pass.
        let lazy = [
            "fn f(r: &Recorder, s: u32) { let h = r.span(K, format_args!(\"step {s}\"), 0.0); }",
            "fn f(h: &SpanHandle, c: &str) { h.attr(\"code\", aida_obs::clipped(c, 80)); }",
            "fn f(h: &SpanHandle, b: &Bound) { h.attr(\"bound\", &b.bound); }",
            "fn f(h: &SpanHandle, b: &Bound) { h.attr(\"x\", b.name()); let s = b.render(); }",
            "fn f(r: &Recorder, q: &str) { r.event(Event::Sql { statement: clip(q, 200) }); }",
            "fn f(s: &S) -> S { S { ..span(format!(\"x\")) } }",
        ];
        for src in lazy {
            assert!(at(src).is_empty(), "{src}: {:?}", at(src));
        }
        let test_code =
            "#[cfg(test)]\nmod t { fn f(h: &SpanHandle) { h.attr(\"k\", format!(\"v\")); } }";
        assert!(at(test_code).is_empty());
    }

    #[test]
    fn s1_flags_fns_over_the_line_budget() {
        let cfg = Config {
            s1_max_fn_lines: 3,
            ..Config::default()
        };
        let long = "fn big() {\n let a = 1;\n let b = 2;\n let c = 3;\n}";
        let f = scan_file("x.rs", long, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "S1");
        assert_eq!(f[0].severity, Severity::Warning);
        assert!(
            f[0].message.contains("`big` spans 5 lines"),
            "{}",
            f[0].message
        );

        let short = "fn small() {\n let a = 1;\n}";
        assert!(scan_file("x.rs", short, &cfg).is_empty());
    }

    #[test]
    fn s1_counts_branch_keywords_and_match_arms() {
        let cfg = Config {
            s1_max_fn_branches: 3,
            ..Config::default()
        };
        // 2 keywords (if, match) + 2 arms (=>) = 4 branch points.
        let branchy =
            "fn pick(x: u32) -> u32 { if x > 1 { return 0; } match x { 0 => 1, _ => 2 } }";
        let f = scan_file("x.rs", branchy, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("4 branch points"), "{}", f[0].message);

        // Exactly at budget: clean.
        let at_budget = "fn pick(x: u32) -> u32 { match x { 0 => 1, _ => 2 } }";
        assert!(scan_file("x.rs", at_budget, &cfg).is_empty());
    }

    #[test]
    fn s1_exempts_test_code() {
        let cfg = Config {
            s1_max_fn_lines: 2,
            ..Config::default()
        };
        let src = "#[cfg(test)]\nmod tests {\n fn t() {\n let a = 1;\n let b = 2;\n }\n}";
        assert!(scan_file("x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn l1_detects_opposite_order() {
        let src = "fn ab(a: &M, b: &M) { let _x = a.lock(); let _y = b.lock(); }\n\
                   fn ba(a: &M, b: &M) { let _y = b.lock(); let _x = a.lock(); }";
        let seqs = lock_sequences("locks.rs", src);
        let f = rule_l1_lock_cycles(&seqs);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "L1");
        assert!(f[0].message.contains("locks::a"), "{}", f[0].message);
    }

    #[test]
    fn l1_ignores_consistent_order_and_io_read() {
        let src = "fn ab(a: &M, b: &M) { let _x = a.lock(); let _y = b.lock(); }\n\
                   fn ab2(a: &M, b: &M) { let _x = a.lock(); let _y = b.lock(); }\n\
                   fn io(f: &mut File, buf: &mut [u8]) { f.read(buf); f.read(buf); }";
        let seqs = lock_sequences("locks.rs", src);
        assert!(rule_l1_lock_cycles(&seqs).is_empty());
    }
}
