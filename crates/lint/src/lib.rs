//! # aida-lint
//!
//! Dependency-free static analysis for the aida workspace. The runtime's
//! core claim — byte-identical seeded replay across caching, serving,
//! and crash recovery — rests on conventions nothing else enforces:
//! virtual clock only (D1), seeded randomness (D2), ordered iteration in
//! serializers (D3), fsync-paired durable writes (F1), panic-free
//! recovery (P1), an acyclic lock-order graph (L1), metric names drawn
//! from the single registry module (O1), a per-function complexity
//! budget (S1), and no `pub` item that only its own file uses (U1). This crate
//! tokenizes every workspace `.rs` file with its own total lexer and
//! checks those invariants, diffing findings against the checked-in
//! baseline in `lint.toml` and exporting a deterministic JSONL report.
//!
//! See `docs/lint.md` for the rule catalog and baselining workflow.

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;

use baseline::{Allow, Entry, Value};
use rules::Finding;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Linter configuration, normally loaded from `lint.toml` at the
/// workspace root. All paths are workspace-relative with forward
/// slashes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the root) to scan for `.rs` files.
    pub roots: Vec<String>,
    /// Directories whose non-test code counts as a use of a `pub` item
    /// (U1): the scanned roots plus the packages built against them.
    pub consumer_roots: Vec<String>,
    /// Path components that exclude a file when present anywhere in its
    /// relative path (`target`, `vendor`, `fixtures`, …).
    pub exclude: Vec<String>,
    /// Modules that serialize output; D3 applies only here.
    pub serializer_modules: Vec<String>,
    /// Durability-critical files; F1 applies only here.
    pub durability_files: Vec<String>,
    /// Files containing recovery paths; P1 applies only here.
    pub recovery_files: Vec<String>,
    /// A function in a recovery file is a recovery path if its name
    /// contains any of these substrings.
    pub recovery_fn_patterns: Vec<String>,
    /// The one file allowed to spell metric names as string literals
    /// (O1); everywhere else they must come from this registry's consts.
    pub metric_registry_file: String,
    /// S1: maximum source lines a single non-test `fn` item may span.
    pub s1_max_fn_lines: usize,
    /// S1: maximum branch points (`if`/`else`/`while`/`for`/`loop`/
    /// `match` keywords and `=>` arms) a single non-test fn may contain.
    pub s1_max_fn_branches: usize,
    /// Baseline entries.
    pub allows: Vec<Allow>,
}

impl Default for Config {
    /// The built-in defaults, matching this repository's layout. Used
    /// when `lint.toml` is absent and as the base the file overrides.
    fn default() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Config {
            roots: s(&["crates", "src"]),
            consumer_roots: s(&["crates", "src", "examples", "perf/src"]),
            exclude: s(&[
                "target", "vendor", "fixtures", "tests", "benches", "examples",
            ]),
            serializer_modules: s(&[
                "crates/obs/src/report.rs",
                "crates/obs/src/json.rs",
                "crates/serve/src/report.rs",
                "crates/llm/src/snapshot.rs",
                "crates/core/src/manager.rs",
                "crates/serve/src/tenant.rs",
            ]),
            durability_files: s(&[
                "crates/llm/src/snapshot.rs",
                "crates/serve/src/tenant.rs",
                "crates/core/src/runtime.rs",
            ]),
            recovery_files: s(&[
                "crates/llm/src/snapshot.rs",
                "crates/llm/src/cache.rs",
                "crates/serve/src/tenant.rs",
                "crates/core/src/manager.rs",
            ]),
            recovery_fn_patterns: s(&["recover", "replay", "decode", "load", "restore"]),
            metric_registry_file: "crates/obs/src/registry.rs".to_string(),
            s1_max_fn_lines: 150,
            s1_max_fn_branches: 60,
            allows: Vec::new(),
        }
    }
}

impl Config {
    /// Loads `lint.toml` from `path`, overlaying the defaults. A missing
    /// file yields the defaults unchanged.
    pub fn load(path: &Path) -> Result<Config, LintError> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Config::default()),
            Err(e) => return Err(LintError::Io(path.display().to_string(), e)),
        };
        let entries = baseline::parse(&text).map_err(LintError::Toml)?;
        let mut cfg = Config::default();
        for e in entries.iter().filter(|e| e.table == "lint") {
            cfg.apply_lint_key(e);
        }
        cfg.allows = collect_allows(&entries);
        Ok(cfg)
    }

    fn apply_lint_key(&mut self, e: &Entry) {
        let as_list = |v: &Value| -> Option<Vec<String>> {
            match v {
                Value::List(items) => Some(items.clone()),
                Value::Str(s) => Some(vec![s.clone()]),
                _ => None,
            }
        };
        match e.key.as_str() {
            "roots" => {
                if let Some(v) = as_list(&e.value) {
                    self.roots = v;
                }
            }
            "consumer_roots" => {
                if let Some(v) = as_list(&e.value) {
                    self.consumer_roots = v;
                }
            }
            "exclude" => {
                if let Some(v) = as_list(&e.value) {
                    self.exclude = v;
                }
            }
            "serializer_modules" => {
                if let Some(v) = as_list(&e.value) {
                    self.serializer_modules = v;
                }
            }
            "durability_files" => {
                if let Some(v) = as_list(&e.value) {
                    self.durability_files = v;
                }
            }
            "recovery_files" => {
                if let Some(v) = as_list(&e.value) {
                    self.recovery_files = v;
                }
            }
            "recovery_fn_patterns" => {
                if let Some(v) = as_list(&e.value) {
                    self.recovery_fn_patterns = v;
                }
            }
            "metric_registry_file" => {
                if let Value::Str(s) = &e.value {
                    self.metric_registry_file = s.clone();
                }
            }
            "s1_max_fn_lines" => {
                if let Value::Int(n) = &e.value {
                    self.s1_max_fn_lines = (*n).max(1) as usize;
                }
            }
            "s1_max_fn_branches" => {
                if let Value::Int(n) = &e.value {
                    self.s1_max_fn_branches = (*n).max(1) as usize;
                }
            }
            _ => {}
        }
    }
}

/// Folds `[[allow]]` entries into [`Allow`] records, grouped by item.
fn collect_allows(entries: &[Entry]) -> Vec<Allow> {
    let mut allows: Vec<Allow> = Vec::new();
    for e in entries.iter().filter(|e| e.table == "allow") {
        while allows.len() <= e.item {
            allows.push(Allow::default());
        }
        let a = &mut allows[e.item];
        if let Value::Str(s) = &e.value {
            match e.key.as_str() {
                "rule" => a.rule = s.clone(),
                "file" => a.file = s.clone(),
                "contains" => a.contains = s.clone(),
                "reason" => a.reason = s.clone(),
                _ => {}
            }
        }
    }
    allows
}

/// Linter failure (I/O or config), distinct from findings.
#[derive(Debug)]
pub enum LintError {
    /// Reading a file failed.
    Io(String, io::Error),
    /// `lint.toml` is malformed.
    Toml(baseline::TomlError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(path, e) => write!(f, "{path}: {e}"),
            LintError::Toml(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// The outcome of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Findings not covered by the baseline, severity-ranked.
    pub new: Vec<Finding>,
    /// Findings suppressed by `[[allow]]` entries, severity-ranked.
    pub baselined: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Non-test lines of the scanned files ([`rules::non_test_lines`]) per
    /// crate directory (`crates/<name>`, or `src` for the facade).
    pub non_test_lines: BTreeMap<String, usize>,
}

impl LintReport {
    /// Human-readable rendering.
    pub fn text(&self) -> String {
        report::render_text(&self.new, &self.baselined, self.files_scanned)
    }

    /// Deterministic JSONL rendering.
    pub fn jsonl(&self) -> String {
        report::render_jsonl(
            &self.new,
            &self.baselined,
            self.files_scanned,
            &self.non_test_lines,
        )
    }
}

/// Runs the full workspace lint rooted at `root` with `cfg`.
pub fn run(root: &Path, cfg: &Config) -> Result<LintReport, LintError> {
    let files = collect_files(root, &cfg.roots, cfg)?;
    let consumer_files = collect_files(root, &cfg.consumer_roots, cfg)?;
    let mut sources: BTreeMap<&str, String> = BTreeMap::new();
    for rel in files.iter().chain(&consumer_files) {
        // Non-UTF-8 or vanished files are skipped, not fatal: the
        // linter must stay total over whatever the tree contains.
        if let Ok(src) = fs::read_to_string(root.join(rel)) {
            sources.insert(rel, src);
        }
    }
    let loaded = |rels: &'_ [String]| {
        rels.iter()
            .filter_map(|r| sources.get_key_value(r.as_str()))
            .map(|(r, s)| (*r, s.as_str()))
            .collect::<Vec<_>>()
    };
    let scanned = loaded(&files);
    let mut findings = Vec::new();
    let mut lock_seqs = Vec::new();
    let mut non_test_lines = BTreeMap::new();
    for &(rel, src) in &scanned {
        findings.extend(rules::scan_file(rel, src, cfg));
        lock_seqs.extend(rules::lock_sequences(rel, src));
        *non_test_lines
            .entry(crate_dir(rel).to_string())
            .or_default() += rules::non_test_lines(src);
    }
    findings.extend(rules::rule_l1_lock_cycles(&lock_seqs));
    findings.extend(rules::rule_u1_unused_pub(
        &scanned,
        &loaded(&consumer_files),
    ));
    findings.sort_by_key(|f| f.sort_key());
    let (new, baselined) = baseline::apply_baseline(findings, &cfg.allows);
    Ok(LintReport {
        new,
        baselined,
        files_scanned: files.len(),
        non_test_lines,
    })
}

/// The crate directory of a workspace-relative path: `crates/<name>`, or
/// the first component (`src`, the facade crate).
fn crate_dir(rel: &str) -> &str {
    let skip = usize::from(rel.starts_with("crates/"));
    let end = rel
        .match_indices('/')
        .nth(skip)
        .map_or(rel.len(), |(i, _)| i);
    &rel[..end]
}

/// Collects workspace-relative `.rs` paths under `roots`, sorted, with
/// excluded components filtered out.
fn collect_files(root: &Path, roots: &[String], cfg: &Config) -> Result<Vec<String>, LintError> {
    let mut out = Vec::new();
    for r in roots {
        let dir = root.join(r);
        if dir.is_dir() {
            walk(&dir, root, cfg, &mut out)?;
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, cfg: &Config, out: &mut Vec<String>) -> Result<(), LintError> {
    let rd = fs::read_dir(dir).map_err(|e| LintError::Io(dir.display().to_string(), e))?;
    let mut children: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    children.sort();
    for child in children {
        let name = child
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if cfg.exclude.iter().any(|x| x == &name) || name.starts_with('.') {
            continue;
        }
        if child.is_dir() {
            walk(&child, root, cfg, out)?;
        } else if name.ends_with(".rs") {
            let rel = child
                .strip_prefix(root)
                .unwrap_or(&child)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_exclude_vendored_code() {
        let cfg = Config::default();
        assert!(cfg.exclude.iter().any(|e| e == "vendor"));
    }

    #[test]
    fn config_overlay_from_toml_text() {
        let text = "[lint]\nroots = [\"x\"]\nmetric_registry_file = \"y/registry.rs\"\n\n[[allow]]\nrule = \"D1\"\nfile = \"z.rs\"\nreason = \"because\"\n";
        let entries = baseline::parse(text).unwrap();
        let mut cfg = Config::default();
        for e in entries.iter().filter(|e| e.table == "lint") {
            cfg.apply_lint_key(e);
        }
        cfg.allows = collect_allows(&entries);
        assert_eq!(cfg.roots, vec!["x"]);
        assert_eq!(cfg.metric_registry_file, "y/registry.rs");
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].rule, "D1");
        assert_eq!(cfg.allows[0].reason, "because");
    }

    #[test]
    fn missing_config_file_yields_defaults() {
        let cfg = Config::load(Path::new("/nonexistent/lint.toml")).unwrap();
        assert_eq!(
            cfg.metric_registry_file,
            Config::default().metric_registry_file
        );
    }
}
