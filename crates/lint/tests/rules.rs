//! Fixture-based proof that every rule family fires, plus end-to-end
//! determinism of the workspace run.

use aida_lint::rules::{self, Finding};
use aida_lint::{baseline, Config};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    (name.to_string(), src)
}

/// A config whose per-file rule scoping targets the fixture itself.
fn fixture_cfg(rel: &str) -> Config {
    Config {
        serializer_modules: vec![rel.to_string()],
        durability_files: vec![rel.to_string()],
        recovery_files: vec![rel.to_string()],
        ..Config::default()
    }
}

fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn d1_fixture_fires() {
    let (rel, src) = fixture("d1_wall_clock.rs");
    let findings = rules::scan_file(&rel, &src, &fixture_cfg(&rel));
    assert_eq!(rules_fired(&findings), vec!["D1"], "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("Instant")));
}

#[test]
fn d2_fixture_fires() {
    let (rel, src) = fixture("d2_unseeded_rng.rs");
    let findings = rules::scan_file(&rel, &src, &fixture_cfg(&rel));
    assert_eq!(rules_fired(&findings), vec!["D2"], "{findings:?}");
    // All four entropy sources in the fixture are caught.
    assert!(findings.len() >= 4, "{findings:?}");
}

#[test]
fn d3_fixture_fires_only_on_unsorted_iteration() {
    let (rel, src) = fixture("d3_unsorted_iter.rs");
    let findings = rules::scan_file(&rel, &src, &fixture_cfg(&rel));
    assert_eq!(rules_fired(&findings), vec!["D3"], "{findings:?}");
    // Exactly one: `to_jsonl` fires, `to_jsonl_sorted` does not.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].snippet.contains("counts.iter()"));
}

#[test]
fn f1_fixture_fires_for_both_missing_fsyncs() {
    let (rel, src) = fixture("f1_missing_fsync.rs");
    let findings = rules::scan_file(&rel, &src, &fixture_cfg(&rel));
    assert_eq!(rules_fired(&findings), vec!["F1"], "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("sync_all")));
    assert!(findings.iter().any(|f| f.message.contains("parent")));
}

#[test]
fn f1_fixture_fires_for_unsynced_in_place_writes() {
    let (rel, src) = fixture("f1_unsynced_append.rs");
    let findings = rules::scan_file(&rel, &src, &fixture_cfg(&rel));
    assert_eq!(rules_fired(&findings), vec!["F1"], "{findings:?}");
    // Both append sites fire the sync_all finding; neither renames, so
    // the parent-directory finding stays quiet.
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .all(|f| f.message.contains("in-place writes")));
}

#[test]
fn f1_fixture_fires_for_seal_without_dir_fsync() {
    let (rel, src) = fixture("f1_unsynced_seal.rs");
    let findings = rules::scan_file(&rel, &src, &fixture_cfg(&rel));
    assert_eq!(rules_fired(&findings), vec!["F1"], "{findings:?}");
    // sync_all is present, so only the parent-directory finding fires.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("parent"));
}

#[test]
fn p1_fixture_fires_for_every_panic_site() {
    let (rel, src) = fixture("p1_panic_recovery.rs");
    let findings = rules::scan_file(&rel, &src, &fixture_cfg(&rel));
    assert_eq!(rules_fired(&findings), vec!["P1"], "{findings:?}");
    // expect + unwrap in wal_replay, panic! in load_snapshot.
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn l1_fixture_fires_on_the_cycle() {
    let (rel, src) = fixture("l1_lock_cycle.rs");
    let seqs = rules::lock_sequences(&rel, &src);
    let findings = rules::rule_l1_lock_cycles(&seqs);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "L1");
    assert!(findings[0].message.contains("ledger"));
    assert!(findings[0].message.contains("journal"));
}

#[test]
fn baseline_suppresses_a_fixture_finding() {
    let (rel, src) = fixture("d3_unsorted_iter.rs");
    let cfg = fixture_cfg(&rel);
    let findings = rules::scan_file(&rel, &src, &cfg);
    let allow = baseline::Allow {
        rule: "D3".into(),
        file: rel.clone(),
        contains: "counts.iter".into(),
        reason: "fixture exercise".into(),
    };
    let (new, baselined) = baseline::apply_baseline(findings, &[allow]);
    assert!(new.is_empty(), "{new:?}");
    assert_eq!(baselined.len(), 1);
}

#[test]
fn u1_fires_only_for_pub_items_without_a_production_consumer() {
    // A miniature workspace: `alpha` declares the items, `beta`, the
    // examples and perf consume some, tests consume others.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/u1");
    let report = aida_lint::run(&root, &Config::default()).expect("fixture run");
    let mut flagged: Vec<&str> = report
        .new
        .iter()
        .filter(|f| f.rule == "U1")
        .map(|f| f.message.split('`').nth(1).unwrap_or(""))
        .collect();
    flagged.sort_unstable();
    assert_eq!(
        flagged,
        vec![
            "reexported_only",
            "used_by_cfg_test",
            "used_by_tests_dir",
            "used_in_own_file_only"
        ],
        "{}",
        report.text()
    );
    // Only U1 has anything to say about the fixture.
    assert!(
        report.new.iter().all(|f| f.rule == "U1"),
        "{}",
        report.text()
    );
    assert!(report
        .new
        .iter()
        .all(|f| f.file == "crates/alpha/src/lib.rs"));
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_run_is_deterministic_and_clean() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("config loads");
    let a = aida_lint::run(&root, &cfg).expect("first run");
    let b = aida_lint::run(&root, &cfg).expect("second run");
    // Byte-identical JSONL across two runs is the determinism contract
    // ci.sh also `cmp`s.
    assert_eq!(a.jsonl(), b.jsonl());
    assert!(a.files_scanned > 50, "scanned {}", a.files_scanned);
    // The workspace itself stays clean above the checked-in baseline.
    assert!(
        a.new.is_empty(),
        "new findings above baseline:\n{}",
        a.text()
    );
}

#[test]
fn fixtures_are_excluded_from_the_workspace_walk() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("config loads");
    let report = aida_lint::run(&root, &cfg).expect("run");
    // None of the deliberately-bad fixture files may leak into the scan:
    // the jsonl would otherwise carry their findings.
    assert!(!report.jsonl().contains("fixtures/"));
}

#[test]
fn jsonl_paths_are_relative_forward_slash() {
    let root = workspace_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("config loads");
    let report = aida_lint::run(&root, &cfg).expect("run");
    let jsonl = report.jsonl();
    assert!(!jsonl.contains(&root.display().to_string()));
    // Snippets may quote source (escaped `\"`); the paths never hold a
    // backslash.
    for f in report.new.iter().chain(&report.baselined) {
        assert!(!f.file.contains('\\'), "backslash in path: {}", f.file);
    }
}

#[test]
fn config_path_scoping_matches_suffixes() {
    // durability_files entries match by suffix, so the checked-in
    // config's entries bind to real files.
    let root = workspace_root();
    let cfg = Config::load(&root.join("lint.toml")).expect("config loads");
    for rel in cfg
        .serializer_modules
        .iter()
        .chain(cfg.durability_files.iter())
        .chain(cfg.recovery_files.iter())
    {
        assert!(
            Path::new(&root).join(rel).is_file(),
            "lint.toml references missing file {rel}"
        );
    }
}
