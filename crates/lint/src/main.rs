//! `aida-lint` CLI.
//!
//! ```text
//! aida-lint [--root DIR] [--config FILE] [--jsonl FILE] [--deny-new]
//! ```
//!
//! Scans the workspace, prints the human report, writes the JSONL report
//! (default `results/lint_report.jsonl` under the root, honouring
//! `AIDA_RESULTS_DIR` like the bench binaries). Exit codes: 0 = clean
//! or findings all baselined; 1 = new findings with `--deny-new`; 2 =
//! bad usage or I/O failure.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    jsonl: Option<PathBuf>,
    deny_new: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        jsonl: None,
        deny_new: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = take(&mut it, "--root")?.into(),
            "--config" => args.config = Some(take(&mut it, "--config")?.into()),
            "--jsonl" => args.jsonl = Some(take(&mut it, "--jsonl")?.into()),
            "--deny-new" => args.deny_new = true,
            "--help" | "-h" => {
                return Err(
                    "usage: aida-lint [--root DIR] [--config FILE] [--jsonl FILE] [--deny-new]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let config_path = args
        .config
        .clone()
        .unwrap_or_else(|| args.root.join("lint.toml"));
    let cfg = match aida_lint::Config::load(&config_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("aida-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match aida_lint::run(&args.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aida-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.text());

    let jsonl_path = args.jsonl.clone().unwrap_or_else(|| {
        // Same convention as the bench binaries: AIDA_RESULTS_DIR wins,
        // else `results/` under the scanned root.
        match std::env::var_os("AIDA_RESULTS_DIR") {
            Some(dir) => PathBuf::from(dir).join("lint_report.jsonl"),
            None => args.root.join("results").join("lint_report.jsonl"),
        }
    });
    if let Some(parent) = jsonl_path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("aida-lint: creating {}: {e}", parent.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&jsonl_path, report.jsonl()) {
        eprintln!("aida-lint: writing {}: {e}", jsonl_path.display());
        return ExitCode::from(2);
    }

    if args.deny_new && !report.new.is_empty() {
        eprintln!(
            "aida-lint: {} new finding(s) above the baseline (see {})",
            report.new.len(),
            jsonl_path.display()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
