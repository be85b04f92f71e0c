//! `perf_bench`: the host-clock benchmark for the aida runtime.
//!
//! Four workloads, each run in its own process so peak memory is per
//! workload; eleven end-to-end metrics under the same names on all of
//! them; a traced run and a ladder of per-layer rungs that say where
//! the time went. See `README.md` next to `Cargo.toml`.

mod cold_scan;
mod host;
mod layers;
mod live_point;
mod metrics;
mod reference;
mod report;
mod served;
mod source;
mod spans;
mod stats;
mod trace;
mod trial;

use metrics::{RunResult, END_TO_END};
use spans::SpanLog;
use std::process::{Command, ExitCode};
use trial::{Sizes, Stretch, Workload};

/// The workloads and why each exists. The names are permanent: results
/// are compared across commits by name.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold_scan",
        "every document is read and every simulated LLM call misses: semops, the SimLlm miss path, \
         tokenizer and parsing do the work; caches, serve and the WAL do none",
    ),
    (
        "warm_serve",
        "serve_soak's four-tenant mix on four services, one per lake pair, 96% repeat questions: the \
         cache-hit path, Context reuse and dispatch do the work. Pinned to one CPU like all four workloads",
    ),
    (
        "live_point",
        "closed-loop fleet asking point questions over the simulated wire: tiny engine work per \
         request, so codec, listener, admission, autoscaler and the Pyrite pipeline dominate",
    ),
    (
        "durable_serve",
        "warm_serve's exact streams and services plus ledger WAL, delta checkpoints and crash-stop \
         recovery: its difference to warm_serve is the write path and nothing else",
    ),
];

pub fn workload(name: &str, seed: u64, sizes: Sizes) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cold_scan" => Box::new(cold_scan::ColdScan::new(seed, sizes)),
        "warm_serve" => Box::new(served::Served::new(seed, sizes, false)),
        "live_point" => Box::new(live_point::LivePoint::new(seed, sizes)),
        "durable_serve" => Box::new(served::Served::new(seed, sizes, true)),
        _ => return None,
    })
}

/// How long a run keeps starting trials.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    Trials(usize),
    /// Whole trials until this many seconds of timed work are done.
    Seconds(f64),
}

/// Runs `name` untraced: trials, then the save + crash-stop + restart.
pub fn run_untraced(name: &str, seed: u64, sizes: Sizes, length: Length) -> Option<RunResult> {
    let mut workload = workload(name, seed, sizes)?;
    let mut log = SpanLog::new(false);
    let mut trials = Vec::new();
    let mut timed_s = 0.0;
    let mut peak_rss_mib = 0.0;
    loop {
        let trial = workload.trial(&mut log);
        if trials.is_empty() {
            // How many trials fit in `--seconds` depends on the machine,
            // and freed memory is not returned between them, so the peak
            // is read after the one trial every run has.
            peak_rss_mib = host::peak_rss_mib();
        }
        timed_s += trial.wall_s();
        trials.push(trial);
        let done = match length {
            Length::Trials(n) => trials.len() >= n,
            Length::Seconds(s) => timed_s >= s,
        };
        if done {
            break;
        }
    }
    let restart = workload.restart(&mut log);
    let mut setups: Vec<Stretch> = trials.iter().map(|t| t.setup).collect();
    while setups.len() < metrics::SETUPS_PER_RUN {
        setups.push(workload.setup(&mut log));
    }
    Some(RunResult {
        trials,
        setups,
        restart,
        peak_rss_mib,
    })
}

/// Command-line options shared by the subcommands.
#[derive(Debug)]
struct Options {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trials: Option<usize>,
    trace: bool,
    smoke: bool,
    out: Option<std::path::PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trials: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |text: &String| {
            text.parse::<f64>()
                .map_err(|e| format!("{arg} {text}: {e}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => opts.seed = number(value()?)? as u64,
            "--seconds" => opts.seconds = Some(number(value()?)?),
            "--trials" => opts.trials = Some((number(value()?)? as usize).max(1)),
            "--trace" => opts.trace = value()? == "1",
            "--out" => opts.out = Some(value()?.into()),
            "--smoke" => opts.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => opts.positional.push(arg.clone()),
        }
    }
    Ok(opts)
}

impl Options {
    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }

    /// `--trials` when given, else `--seconds`, else the benchmark's own
    /// run length (two trials under `--smoke`).
    fn length(&self) -> Length {
        match (self.trials, self.seconds) {
            (Some(n), _) => Length::Trials(n),
            (None, Some(s)) => Length::Seconds(s),
            (None, None) if self.smoke => Length::Trials(2),
            (None, None) => Length::Seconds(trace::RUN_SECONDS as f64),
        }
    }

    fn named_workload(&self) -> Result<&str, String> {
        let name = self
            .workload
            .as_deref()
            .or(self.positional.first().map(String::as_str))
            .ok_or("name a workload")?;
        if WORKLOADS.iter().any(|(w, _)| *w == name) {
            Ok(name)
        } else {
            Err(format!(
                "unknown workload {name}; the workloads are {}",
                WORKLOADS.map(|(w, _)| w).join(", ")
            ))
        }
    }
}

fn fail_on(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// `bench`: the entry point the benchmark driver calls. Prints the
/// contract's result line last; exits non-zero, without one, when a
/// correctness check does not hold.
fn bench(opts: &Options) -> Result<(), String> {
    let name = opts.named_workload()?;
    if opts.trace {
        let traced = trace::run(name, opts.seed, opts.sizes());
        fail_on(traced.failures.clone())?;
        let rungs = layers::run_all(opts.seed, opts.sizes());
        let rows: Vec<(&str, f64, &str)> = trace::per_layer(&traced, &rungs)
            .into_iter()
            .map(|(def, value)| (def.name, value, def.unit))
            .collect();
        println!(
            "{}",
            report::contract_line(true, traced.attempted, 0, &rows)
        );
        return Ok(());
    }
    let run =
        run_untraced(name, opts.seed, opts.sizes(), opts.length()).ok_or("unknown workload")?;
    report::print_run(name, &run);
    fail_on(run.failures())?;
    let measured = run.end_to_end();
    let rows: Vec<(&str, f64, &str)> = measured.iter().map(|m| (m.name, m.value, m.unit)).collect();
    println!(
        "{}",
        report::contract_line(true, run.attempted(), run.failed(), &rows)
    );
    Ok(())
}

/// `run <workload>`: one workload, in this process; `--out` also writes
/// the `PERF_<workload>.json` document.
fn run(opts: &Options) -> Result<(), String> {
    let name = opts.named_workload()?;
    let run =
        run_untraced(name, opts.seed, opts.sizes(), opts.length()).ok_or("unknown workload")?;
    report::print_run(name, &run);
    if let Some(path) = &opts.out {
        report::write_json(
            path,
            &report::perf_json(name, &run, report::environment(opts.seed)),
        )?;
    }
    fail_on(run.failures())
}

/// `perf_bench run <workload>` as a child process: one process per
/// workload keeps `peak_rss_mb` per workload.
fn run_command(name: &str, opts: &Options) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", name, "--seed", &opts.seed.to_string()]);
    match opts.length() {
        Length::Trials(n) => cmd.args(["--trials", &n.to_string()]),
        Length::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
    };
    if opts.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// `all`: every workload, one process each, every metric by name.
fn all(opts: &Options) -> Result<(), String> {
    for (name, why) in WORKLOADS {
        println!("-- {name}: {why}");
        let mut cmd = run_command(name, opts)?;
        if !opts.smoke {
            cmd.arg("--out");
            cmd.arg(report::results_dir().join(format!("PERF_{name}.json")));
        }
        let status = cmd.status().map_err(|e| format!("spawn run {name}: {e}"))?;
        if !status.success() {
            return Err(format!("run {name} failed"));
        }
    }
    Ok(())
}

/// Reads the `metric <name> <value> <unit> (raw <clock reading>, ...`
/// lines a `run` prints, as `(value, raw)`. Both are printed in their
/// shortest form that parses back to the same bits.
fn parse_metrics(stdout: &str) -> Vec<(f64, Option<f64>)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("metric")).then_some(())?;
            let value = words.nth(1)?.parse().ok()?;
            let raw = (words.nth(1) == Some("(raw"))
                .then(|| words.next()?.trim_end_matches(',').parse().ok())
                .flatten();
            Some((value, raw))
        })
        .collect()
}

/// `noise`: the suite twice back to back. Every pair of values must sit
/// inside the metric's bound, the exact-repeating ones bit-equal.
fn noise(opts: &Options) -> Result<(), String> {
    if opts.smoke {
        return Err("noise measures the full sizes; --smoke is refused".to_string());
    }
    let measure = |name: &str| -> Result<Vec<(f64, Option<f64>)>, String> {
        let out = run_command(name, opts)?
            .output()
            .map_err(|e| format!("spawn run {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("run {name} failed:\n{stdout}"));
        }
        Ok(parse_metrics(&stdout))
    };
    let mut rows = Vec::new();
    let mut outside = Vec::new();
    for (name, _) in WORKLOADS {
        let (first, second) = (measure(name)?, measure(name)?);
        println!("-- {name}");
        for (def, ((a, a_raw), (b, b_raw))) in END_TO_END.iter().zip(first.iter().zip(&second)) {
            let worse = stats::worsening(*a, *b, def.higher_is_better);
            let inside = if def.exact {
                a.to_bits() == b.to_bits()
            } else {
                worse.abs() <= def.bound
            };
            println!(
                "{:<26} {:>22} {:>22} {:>+8.2}%  bound {:>5.2}%{}  {}",
                def.name,
                a,
                b,
                worse * 100.0,
                def.bound * 100.0,
                if def.exact { " (bit-equal)" } else { "" },
                if inside { "ok" } else { "OUTSIDE" },
            );
            if !inside {
                outside.push(format!("{name}/{}", def.name));
            }
            let mut row = aida_obs::Json::obj()
                .field("workload", name)
                .field("metric", def.name)
                .field("first", *a)
                .field("second", *b);
            if let (Some(a_raw), Some(b_raw)) = (a_raw, b_raw) {
                row = row.field("first_raw", *a_raw).field("second_raw", *b_raw);
            }
            rows.push(
                row.field("worsening", worse)
                    .field("bound", def.bound)
                    .field("bit_equal_required", def.exact)
                    .field("inside", inside),
            );
        }
    }
    let doc = aida_obs::Json::obj()
        .field("environment", report::environment(opts.seed))
        .field("run_seconds", trace::RUN_SECONDS)
        .field("pairs", rows);
    report::write_json(&report::results_dir().join("NOISE.json"), &doc)?;
    fail_on(
        outside
            .iter()
            .map(|m| format!("{m} is outside its bound"))
            .collect(),
    )
}

const USAGE: &str = "usage: perf_bench <command> [--seed S] [--seconds N | --trials T] [--smoke]
  all                 every workload, one process each; writes results/PERF_<workload>.json
  run <workload>      one workload in this process (--out FILE writes its PERF json)
  trace <workload>    one traced trial; writes results/trace_<workload>.jsonl
  layers              the per-layer rungs; writes results/PERF_layers.json
  noise               the suite twice; writes results/NOISE.json, fails outside the bounds
  manifest            prints BENCHMARK.json
  bench --workload W --seed S --seconds N --trace 0|1   the benchmark driver's entry point
workloads: cold_scan, warm_serve, live_point, durable_serve";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = parse(rest).and_then(|opts| {
        // Before any thread exists, so every thread inherits it.
        host::pin_to_one_cpu();
        dispatch(command, &opts)
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf_bench {command}: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(command: &str, opts: &Options) -> Result<(), String> {
    match command {
        "bench" => bench(opts),
        "run" => run(opts),
        "all" => all(opts),
        "noise" => noise(opts),
        "trace" => trace::command(opts.named_workload()?, opts.seed, opts.sizes(), !opts.smoke),
        "layers" => layers::command(opts.seed, opts.sizes(), !opts.smoke),
        "manifest" => {
            print!("{}", report::pretty(&trace::manifest()));
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    }
}
