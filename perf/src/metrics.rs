//! The benchmark's metric catalogue: every end-to-end metric with its
//! unit, direction and regression bound, and how each is computed from
//! a run's trials. `BENCHMARK.json` and `README.md` repeat this table;
//! `check.sh` fails if they drift apart.

use crate::stats::{mad, median, percentile};
use crate::trial::{Restart, Stretch, Trial};

/// One end-to-end metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Decided by virtual-clock arithmetic alone: two runs at one seed
    /// must agree to the bit.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact: true,
    }
}

/// The eleven end-to-end metrics, reported under the same names by all
/// four workloads. README.md argues each bound.
pub const END_TO_END: [EndToEnd; 11] = [
    timing("setup_s", "s", 0.25),
    EndToEnd {
        higher_is_better: true,
        ..timing("host_qps", "queries/s", 0.25)
    },
    timing("cpu_ms_per_query", "ms", 0.25),
    timing("host_ms_p50", "ms", 0.25),
    timing("host_ms_p95", "ms", 0.25),
    timing("peak_rss_mb", "MiB", 0.25),
    exact("ok_share", "ratio", true, 0.0005),
    exact("usd_per_query", "usd", false, 0.25),
    exact("virt_s_p95", "virt_s", false, 0.25),
    exact("durable_bytes_per_query", "bytes", false, 0.25),
    timing("restart_s", "s", 0.25),
];

/// A metric's value with the spread and sample counts behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The same statistic over the clock readings as they came, before
    /// scaling to the reference; `None` for metrics that are not host
    /// times.
    pub raw: Option<f64>,
    /// MAD of the samples behind `value` (0 for a single reading).
    pub mad: f64,
    /// Samples behind `value`: set-ups for `setup_s`, trials for
    /// `host_qps` and `cpu_ms_per_query`, queries for the percentiles,
    /// passes for `restart_s`.
    pub samples: usize,
}

/// `setup_s` is the median of this many set-ups. A run may have time
/// for one trial only, and one reading of a one-second build is no
/// measurement.
pub const SETUPS_PER_RUN: usize = 5;

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct RunResult {
    pub trials: Vec<Trial>,
    /// Every set-up the run timed: one per trial, then set-ups alone
    /// until there are [`SETUPS_PER_RUN`].
    pub setups: Vec<Stretch>,
    pub restart: Restart,
    pub peak_rss_mib: f64,
}

/// Each unit of replayed work (a segment, a query) at its median across
/// trials. `rows` holds one trial's readings each; only the units every
/// trial has count.
fn typical(rows: &[Vec<f64>]) -> Vec<f64> {
    let units = rows.iter().map(Vec::len).min().unwrap_or(0);
    (0..units)
        .map(|i| median(&rows.iter().map(|row| row[i]).collect::<Vec<f64>>()))
        .collect()
}

impl RunResult {
    pub fn attempted(&self) -> u64 {
        self.trials.iter().map(|t| t.attempted).sum()
    }

    /// Attempted queries that did not complete with a correct answer.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.trials.iter().map(Trial::ok_queries).sum::<u64>()
    }

    /// Every correctness check that did not hold, across trials and the
    /// restart; empty on a correct run.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for (i, t) in self.trials.iter().enumerate() {
            out.extend(t.failures.iter().map(|f| format!("trial {i}: {f}")));
        }
        let digests: Vec<u64> = self.trials.iter().map(|t| t.digest).collect();
        for i in crate::trial::digest_mismatches(&digests) {
            out.push(format!(
                "trial {i} digest {:016x} differs from trial 0's {:016x}",
                digests[i], digests[0]
            ));
        }
        out.extend(
            self.restart
                .failures
                .iter()
                .map(|f| format!("restart: {f}")),
        );
        if self.failed() > 0 {
            out.push(format!(
                "{} of {} queries failed",
                self.failed(),
                self.attempted()
            ));
        }
        out
    }

    /// The host-time metrics `(setup_s, host_qps, cpu_ms_per_query,
    /// host_ms_p50, host_ms_p95, restart_s)`, each with its MAD and sample
    /// count, from the clock readings as they came or `scaled` to the
    /// reference.
    ///
    /// Every trial replays the same requests, so segment `k` and query
    /// `i` are the same work in each of them: throughput, CPU cost and
    /// the percentiles are built from each unit's median across trials,
    /// and a slow spell spoils the units it hits in one trial, not the
    /// run.
    fn host_times(&self, scaled: bool) -> [(f64, f64, usize); 6] {
        let queries = self.queries_per_trial();
        let per_segment = |pick: fn(&Stretch, bool) -> f64| -> Vec<Vec<f64>> {
            self.trials
                .iter()
                .map(|t| {
                    t.segments
                        .iter()
                        .map(|s| pick(&s.stretch, scaled))
                        .collect()
                })
                .collect()
        };
        let (wall, cpu) = (per_segment(Stretch::wall_s), per_segment(Stretch::cpu_s));
        let typical_wall_s: f64 = typical(&wall).iter().sum();
        let typical_cpu_s: f64 = typical(&cpu).iter().sum();
        // Per-trial totals, for the MADs.
        let qps: Vec<f64> = wall
            .iter()
            .map(|row| queries / row.iter().sum::<f64>())
            .collect();
        let cpu_ms: Vec<f64> = cpu
            .iter()
            .map(|row| row.iter().sum::<f64>() * 1e3 / queries)
            .collect();
        let host_ms: Vec<Vec<f64>> = self.trials.iter().map(|t| t.host_ms(scaled)).collect();
        let host_ms = typical(&host_ms);
        let setup_s: Vec<f64> = self.setups.iter().map(|s| s.wall_s(scaled)).collect();
        let restart_s: Vec<f64> = self
            .restart
            .passes
            .iter()
            .map(|p| p.wall_s(scaled))
            .collect();
        [
            (median(&setup_s), mad(&setup_s), setup_s.len()),
            (queries / typical_wall_s, mad(&qps), qps.len()),
            (typical_cpu_s * 1e3 / queries, mad(&cpu_ms), cpu_ms.len()),
            (percentile(&host_ms, 0.50), mad(&host_ms), host_ms.len()),
            (percentile(&host_ms, 0.95), mad(&host_ms), host_ms.len()),
            (median(&restart_s), mad(&restart_s), restart_s.len()),
        ]
    }

    fn queries_per_trial(&self) -> f64 {
        self.trials
            .first()
            .map_or(1.0, |t| t.samples.len().max(1) as f64)
    }

    /// The end-to-end metrics, in catalogue order.
    pub fn end_to_end(&self) -> Vec<Measured> {
        let (scaled, raw) = (self.host_times(true), self.host_times(false));
        let [setup, qps, cpu, p50, p95, restart] =
            std::array::from_fn(|i| (scaled[i].0, Some(raw[i].0), scaled[i].1, scaled[i].2));

        // The trials of a run agree on their digest, so what the virtual
        // clock decided is read from the first: the same sum in the same
        // order however many trials the run had time for.
        let first = self.trials.first().map_or(&[][..], |t| &t.samples[..]);
        let virt: Vec<f64> = first.iter().map(|s| s.virt_s).collect();
        let usd: f64 = first.iter().map(|s| s.usd).sum();
        let values = [
            setup,
            qps,
            cpu,
            p50,
            p95,
            (self.peak_rss_mib, None, 0.0, 1),
            (
                1.0 - self.failed() as f64 / self.attempted().max(1) as f64,
                None,
                0.0,
                self.attempted() as usize,
            ),
            (usd / first.len().max(1) as f64, None, 0.0, first.len()),
            (percentile(&virt, 0.95), None, mad(&virt), virt.len()),
            (
                self.restart.durable_bytes as f64 / self.queries_per_trial(),
                None,
                0.0,
                1,
            ),
            restart,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(def, (value, raw, mad, samples))| Measured {
                name: def.name,
                unit: def.unit,
                value,
                raw,
                mad,
                samples,
            })
            .collect()
    }

    /// The printed-but-ungated tail: p99 and max of the pooled per-query
    /// host times, as the clock read them.
    pub fn host_tail_ms(&self) -> (f64, f64, usize) {
        let host: Vec<f64> = self
            .trials
            .iter()
            .flat_map(|t| t.samples.iter().map(|s| s.host_ms))
            .collect();
        (percentile(&host, 0.99), percentile(&host, 1.0), host.len())
    }

    /// Median seconds of one reference run across the timed regions: how
    /// fast the host was, next to [`crate::reference::REFERENCE_S`].
    pub fn reference_s(&self) -> f64 {
        let all: Vec<f64> = self
            .trials
            .iter()
            .flat_map(|t| t.segments.iter().map(|s| s.stretch.reference_s))
            .collect();
        median(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::REFERENCE_S;
    use crate::source::QuerySample;
    use crate::trial::Segment;

    /// A stretch read on a host running the reference `slow` times
    /// slower than nominal.
    fn stretch(wall_s: f64, slow: f64) -> Stretch {
        Stretch {
            wall_s,
            cpu_s: wall_s / 2.0,
            reference_s: slow * REFERENCE_S,
        }
    }

    /// A trial of two one-query segments.
    fn trial(wall_s: [f64; 2], host_ms: [f64; 2], slow: f64, digest: u64) -> Trial {
        Trial {
            setup: stretch(slow, slow),
            segments: wall_s
                .iter()
                .map(|&wall_s| Segment {
                    stretch: stretch(wall_s, slow),
                    queries: 1,
                })
                .collect(),
            attempted: 2,
            samples: host_ms
                .iter()
                .map(|&host_ms| QuerySample {
                    host_ms,
                    virt_s: 2.0,
                    usd: 0.5,
                    ok: true,
                })
                .collect(),
            digest,
            ..Trial::default()
        }
    }

    fn value(m: &[Measured], name: &str) -> f64 {
        m.iter().find(|x| x.name == name).unwrap().value
    }

    #[test]
    fn host_metrics_take_each_unit_of_work_at_its_median_across_trials() {
        let run = RunResult {
            trials: vec![
                trial([1.0, 2.0], [1.0, 20.0], 1.0, 7),
                trial([9.0, 4.0], [3.0, 40.0], 1.0, 7),
                trial([3.0, 3.0], [500.0, 30.0], 1.0, 7),
            ],
            setups: vec![stretch(1.0, 1.0), stretch(5.0, 1.0), stretch(2.0, 1.0)],
            restart: Restart {
                durable_bytes: 600,
                passes: vec![
                    stretch(0.3, 1.0),
                    stretch(0.1, 1.0),
                    stretch(0.2, 1.0),
                    stretch(0.4, 1.0),
                ],
                ..Restart::default()
            },
            peak_rss_mib: 64.0,
        };
        assert!(run.failures().is_empty());
        let m = run.end_to_end();
        assert_eq!(value(&m, "setup_s"), 2.0);
        // Segment medians are {3, 3}: the 9-second stall moves nothing.
        assert_eq!(value(&m, "host_qps"), 2.0 / 6.0);
        assert_eq!(value(&m, "cpu_ms_per_query"), 1500.0);
        // Per-query medians are {3, 30}: the 500 ms outlier is one trial's.
        assert_eq!(value(&m, "host_ms_p50"), 3.0);
        assert_eq!(value(&m, "host_ms_p95"), 30.0);
        assert_eq!(value(&m, "ok_share"), 1.0);
        assert_eq!(value(&m, "usd_per_query"), 0.5);
        assert_eq!(value(&m, "virt_s_p95"), 2.0);
        assert_eq!(value(&m, "durable_bytes_per_query"), 300.0);
        assert_eq!(value(&m, "restart_s"), 0.25);
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(run.host_tail_ms(), (500.0, 500.0, 6));
        // At the nominal reference the scaled and raw readings agree.
        assert!(m.iter().all(|x| x.raw.is_none_or(|raw| raw == x.value)));
        assert_eq!(run.reference_s(), REFERENCE_S);
    }

    #[test]
    fn a_slow_host_reads_the_same_once_scaled_to_the_reference() {
        let run = |slow: f64| RunResult {
            trials: vec![trial([slow, 2.0 * slow], [4.0 * slow, 8.0 * slow], slow, 7)],
            setups: vec![stretch(slow, slow)],
            restart: Restart {
                passes: vec![stretch(0.2 * slow, slow)],
                ..Restart::default()
            },
            peak_rss_mib: 1.0,
        };
        // The same work on a host twice as slow: every clock reading
        // doubles, and so does the reference next to it.
        let (q, s) = (run(1.0).end_to_end(), run(2.0).end_to_end());
        for name in [
            "setup_s",
            "host_qps",
            "cpu_ms_per_query",
            "host_ms_p50",
            "host_ms_p95",
            "restart_s",
        ] {
            assert!((value(&q, name) - value(&s, name)).abs() < 1e-12, "{name}");
        }
        let raw = |m: &[Measured], name: &str| m.iter().find(|x| x.name == name).unwrap().raw;
        assert_eq!(raw(&s, "host_ms_p50"), Some(8.0));
        assert_eq!(raw(&q, "host_ms_p50"), Some(4.0));
        assert_eq!(raw(&s, "usd_per_query"), None);
    }

    #[test]
    fn a_wrong_answer_or_a_diverging_trial_fails_the_run() {
        let mut bad = trial([1.0, 1.0], [1.0, 2.0], 1.0, 7);
        bad.samples[1].ok = false;
        let run = RunResult {
            trials: vec![bad, trial([1.0, 1.0], [1.0, 2.0], 1.0, 8)],
            setups: Vec::new(),
            restart: Restart::default(),
            peak_rss_mib: 1.0,
        };
        assert_eq!(run.attempted(), 4);
        assert_eq!(run.failed(), 1);
        let failures = run.failures();
        assert!(failures.iter().any(|f| f.contains("digest")));
        assert!(failures.iter().any(|f| f.contains("1 of 4 queries failed")));
        assert_eq!(value(&run.end_to_end(), "ok_share"), 0.75);
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END[0];
        assert_eq!(setup.name, "setup_s");
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }
}
