//! What every workload produces, and the pieces they share: sizes,
//! scratch directories, the trial digest, and the counts read from the
//! program's own exports.

use crate::host::Mark;
use crate::reference;
use crate::source::QuerySample;
use crate::spans::SpanLog;
use aida_core::Runtime;
use aida_llm::snapshot::fnv64;
use aida_obs::SpanKind;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Per-layer counts of one trial, keyed by metric name. Exact-repeating
/// at a fixed seed.
pub type Counts = BTreeMap<&'static str, f64>;

/// A stretch of host time with the reference timed right after it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stretch {
    pub wall_s: f64,
    /// Process user+sys CPU seconds, every thread.
    pub cpu_s: f64,
    /// What one [`reference::run`] took when the stretch ended.
    pub reference_s: f64,
}

impl Stretch {
    /// Closes the stretch `mark` opened: reads the clocks, then takes a
    /// settled reading of the reference.
    pub fn since(mark: &Mark) -> Stretch {
        let (wall_s, cpu_s) = mark.elapsed();
        Stretch {
            wall_s,
            cpu_s,
            reference_s: reference::settled(),
        }
    }

    /// Wall seconds, as the clock read them (`false`) or on a host that
    /// runs the reference at its nominal speed (`true`).
    pub fn wall_s(&self, scaled: bool) -> f64 {
        if scaled {
            reference::scaled(self.wall_s, self.reference_s)
        } else {
            self.wall_s
        }
    }

    /// CPU seconds, likewise.
    pub fn cpu_s(&self, scaled: bool) -> f64 {
        if scaled {
            reference::scaled(self.cpu_s, self.reference_s)
        } else {
            self.cpu_s
        }
    }
}

/// A stretch of the timed region holding a fixed number of completed
/// queries. Every trial of a run replays the same requests, so segment
/// `k` is the same work in each of them; a run with several trials
/// builds its throughput and CPU cost from the median, across trials,
/// of each segment, so a slow spell spoils the segments it hits in one
/// trial, not the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub stretch: Stretch,
    pub queries: u64,
}

/// Cuts a timed region into [`Segment`]s as queries complete. The
/// reference runs between segments, off every segment's clock.
#[derive(Debug)]
pub struct Segmenter {
    every: u64,
    mark: Mark,
    pending: u64,
    segments: Vec<Segment>,
}

impl Segmenter {
    /// Starts the clock; a segment closes after `every` queries.
    pub fn start(every: usize) -> Segmenter {
        Segmenter {
            every: every.max(1) as u64,
            mark: Mark::now(),
            pending: 0,
            segments: Vec::new(),
        }
    }

    /// Counts one completed query; true when that closed a segment (and
    /// so ran the reference before returning).
    pub fn query_done(&mut self) -> bool {
        self.pending += 1;
        let full = self.pending == self.every;
        if full {
            self.close();
        }
        full
    }

    fn close(&mut self) {
        let (wall_s, cpu_s) = self.mark.elapsed();
        self.segments.push(Segment {
            stretch: Stretch {
                wall_s,
                cpu_s,
                reference_s: reference::run(),
            },
            queries: std::mem::take(&mut self.pending),
        });
        self.mark = Mark::now();
    }

    /// Stops the clock. Queries after the last full segment make a short
    /// segment of their own; an end-of-run flush with no query in it
    /// joins the segment before it.
    pub fn finish(mut self) -> Vec<Segment> {
        self.close();
        if self.segments.len() > 1 && self.segments.last().is_some_and(|s| s.queries == 0) {
            let flush = self.segments.pop().expect("just checked");
            let last = &mut self.segments.last_mut().expect("more than one").stretch;
            // Charged at the segment's own reference, so the scaled sum
            // stays a plain sum.
            last.wall_s += flush.stretch.wall_s;
            last.cpu_s += flush.stretch.cpu_s;
        }
        self.segments
    }
}

/// One trial: a from-scratch build (with an untimed warm-up where the
/// workload has one), then a fixed amount of timed work.
#[derive(Debug, Default)]
pub struct Trial {
    /// Data synthesis + runtime/Context/index build + registration +
    /// warm-up.
    pub setup: Stretch,
    /// The timed region, in order.
    pub segments: Vec<Segment>,
    /// Queries submitted in the timed region.
    pub attempted: u64,
    /// One sample per completed query, in completion order.
    pub samples: Vec<QuerySample>,
    /// Hash of everything the trial decided: answers, dollar bits,
    /// virtual-second bits, the service report.
    pub digest: u64,
    pub counts: Counts,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
}

impl Trial {
    pub fn ok_queries(&self) -> u64 {
        self.samples.iter().filter(|s| s.ok).count() as u64
    }

    /// Per-query host milliseconds in completion order; `scaled` charges
    /// each query at the reference of the segment it completed in.
    pub fn host_ms(&self, scaled: bool) -> Vec<f64> {
        let mut samples = self.samples.iter();
        let mut out = Vec::with_capacity(self.samples.len());
        for segment in &self.segments {
            for sample in samples.by_ref().take(segment.queries as usize) {
                out.push(if scaled {
                    reference::scaled(sample.host_ms, segment.stretch.reference_s)
                } else {
                    sample.host_ms
                });
            }
        }
        out
    }

    /// One trial out of the parts its services served one after another:
    /// segments and samples in serving order, the digests folded, the
    /// counts combined by [`combined_count`]. The set-up is the caller's
    /// to fill in.
    pub fn joined(parts: Vec<Trial>) -> Trial {
        let mut digest = Digest::default();
        let mut names: BTreeSet<&'static str> = BTreeSet::new();
        for part in &parts {
            digest.word(part.digest);
            names.extend(part.counts.keys());
        }
        let counts = names
            .into_iter()
            .map(|name| {
                let values: Vec<f64> = parts
                    .iter()
                    .map(|p| p.counts.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name, combined_count(name, &values))
            })
            .collect();
        let mut trial = Trial {
            digest: digest.finish(),
            counts,
            ..Trial::default()
        };
        for part in parts {
            trial.segments.extend(part.segments);
            trial.attempted += part.attempted;
            trial.samples.extend(part.samples);
            trial.failures.extend(part.failures);
        }
        trial
    }

    /// Wall seconds of the timed region, as the clock read them.
    pub fn wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.stretch.wall_s).sum()
    }

    /// Wall seconds of the timed region, each segment scaled to the
    /// reference.
    pub fn scaled_wall_s(&self) -> f64 {
        self.segments.iter().map(|s| s.stretch.wall_s(true)).sum()
    }
}

/// A per-layer count of a trial, from the same count of each service
/// the trial ran: totals add up, a `_max` is the largest, and what is
/// already a rate of one service (`_ratio`, `_share`, `_per_query`,
/// `_per_call`, `_p95`) is averaged — the services of a trial serve
/// equally many requests.
pub fn combined_count(name: &str, values: &[f64]) -> f64 {
    const RATES: [&str; 5] = ["_ratio", "_share", "_per_query", "_per_call", "_p95"];
    if name.ends_with("_max") {
        values.iter().copied().fold(0.0, f64::max)
    } else if RATES.iter().any(|suffix| name.ends_with(suffix)) {
        values.iter().sum::<f64>() / values.len().max(1) as f64
    } else {
        values.iter().sum()
    }
}

/// The end-of-run save + crash-stop + restart passes.
#[derive(Debug, Default)]
pub struct Restart {
    /// Bytes in the durable directory after the final save.
    pub durable_bytes: u64,
    /// Each rebuild-and-recover pass.
    pub passes: Vec<Stretch>,
    pub counts: Counts,
    pub failures: Vec<String>,
}

impl Restart {
    /// Times one rebuild-and-recover pass, made of `parts` restarts one
    /// after another, with a settled reference reading before the first
    /// and after each. A part is charged the mean of the readings either
    /// side of it: the host changes speed every second or so, and a
    /// stretch of a few hundred milliseconds often straddles a change
    /// that one reading would miss. (A pass of four services, a second
    /// long and charged its two end readings, spread 20% over ten seeds
    /// while the clock's own readings of it spread 6%.) The pass's
    /// `reference_s` is the one reading that scales the whole pass to the
    /// sum of its scaled parts.
    pub fn timed_pass<T>(&mut self, parts: usize, mut part: impl FnMut(usize) -> T) -> Vec<T> {
        let mut before = reference::settled();
        let (mut wall_s, mut cpu_s, mut in_references) = (0.0, 0.0, 0.0);
        let mut out = Vec::with_capacity(parts);
        for k in 0..parts {
            let mark = Mark::now();
            out.push(part(k));
            let (wall, cpu) = mark.elapsed();
            let after = reference::settled();
            wall_s += wall;
            cpu_s += cpu;
            in_references += wall / ((before + after) / 2.0);
            before = after;
        }
        self.passes.push(Stretch {
            wall_s,
            cpu_s,
            reference_s: wall_s / in_references,
        });
        out
    }

    /// Whether another rebuild-and-recover pass is due: always
    /// `min_passes`, then more while they are cheap — up to 25 inside a
    /// second — because the median of five 2 ms restarts read 1.8 to
    /// 3.8 ms over ten runs of `live_point`. The replay workloads, whose
    /// pass restarts four services and takes a second, stop at
    /// `min_passes`.
    pub fn wants_pass(&self, min_passes: usize) -> bool {
        let spent_s: f64 = self.passes.iter().map(|p| p.wall_s).sum();
        self.passes.len() < min_passes || (self.passes.len() < 25 && spent_s < 1.0)
    }
}

/// A benchmark workload. `trial` may be called repeatedly; each call
/// starts from nothing. `setup` does a trial's set-up alone and throws
/// the result away. `restart` saves the last trial's state, drops it
/// (crash-stop) and times rebuilding from the files.
pub trait Workload {
    fn setup(&mut self, log: &mut SpanLog) -> Stretch;
    fn trial(&mut self, log: &mut SpanLog) -> Trial;
    fn restart(&mut self, log: &mut SpanLog) -> Restart;
}

/// How much work a trial does. `full` is the benchmark; `smoke` only
/// proves the wiring.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `cold_scan`: lake seeds `S..S+lakes`, iterations round-robin.
    pub cold_lakes: u64,
    pub cold_iterations: usize,
    /// Completed queries per timed segment, by workload.
    pub cold_segment: usize,
    pub serve_segment: usize,
    pub live_segment: usize,
    /// `warm_serve` / `durable_serve`: services per trial, one per lake
    /// pair `S..S+serve_lakes`, and requests replayed by all of them
    /// together.
    pub serve_lakes: u64,
    pub serve_requests: usize,
    /// `live_point`: closed-loop clients (4 queries each), untimed then
    /// timed. One warm-up client asks about four of the eight years, so
    /// the other four are first asked — and billed — in the timed region.
    pub live_warm_clients: usize,
    pub live_clients: usize,
    /// Rebuild-and-recover passes, at least (see [`Restart::wants_pass`]).
    pub restart_passes: usize,
    /// Timed batches per rung in `layers`.
    pub rung_batches: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            cold_lakes: 4,
            cold_iterations: 48,
            cold_segment: 8,
            serve_segment: 32,
            live_segment: 200,
            serve_lakes: 4,
            serve_requests: 1024,
            live_warm_clients: 1,
            live_clients: 1000,
            restart_passes: 3,
            rung_batches: 30,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            cold_lakes: 1,
            cold_iterations: 1,
            cold_segment: 2,
            serve_segment: 8,
            live_segment: 12,
            serve_lakes: 2,
            serve_requests: 24,
            live_warm_clients: 1,
            live_clients: 6,
            restart_passes: 1,
            rung_batches: 3,
        }
    }
}

/// A directory under the build's target directory that one run owns and
/// removes when it ends. The benchmark may only write inside its
/// checkout, and the target directory is the one place there that is
/// never committed.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

/// Where scratch directories go: beside the running binary, which is
/// inside the target directory however the build was invoked.
pub fn scratch_base() -> PathBuf {
    if let Ok(dir) = std::env::var("PERF_SCRATCH_DIR") {
        return PathBuf::from(dir);
    }
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let root = scratch_base()
            .join("perf_scratch")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch directory");
        Scratch { root, next: 0 }
    }

    /// A fresh, empty subdirectory; the previous one is removed, so its
    /// unwritten pages are dropped instead of flushed behind the next
    /// trial's back.
    pub fn fresh(&mut self) -> PathBuf {
        if self.next > 0 {
            let _ = std::fs::remove_dir_all(self.root.join(format!("t{}", self.next - 1)));
        }
        let dir = self.root.join(format!("t{}", self.next));
        self.next += 1;
        std::fs::create_dir_all(&dir).expect("create trial directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Total size of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Folds the parts of a trial's outcome into one number. Two trials of
/// one workload at one seed must agree on it.
#[derive(Debug, Default)]
pub struct Digest {
    bytes: Vec<u8>,
}

impl Digest {
    pub fn text(&mut self, s: &str) {
        self.bytes
            .extend_from_slice(&(s.len() as u64).to_le_bytes());
        self.bytes.extend_from_slice(s.as_bytes());
    }

    pub fn bits(&mut self, x: f64) {
        self.bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    pub fn flag(&mut self, b: bool) {
        self.bytes.push(u8::from(b));
    }

    pub fn word(&mut self, x: u64) {
        self.bytes.extend_from_slice(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        fnv64(&self.bytes)
    }
}

/// Names the trials that disagree with the first on their digest.
pub fn digest_mismatches(digests: &[u64]) -> Vec<usize> {
    digests
        .iter()
        .enumerate()
        .filter(|(_, d)| **d != digests[0])
        .map(|(i, _)| i)
        .collect()
}

/// Counts the traced run reads from the obs span tree and registry:
/// what each layer did, as the program itself recorded it. Empty when
/// the runtime was built without tracing.
pub fn obs_counts(rt: &Runtime, queries: u64, counts: &mut Counts) {
    if !rt.recorder().is_enabled() {
        return;
    }
    let trace = rt.recorder().trace();
    let (mut rows_in, mut rows_out, mut op_calls) = (0u64, 0u64, 0u64);
    let (mut steps, mut rejects, mut sample_calls, mut events) = (0u64, 0u64, 0u64, 0u64);
    let mut programs_run = 0u64;
    let mut programs = BTreeSet::new();
    for span in &trace.spans {
        events += span.events.len() as u64;
        match span.kind {
            SpanKind::PhysicalOp => {
                rows_in += span.rows_in.unwrap_or(0) as u64;
                rows_out += span.rows_out.unwrap_or(0) as u64;
                op_calls += span.calls;
            }
            SpanKind::AgentStep => {
                steps += 1;
                for (key, value) in &span.attrs {
                    match key.as_str() {
                        "rejected" => rejects += 1,
                        "code" => {
                            programs.insert(value.clone());
                        }
                        _ => {}
                    }
                }
            }
            // Calls billed while a program span is innermost are the
            // optimizer's sampling calls; execution bills its operators.
            SpanKind::Program => {
                programs_run += 1;
                sample_calls += span.calls;
            }
            _ => {}
        }
    }
    let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0) as f64;
    counts.insert("semops.records_in", rows_in as f64);
    counts.insert("semops.records_out", rows_out as f64);
    counts.insert("semops.llm_calls", op_calls as f64);
    counts.insert(
        "semops.coalesced",
        counter(aida_obs::registry::CACHE_COALESCED),
    );
    counts.insert(
        "agents.steps_per_query",
        steps as f64 / queries.max(1) as f64,
    );
    counts.insert("agents.static_rejects", rejects as f64);
    counts.insert("script.programs_distinct", programs.len() as f64);
    counts.insert("optimizer.programs", programs_run as f64);
    counts.insert("optimizer.sample_llm_calls", sample_calls as f64);
    counts.insert(
        "sql.statements",
        counter(aida_obs::registry::SQL_STATEMENTS),
    );
    counts.insert(
        "core.checkpoints",
        counter(aida_obs::registry::CHECKPOINT_SAVES),
    );
    counts.insert(
        "core.checkpoint_bytes",
        counter(aida_obs::registry::CHECKPOINT_BYTES),
    );
    counts.insert("obs.spans", trace.spans.len() as f64);
    counts.insert("obs.events", (events + trace.orphans.len() as u64) as f64);
}

/// The runtime-side readings a timed region starts from, so its counts
/// can be taken as differences: the meter, the semantic cache and the
/// Context store.
pub struct RuntimeBefore {
    usage: aida_llm::UsageSnapshot,
    cache: Option<aida_llm::CacheStats>,
    reuse: (u64, u64),
    evictions: u64,
}

impl RuntimeBefore {
    pub fn read(rt: &Runtime) -> RuntimeBefore {
        RuntimeBefore {
            usage: rt.usage(),
            cache: rt.cache_stats(),
            reuse: rt.reuse_stats(),
            evictions: rt.manager().evictions(),
        }
    }

    /// The `llm.*` and `core.*` counts of the region that took `wall_s`.
    pub fn counts_since(&self, rt: &Runtime, wall_s: f64, counts: &mut Counts) {
        let ratio = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        let usage = rt.usage().delta_since(&self.usage);
        let (tokens_in, tokens_out) = usage.per_model().values().fold((0, 0), |(i, o), u| {
            (i + u.input_tokens, o + u.output_tokens)
        });
        let cache = match (rt.cache_stats(), &self.cache) {
            (Some(after), Some(before)) => after.delta_since(before),
            (Some(after), None) => after,
            _ => aida_llm::CacheStats::default(),
        };
        // With a cache every call is a lookup; without one every call bills.
        let calls = if rt.semantic_cache().is_some() {
            cache.lookups()
        } else {
            usage.total_calls()
        };
        counts.insert("llm.calls", calls as f64);
        counts.insert("llm.tokens_in", tokens_in as f64);
        counts.insert("llm.tokens_out", tokens_out as f64);
        counts.insert("llm.cache_hits", (cache.hits + cache.coalesced) as f64);
        counts.insert("llm.cache_misses", cache.misses as f64);
        counts.insert("llm.cache_hit_ratio", cache.hit_rate());
        counts.insert("llm.cache_evictions", cache.evictions as f64);
        counts.insert(
            "llm.cache_bytes",
            rt.cache_stats().map_or(0.0, |s| s.bytes as f64),
        );
        counts.insert(
            "llm.host_us_per_call",
            if calls == 0 {
                0.0
            } else {
                wall_s * 1e6 / calls as f64
            },
        );
        let (hits, misses) = rt.reuse_stats();
        let (hits, misses) = (hits - self.reuse.0, misses - self.reuse.1);
        counts.insert("core.reuse_hits", hits as f64);
        counts.insert("core.reuse_misses", misses as f64);
        counts.insert("core.reuse_hit_ratio", ratio(hits, hits + misses));
        counts.insert(
            "core.evictions",
            (rt.manager().evictions() - self.evictions) as f64,
        );
        counts.insert("core.contexts_resident", rt.manager().len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_their_parts() {
        let mut a = Digest::default();
        a.text("ab");
        a.text("c");
        let mut b = Digest::default();
        b.text("a");
        b.text("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = Digest::default();
        c.bits(0.0);
        let mut d = Digest::default();
        d.bits(-0.0);
        assert_ne!(c.finish(), d.finish(), "compared by bits, not by value");
    }

    #[test]
    fn a_joined_trial_adds_totals_and_averages_rates() {
        let part = |digest, admitted, ratio, depth| Trial {
            attempted: 2,
            digest,
            counts: Counts::from([
                ("serve.admitted", admitted),
                ("llm.cache_hit_ratio", ratio),
                ("serve.queue_depth_max", depth),
            ]),
            failures: vec![format!("part {digest}")],
            ..Trial::default()
        };
        let joined = Trial::joined(vec![part(1, 10.0, 0.5, 3.0), part(2, 30.0, 1.0, 2.0)]);
        assert_eq!(joined.attempted, 4);
        assert_eq!(joined.counts["serve.admitted"], 40.0);
        assert_eq!(joined.counts["llm.cache_hit_ratio"], 0.75);
        assert_eq!(joined.counts["serve.queue_depth_max"], 3.0);
        assert_eq!(joined.failures, ["part 1", "part 2"]);
        let swapped = Trial::joined(vec![part(2, 30.0, 1.0, 2.0), part(1, 10.0, 0.5, 3.0)]);
        assert_ne!(
            joined.digest, swapped.digest,
            "the order of the parts counts"
        );
        for rate in [
            "serve.wal.fsyncs_per_query",
            "llm.host_us_per_call",
            "serve.source_busy_share",
            "serve.queue_wait_virt_s_p95",
        ] {
            assert_eq!(combined_count(rate, &[1.0, 3.0]), 2.0, "{rate}");
        }
    }

    #[test]
    fn mismatching_trials_are_named() {
        assert!(digest_mismatches(&[7, 7, 7]).is_empty());
        assert_eq!(digest_mismatches(&[7, 8, 7, 9]), vec![1, 3]);
        assert!(digest_mismatches(&[]).is_empty());
    }
}
