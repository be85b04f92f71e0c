//! `live_point`: the same `serve` layer used the other way round. A
//! closed-loop fleet asks point questions of a tiny key-indexed Context
//! over the simulated wire, so each request does almost no engine work
//! and the front door — wire codec, `Listener::turn`, admission queue,
//! autoscaler, settle — and the per-step Pyrite pipeline dominate.

use crate::host::Mark;
use crate::served::{
    register_tenants, restart_passes, runtime_builder, serve_config, timed_serve, Survives, TENANTS,
};
use crate::spans::SpanLog;
use crate::trial::{
    dir_bytes, obs_counts, Digest, Restart, Scratch, Sizes, Stretch, Trial, Workload,
};
use aida_core::{Context, Runtime};
use aida_data::{DataLake, Document, Value};
use aida_llm::noise::{self, KeyedRng};
use aida_serve::{AutoscaleConfig, ClientConfig, LiveSource, QueryService};
use std::path::{Path, PathBuf};

const FIRST_YEAR: u64 = 2001;
const YEARS: u64 = 8;
const QUERIES_PER_CLIENT: usize = 4;

/// Eight one-line documents, one per year, each reachable by its year
/// as a key; the counts come from the seed. The count leads the line
/// because the simulator's extractor reads the first number, and it
/// never contains "20" so no count can be mistaken for a year. The
/// documents are labelled trivially easy: a point lookup is not where
/// the simulated models err.
pub fn point_lake(seed: u64) -> Vec<(Document, i64)> {
    let mut rng = KeyedRng::new(noise::combine(&[noise::hash_str("perf.live_point"), seed]));
    (FIRST_YEAR..FIRST_YEAR + YEARS)
        .map(|year| {
            let reports = loop {
                let n = rng.range_i64(100_000, 999_999);
                if !n.to_string().contains("20") {
                    break n;
                }
            };
            let doc = Document::new(
                format!("identity_theft_{year}.txt"),
                format!("{reports} identity theft reports in {year}"),
            )
            .with_label("difficulty", 0.0);
            (doc, reports)
        })
        .collect()
}

/// The point Context over `lake`: every document reachable by its year.
pub fn point_context(rt: &Runtime, lake: &[(Document, i64)]) -> Context {
    let docs = lake.iter().map(|(doc, _)| doc.clone());
    let mut builder = Context::builder("reports", DataLake::from_docs(docs))
        .description("national identity theft report counts, one file per year");
    for (year, (doc, _)) in (FIRST_YEAR..).zip(lake) {
        builder = builder.key(year.to_string(), doc.name.clone());
    }
    builder.build(rt)
}

/// Question `i` of the endless round over the eight years.
pub fn point_instruction(i: u64) -> String {
    format!(
        "find the number of identity theft reports in {}",
        FIRST_YEAR + i % YEARS
    )
}

/// Client `i` connects 0.5 s after client `i − 1` and asks about four
/// consecutive years starting at its own offset, thinking 5 s between
/// answers; repeat questions ride the plan-hash path.
fn fleet(clients: usize) -> Vec<ClientConfig> {
    (0..clients)
        .map(|i| {
            let years = (0..QUERIES_PER_CLIENT as u64).map(|q| point_instruction(i as u64 + q));
            ClientConfig::new(TENANTS[i % TENANTS.len()], "reports")
                .instructions(years)
                .queries(QUERIES_PER_CLIENT)
                .think(5.0)
                .start(i as f64 * 0.5)
        })
        .collect()
}

pub struct LivePoint {
    seed: u64,
    sizes: Sizes,
    scratch: Scratch,
    last: Option<(QueryService, PathBuf, Vec<Option<Value>>)>,
}

impl LivePoint {
    pub fn new(seed: u64, sizes: Sizes) -> LivePoint {
        LivePoint {
            seed,
            sizes,
            scratch: Scratch::new("live_point"),
            last: None,
        }
    }

    fn build(
        &self,
        lake: &[(Document, i64)],
        dir: &Path,
        tracing: bool,
        log: &mut SpanLog,
        phase: [&'static str; 2],
    ) -> (QueryService, Context) {
        let span = log.open(phase[0], None);
        // Reuse by instruction similarity would narrow "... in 2002" to
        // the one document "... in 2001" found; a point Context is read
        // by key, not by what the last question touched.
        let rt = runtime_builder(self.seed, dir, tracing)
            .context_reuse(false)
            .build();
        log.close(span);
        let span = log.open(phase[1], None);
        let ctx = point_context(&rt, lake);
        log.close(span);
        // Tight enough that the connect ramp (about 8 queries/s against
        // 0.25 virtual seconds each) makes the controller move.
        let autoscale = AutoscaleConfig::new(1, 8, 5.0)
            .evaluate_every(10.0)
            .window(60.0)
            .cooldown(20.0);
        let mut config = serve_config().autoscale(autoscale).queue_capacity(256);
        config.workers = 2;
        let mut svc = QueryService::new(rt, config);
        svc.register_context("reports", ctx.clone());
        register_tenants(&mut svc);
        (svc, ctx)
    }
}

/// The simulated models err now and then even on a trivially easy
/// line, so a seed may read one count wrong; two would be a defect.
const MIN_RIGHT_ANSWERS: usize = YEARS as usize - 2;

/// Asks every point question once, directly. A `Completion` only says
/// *that* a query was answered, so each trial ends with this probe and
/// folds the answers into its digest; after the restart the answers
/// must come back the same, and at least [`MIN_RIGHT_ANSWERS`] of them
/// must be the seeded counts.
fn probe(rt: &Runtime, ctx: &Context) -> Vec<Option<Value>> {
    (0..YEARS)
        .map(|i| rt.query(ctx).compute(point_instruction(i)).run().answer)
        .collect()
}

impl LivePoint {
    /// Everything before the timed region: the lake, the service, the
    /// warm-up client. The flag says whether the warm-up completed.
    fn set_up(&mut self, log: &mut SpanLog) -> (Stretch, QueryService, Context, PathBuf, bool) {
        self.last = None;
        let dir = self.scratch.fresh();
        let mark = Mark::now();
        let span = log.open("setup.synth", None);
        let lake = point_lake(self.seed);
        log.close(span);
        let (mut svc, ctx) = self.build(
            &lake,
            &dir,
            log.is_enabled(),
            log,
            ["setup.runtime_build", "setup.context_build"],
        );
        let span = log.open("setup.warmup", None);
        let mut warm_source = LiveSource::new(self.seed, fleet(self.sizes.live_warm_clients));
        let warm = svc.serve(&mut warm_source);
        log.close(span);
        let warmed = warm.completions.len() == self.sizes.live_warm_clients * QUERIES_PER_CLIENT;
        (Stretch::since(&mark), svc, ctx, dir, warmed)
    }
}

impl Workload for LivePoint {
    fn setup(&mut self, log: &mut SpanLog) -> Stretch {
        self.set_up(log).0
    }

    fn trial(&mut self, log: &mut SpanLog) -> Trial {
        let (setup, mut svc, ctx, dir, warmed) = self.set_up(log);
        let mut source = LiveSource::new(self.seed, fleet(self.sizes.live_clients));
        let (mut trial, report) = timed_serve(&mut svc, &mut source, log, self.sizes.live_segment);
        trial.setup = setup;
        // Closed loop: what the fleet wanted is what was attempted, so a
        // client that gave up early shows as failed queries.
        trial.attempted = (self.sizes.live_clients * QUERIES_PER_CLIENT) as u64;
        if !warmed {
            trial
                .failures
                .push("the warm-up fleet did not complete".to_string());
        }
        let unfinished = source
            .outcomes()
            .iter()
            .filter(|o| o.kind() != "completed")
            .count();
        if unfinished > 0 {
            trial.failures.push(format!(
                "{unfinished} clients did not complete their session"
            ));
        }
        let wire_errors = report.net.map_or(0, |n| n.stats.wire_error_total());
        if wire_errors > 0 {
            trial.failures.push(format!("{wire_errors} wire errors"));
        }
        obs_counts(svc.runtime(), trial.samples.len() as u64, &mut trial.counts);
        let answers = probe(svc.runtime(), &ctx);
        let mut digest = Digest::default();
        digest.word(trial.digest);
        digest.text(&format!("{answers:?}"));
        trial.digest = digest.finish();
        self.last = Some((svc, dir, answers));
        trial
    }

    fn restart(&mut self, log: &mut SpanLog) -> Restart {
        let (svc, dir, answers) = self.last.take().expect("restart follows a trial");
        let span = log.open("save_state", None);
        svc.runtime().save_state().expect("final state save");
        log.close(span);
        let span = log.open("save_cache", None);
        svc.runtime().save_cache().expect("final cache save");
        log.close(span);
        let survives = [Survives {
            spends: None,
            contexts: svc.runtime().manager().len(),
        }];
        drop(svc);
        let durable_bytes = dir_bytes(&dir);

        let lake = point_lake(self.seed);
        let mut last_ctx = None;
        let (mut restart, last) =
            restart_passes(self.sizes.restart_passes, log, &survives, |_, log| {
                let (svc, ctx) = self.build(
                    &lake,
                    &dir,
                    false,
                    log,
                    ["restart.build", "restart.context_build"],
                );
                last_ctx = Some(ctx);
                svc
            });
        if let (Some(svc), Some(ctx)) = (last.first(), last_ctx) {
            if probe(svc.runtime(), &ctx) != answers {
                restart.failures.push(
                    "the restarted service answers the point questions differently".to_string(),
                );
            }
        }
        let right = answers
            .iter()
            .zip(&lake)
            .filter(|(answer, (_, reports))| **answer == Some(Value::Int(*reports)))
            .count();
        if right < MIN_RIGHT_ANSWERS {
            restart.failures.push(format!(
                "only {right} of {YEARS} point answers match the lake: {answers:?}"
            ));
        }
        restart.durable_bytes = durable_bytes;
        restart
    }
}
