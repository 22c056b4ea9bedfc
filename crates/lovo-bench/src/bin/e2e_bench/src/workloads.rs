//! The four workloads: set-up, the untraced measurement with its checks and
//! quality oracle, and the separate traced pass.
//!
//! Load shape, the same everywhere: one closed loop (the analyst waits for
//! each reply), one client thread, one ingest worker, and every query issued
//! the way a caller issues it (`Lovo::query_spec`, or `QueryService::submit`).
//! The benchmark itself never runs two things at once: on the 2-vCPU shared
//! reference host, identical code moved 12–20 % between runs with a second
//! query client or an ingest thread beside the query client.

use crate::check::{exact_twin, mean_avep, mean_recall_vs_exact, AnswerCheck, Failure, Failures};
use crate::estimators::{
    calib_ms, cpu_seconds, median, peak_rss_mb, percentile, steady_rate, steal_seconds,
    ClassSamples,
};
use crate::generator::{copy_under_fresh_id, generate, Generated, Workload};
use crate::layers::{traced_query, IngestCounts, IngestStages, QueryCounts};
use crate::report::Values;
use crate::trace::{OpRef, Tracer};
use lovo_core::{DurabilityConfig, Lovo, LovoConfig, RankedObject};
use lovo_encoder::TextEncoder;
use lovo_serve::{QueryService, ServeConfig, ServeError, ServeStats};
use lovo_store::VectorDatabase;
use lovo_video::VideoCollection;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny corpora and two rounds: proves the plumbing, measures nothing.
    pub smoke: bool,
    /// Where trace files and the temporary durable stores go.
    pub out_dir: PathBuf,
}

/// What one run produced: the contract's counts, the metrics of its mode
/// (end-to-end, or per-layer when traced), and ungated context numbers.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    pub values: Values,
    pub context: Vec<(String, f64)>,
}

/// How an op was served; with the plan index it forms the op class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Served {
    Miss,
    Hit,
    Coalesced,
}

/// Samples by op class: plan index and how the op was served.
type QuerySamples = ClassSamples<(u32, Served)>;

/// Set-up is repeated and its median reported: twice at least, and on while
/// it is cheap enough, up to this many times within this many seconds in all.
const SETUP_REPEATS: usize = 7;
const SETUP_REPEAT_BUDGET_S: f64 = 12.0;
/// A measured phase has at least this many rounds, whatever `--seconds` says,
/// so every op class has at least this many samples.
const MIN_ROUNDS: usize = 20;
/// The traced pass replays at most this many ops of a round.
const TRACED_OPS: usize = 200;
/// Ingest ops decomposed by the traced pass.
const TRACED_INGESTS: usize = 12;

fn engine_config(workload: Workload) -> LovoConfig {
    let config = LovoConfig::default().with_ingest_workers(1);
    match workload {
        Workload::CoarseLarge => config.with_rerank(false),
        _ => config,
    }
}

fn serve_config(smoke: bool) -> ServeConfig {
    // The plan working set is about four times the result cache.
    ServeConfig::default()
        .with_cache_capacity(if smoke { 8 } else { 32 })
        .with_maintenance_interval(None)
}

fn describe<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |err| format!("{what}: {err}")
}

/// A directory for one durable store, removed when dropped.
struct TempStore(PathBuf);

impl TempStore {
    fn new(out_dir: &Path) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir.join(format!(
            "store-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // `Lovo::build_durable` creates the directory itself and refuses one
        // that already holds a store.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(out_dir).map_err(describe("create output directory"))?;
        Ok(Self(path))
    }

    fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .filter_map(Result::ok)
                .map(|entry| match entry.metadata() {
                    Ok(meta) if meta.is_dir() => walk(&entry.path()),
                    Ok(meta) => meta.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The system under test after set-up.
struct Stage {
    // Declared before `engine` so the service (and its worker threads) stops
    // first.
    service: Option<QueryService>,
    engine: Arc<Lovo>,
    /// Direct `Lovo::query_spec` answer of every plan the round uses, taken
    /// by the warm-up pass. `None` for plans the round never issues.
    reference: Vec<Option<Vec<RankedObject>>>,
    store: Option<TempStore>,
}

/// One issued op: caller-side seconds, how it was served, and the frames (or
/// why it failed).
struct Issued {
    seconds: f64,
    outcome: Served,
    frames: Result<Vec<RankedObject>, Failure>,
}

impl Stage {
    /// Build (or build durably), start the service, and warm up with one
    /// direct pass over the round's plans plus, when served, one full round
    /// through the service — so the measured rounds all start from the cache
    /// state a round leaves behind.
    fn set_up(opts: &Options, run: &Generated, config: LovoConfig) -> Result<(Self, f64), String> {
        let workload = opts.workload;
        let mut store = None;
        let build_start = Instant::now();
        let built = if workload == Workload::IngestThenQuery {
            let dir = TempStore::new(&opts.out_dir)?;
            let built =
                Lovo::build_durable(&run.corpus, config, &dir.0, DurabilityConfig::default());
            store = Some(dir);
            built
        } else {
            Lovo::build(&run.corpus, config)
        };
        let engine = built.map_err(describe("build engine"))?;
        let build_seconds = build_start.elapsed().as_secs_f64();
        let engine = Arc::new(engine);

        let service = if workload == Workload::ServedRepeat {
            Some(
                QueryService::start(Arc::clone(&engine), serve_config(opts.smoke))
                    .map_err(describe("start service"))?,
            )
        } else {
            None
        };
        let mut stage = Self {
            service,
            engine,
            reference: Vec::new(),
            store,
        };
        stage.take_reference(run)?;
        if stage.service.is_some() {
            for &plan in &run.round {
                stage
                    .issue(run, plan)
                    .frames
                    .map_err(|failure| format!("warm-up submission failed: {failure:?}"))?;
            }
        }
        Ok((stage, build_seconds))
    }

    /// One direct pass over the round's plans: warms the engine up and keeps
    /// the answers every measured op is then compared with. Taken again when
    /// the corpus has changed.
    fn take_reference(&mut self, run: &Generated) -> Result<(), String> {
        self.reference = vec![None; run.plans.len()];
        for &plan in &run.round {
            if self.reference[plan].is_none() {
                let answer = self
                    .engine
                    .query_spec(&run.plans[plan].spec)
                    .map_err(describe("warm-up query"))?;
                self.reference[plan] = Some(answer.frames);
            }
        }
        Ok(())
    }

    /// Issues plan `index` the way the workload's client does and times it
    /// as the caller sees it.
    fn issue(&self, run: &Generated, index: usize) -> Issued {
        let spec = &run.plans[index].spec;
        match &self.service {
            None => {
                let start = Instant::now();
                let result = self.engine.query_spec(spec);
                Issued {
                    seconds: start.elapsed().as_secs_f64(),
                    outcome: Served::Miss,
                    frames: result.map(|r| r.frames).map_err(|_| Failure::Error),
                }
            }
            Some(service) => {
                let start = Instant::now();
                let served = service.submit(spec.clone());
                let seconds = start.elapsed().as_secs_f64();
                let (outcome, frames) = match served {
                    Ok(served) => {
                        let outcome = if served.cache_hit {
                            Served::Hit
                        } else if served.coalesced_with > 0 {
                            Served::Coalesced
                        } else {
                            Served::Miss
                        };
                        (outcome, Ok(served.result.frames))
                    }
                    Err(ServeError::Rejected { .. }) => (Served::Miss, Err(Failure::Rejected)),
                    Err(_) => (Served::Miss, Err(Failure::Error)),
                };
                Issued {
                    seconds,
                    outcome,
                    frames,
                }
            }
        }
    }

    /// The checks every measured op goes through.
    fn verdict(
        &self,
        check: &AnswerCheck<'_>,
        run: &Generated,
        index: usize,
        frames: Result<Vec<RankedObject>, Failure>,
    ) -> Result<(), Failure> {
        let frames = frames?;
        check.check(index, &run.plans[index], &frames)?;
        match &self.reference[index] {
            Some(direct) if *direct != frames => Err(Failure::DiffersFromDirect),
            _ => Ok(()),
        }
    }
}

/// The set-ups of one run: each is timed whole (`setup_s` is their median)
/// and its build alone (one op class: every set-up builds the same corpus).
#[derive(Default)]
struct SetUps {
    seconds: Vec<f64>,
    builds: ClassSamples<u32>,
}

impl SetUps {
    fn timed(
        &mut self,
        opts: &Options,
        run: &Generated,
        config: LovoConfig,
    ) -> Result<Stage, String> {
        let start = Instant::now();
        let (stage, build_seconds) = Stage::set_up(opts, run, config)?;
        self.seconds.push(start.elapsed().as_secs_f64());
        self.builds.record(0, build_seconds);
        Ok(stage)
    }

    /// Set-up is repeated once, and on while the repeats stay within a small
    /// budget.
    fn another_is_due(&self) -> bool {
        let spent: f64 = self.seconds.iter().sum();
        let next = self.seconds.first().copied().unwrap_or(f64::INFINITY);
        self.seconds.len() < 2
            || (self.seconds.len() < SETUP_REPEATS && spent + next <= SETUP_REPEAT_BUDGET_S)
    }
}

/// Samples of one measured query phase.
#[derive(Default)]
struct Measured {
    samples: QuerySamples,
    /// Per completed round: the sum of its ops' caller-side seconds (the
    /// round's wall time less the benchmark's own checking).
    round_seconds: Vec<f64>,
    failures: Failures,
}

impl Measured {
    /// Issues one round of queries and checks every answer.
    fn round(&mut self, stage: &Stage, check: &AnswerCheck<'_>, run: &Generated) {
        let mut total = 0.0;
        for &index in &run.round {
            let issued = stage.issue(run, index);
            total += issued.seconds;
            self.samples
                .record((index as u32, issued.outcome), issued.seconds);
            self.failures
                .record(stage.verdict(check, run, index, issued.frames));
        }
        self.round_seconds.push(total);
    }

    fn query_values(&self, run: &Generated, values: &mut Values) {
        let ops = self.samples.count().max(1) as f64;
        values.set("query_ms", self.samples.steady_total() / ops * 1e3);
        values.set(
            "query_qps",
            steady_rate(run.round.len(), &self.round_seconds).unwrap_or(0.0),
        );
    }

    fn client_context(&self, context: &mut Vec<(String, f64)>) {
        let pooled = self.samples.pooled();
        let ms = |p| percentile(&pooled, p).unwrap_or(0.0) * 1e3;
        context.push(("client.query_p50_ms".into(), ms(0.50)));
        context.push(("client.query_p99_ms".into(), ms(0.99)));
        context.push(("client.samples".into(), pooled.len() as f64));
        context.push(("client.rounds".into(), self.round_seconds.len() as f64));
    }
}

/// Runs one workload in the mode `opts.trace` selects.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let generated = generate(opts.workload, opts.seed, opts.seconds, opts.smoke);
    let config = engine_config(opts.workload);
    let mut outcome = if opts.trace {
        run_traced(opts, &generated, config)?
    } else {
        run_end_to_end(opts, &generated, config)?
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    outcome.context.push(("machine.nproc".into(), nproc));
    if opts.trace {
        outcome.values.set("machine.nproc", nproc);
    }
    Ok(outcome)
}

/// Everything the engine holds once the run's ingest ops are done.
fn final_corpus(run: &Generated) -> VideoCollection {
    let mut all = run.corpus.clone();
    for op in &run.ingest {
        all.videos.extend(
            copy_under_fresh_id(&run.contents[op.content], op.video_id, &run.corpus).videos,
        );
    }
    all
}

fn run_end_to_end(opts: &Options, run: &Generated, config: LovoConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let values = &mut outcome.values;
    let context = &mut outcome.context;
    let corpus = final_corpus(run);
    let check = AnswerCheck::new(&corpus, &run.plans);
    context.push(("machine.calib_ms_before".into(), calib_ms()));
    let (run_start, steal_start) = (Instant::now(), steal_seconds());

    // --- Set-up. Timed again after the measured phase, see below.
    let mut set_ups = SetUps::default();
    let mut stage = set_ups.timed(opts, run, config)?;

    // --- The measured phase.
    let cpu_before = cpu_seconds();
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs(opts.seconds);
    let mut measured = Measured::default();
    let mut acknowledged_patches = stage.engine.indexed_patches() as u64;
    let mut appends: ClassSamples<u32> = ClassSamples::default();
    let mut appended_frames = 0usize;
    // Footage arrives first, one durable single-video batch at a time. The
    // query rounds then run on the corpus the appends leave behind (one small
    // sealed segment per batch), so every round does the same work.
    for op in &run.ingest {
        let batch = copy_under_fresh_id(&run.contents[op.content], op.video_id, &run.corpus);
        let start = Instant::now();
        let appended = stage.engine.add_videos(&batch);
        appends.record(op.content as u32, start.elapsed().as_secs_f64());
        match appended {
            Ok(stats) => {
                appended_frames += stats.total_frames;
                acknowledged_patches += stats.patches_indexed as u64;
            }
            Err(_) => measured.failures.add(Failure::Error, 1),
        }
    }
    if !run.ingest.is_empty() {
        stage.take_reference(run)?;
    }
    let more = |rounds: usize| match opts.smoke {
        true => rounds < 2,
        false => rounds < MIN_ROUNDS || Instant::now() < deadline,
    };
    while more(measured.round_seconds.len()) {
        measured.round(&stage, &check, run);
    }
    let phase_seconds = phase_start.elapsed().as_secs_f64();
    if let (Some(before), Some(after)) = (cpu_before, cpu_seconds()) {
        context.push(("machine.cpu_share".into(), (after - before) / phase_seconds));
    }
    context.push(("phase_s".into(), phase_seconds));
    measured.query_values(run, values);
    measured.client_context(context);
    values.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    // --- Set-up again, on this side of the measured phase: the host's slow
    // bursts last seconds, and set-ups made back to back share one.
    while !opts.smoke && set_ups.another_is_due() {
        drop(set_ups.timed(opts, run, config)?);
    }
    values.set("setup_s", median(&set_ups.seconds).unwrap_or(0.0));
    context.push(("setup_repeats".into(), set_ups.seconds.len() as f64));
    // Appends are the ingesting workload's ingest; elsewhere the builds are.
    let (ingest, ingested_frames) = if run.ingest.is_empty() {
        let builds = &set_ups.builds;
        (builds, builds.count() * run.corpus.total_frames())
    } else {
        (&appends, appended_frames)
    };
    values.set(
        "ingest_fps",
        ingested_frames as f64 / ingest.steady_total().max(f64::MIN_POSITIVE),
    );
    context.push(("machine.calib_ms_after".into(), calib_ms()));
    context.push((
        "machine.steal_share".into(),
        (steal_seconds() - steal_start) / run_start.elapsed().as_secs_f64(),
    ));
    outcome.attempted = (measured.samples.count() + run.ingest.len()) as u64;
    outcome.failures = measured.failures;

    // --- Durability: restart, then every acknowledged patch must be there.
    let Stage {
        service,
        engine,
        reference,
        store,
        ..
    } = stage;
    drop(service);
    let engine = match &store {
        None => engine,
        Some(dir) => {
            drop(engine);
            let (reopened, report) = Lovo::open(config, &dir.0, DurabilityConfig::default())
                .map_err(describe("reopen durable store"))?;
            let missing = acknowledged_patches.saturating_sub(reopened.indexed_patches() as u64);
            outcome
                .failures
                .add(Failure::RowLost, missing.max(report.rows_lost()));
            Arc::new(reopened)
        }
    };

    // --- The oracle: not part of any metric's time, free to use both cores.
    let oracle_start = Instant::now();
    let values = &mut outcome.values;
    values.set(
        "bytes_per_patch",
        engine.storage_bytes() as f64 / engine.indexed_patches().max(1) as f64,
    );
    // AveP is Fig. 6's: over the unfiltered plans. On the durable workload
    // the answers are the reopened engine's, checked like measured ones and
    // against what the engine answered before the restart.
    let mut answers = Vec::new();
    for (index, plan) in run.plans.iter().enumerate() {
        if !plan.spec.predicate.is_any() {
            continue;
        }
        let before = reference.get(index).cloned().flatten();
        let frames = match before {
            Some(frames) if store.is_none() => frames,
            before => {
                let frames = engine
                    .query_spec(&plan.spec)
                    .map_err(describe("oracle query"))?
                    .frames;
                let verdict = match before {
                    Some(before) if before != frames => Err(Failure::DiffersFromDirect),
                    _ => check.check(index, plan, &frames),
                };
                outcome.failures.record(verdict);
                frames
            }
        };
        answers.push((plan, frames));
    }
    values.set("avep", mean_avep(&corpus, answers.into_iter()));
    let twin = exact_twin(&corpus, config).map_err(describe("build exact twin"))?;
    values.set(
        "recall_vs_exact",
        mean_recall_vs_exact(&engine, &twin, &run.plans).map_err(describe("recall oracle"))?,
    );
    outcome
        .context
        .push(("oracle_s".into(), oracle_start.elapsed().as_secs_f64()));
    Ok(outcome)
}

/// Per-pass totals of the service counters over the traced passes.
fn serve_delta(before: &ServeStats, after: &ServeStats) -> ServeStats {
    ServeStats {
        submitted: after.submitted - before.submitted,
        rejected: after.rejected - before.rejected,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_stale_evictions: after.cache_stale_evictions - before.cache_stale_evictions,
        engine_batches: after.engine_batches - before.engine_batches,
        engine_queries: after.engine_queries - before.engine_queries,
        coalesced: after.coalesced - before.coalesced,
        ..ServeStats::default()
    }
}

/// The traced pass: its spans, its failed ops, and everything it counted.
#[derive(Default)]
struct TracedPass {
    tracer: Tracer,
    failures: Failures,
    ingests: IngestCounts,
    queries: QueryCounts,
    /// Service counters summed over the traced passes only.
    served: ServeStats,
    /// `Served::result.timings.queue_seconds` of the misses, by plan.
    queue_wait: ClassSamples<u32>,
    /// What only a durable store has.
    disk_bytes: u64,
    reopened_patches: u64,
    rows_lost: u64,
    /// Appends applied without a decomposition.
    plain_appends: u64,
    passes: u32,
    ops_per_pass: usize,
}

fn root_op(op: u32, class: u32) -> OpRef {
    OpRef {
        op,
        class,
        parent: None,
    }
}

fn run_traced(opts: &Options, run: &Generated, config: LovoConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let corpus = final_corpus(run);
    let check = AnswerCheck::new(&corpus, &run.plans);
    let calib_before = calib_ms();
    let mut pass = TracedPass::default();

    let stage = trace_ingest(opts, run, config, &mut pass)?;
    let untraced = trace_queries(opts, run, config, &stage, &check, &mut pass)?;
    let TracedPass {
        tracer, failures, ..
    } = &pass;
    outcome.attempted = pass.ingests.ops
        + pass.plain_appends
        + 2 * u64::from(pass.passes) * pass.ops_per_pass as u64;

    let values = &mut outcome.values;
    layer_values(&pass, stage.service.is_some(), &untraced, values);
    values.set(
        "store.sealed_segments",
        stage.engine.collection_stats().sealed_segments as f64,
    );
    values.set("machine.calib_ms", calib_before.max(calib_ms()));

    for opaque in ["core.query_spec", "core.ingest"] {
        if let Some(share) = tracer.coverage(opaque) {
            outcome
                .context
                .push((format!("trace.coverage.{opaque}"), share));
        }
    }
    outcome
        .context
        .push(("trace.passes".into(), f64::from(pass.passes)));
    outcome
        .context
        .push(("trace.spans".into(), tracer.spans().len() as f64));
    outcome.failures = failures.clone();

    drop(stage);
    std::fs::create_dir_all(&opts.out_dir).map_err(describe("create output directory"))?;
    let path = opts
        .out_dir
        .join(format!("trace_{}.json", opts.workload.name()));
    std::fs::write(&path, tracer.to_json()).map_err(describe("write trace file"))?;
    Ok(outcome)
}

/// Ingest, decomposed. The durable workload traces its own build, its first
/// appends and the restart, and hands back the reopened engine; the others
/// set up as usual and trace a build of their corpus's first video.
fn trace_ingest(
    opts: &Options,
    run: &Generated,
    config: LovoConfig,
    pass: &mut TracedPass,
) -> Result<Stage, String> {
    let TracedPass {
        tracer,
        failures,
        ingests,
        plain_appends,
        ..
    } = pass;
    let stages = IngestStages::new(config).map_err(describe("build ingest stages"))?;
    if opts.workload != Workload::IngestThenQuery {
        let (stage, _) = Stage::set_up(opts, run, config)?;
        let sample = VideoCollection {
            config: run.corpus.config.clone(),
            videos: run.corpus.videos[..1].to_vec(),
        };
        for repeat in 0..if opts.smoke { 1 } else { 3 } {
            failures.record(stages.traced_ingest(
                tracer,
                root_op(repeat, 0),
                &sample,
                &VectorDatabase::new(),
                ingests,
                || Lovo::build(&sample, config).map(|engine| engine.ingest_stats()),
            ));
        }
        return Ok(stage);
    }

    // The replay goes into a scratch store of the same kind, which therefore
    // always holds what the engine held before the op.
    let scratch_dir = TempStore::new(&opts.out_dir)?;
    let scratch = VectorDatabase::create_durable(&scratch_dir.0, DurabilityConfig::default())
        .map_err(describe("create scratch store"))?;
    let dir = TempStore::new(&opts.out_dir)?;
    let mut built = None;
    failures.record(stages.traced_ingest(
        tracer,
        root_op(0, u32::MAX),
        &run.corpus,
        &scratch,
        ingests,
        || {
            let engine =
                Lovo::build_durable(&run.corpus, config, &dir.0, DurabilityConfig::default())?;
            let stats = engine.ingest_stats();
            built = Some(engine);
            Ok(stats)
        },
    ));
    let engine = built.ok_or("durable build failed")?;
    // The first appends are decomposed; the rest are only applied, so the
    // traced queries see the corpus the end-to-end queries see.
    let traced_ingests = if opts.smoke { 2 } else { TRACED_INGESTS };
    for (i, op) in run.ingest.iter().enumerate() {
        let batch = copy_under_fresh_id(&run.contents[op.content], op.video_id, &run.corpus);
        let appended = if i < traced_ingests {
            let at = root_op(i as u32 + 1, op.content as u32);
            stages.traced_ingest(tracer, at, &batch, &scratch, ingests, || {
                engine.add_videos(&batch)
            })
        } else {
            *plain_appends += 1;
            engine
                .add_videos(&batch)
                .map(|_| ())
                .map_err(|_| Failure::Error)
        };
        failures.record(appended);
    }
    // Every patch the engine held before the restart must survive it.
    let acknowledged = engine.indexed_patches() as u64;
    let disk_bytes = dir.disk_bytes();
    drop(engine);
    let (_, reopened) = tracer.span("store.reopen", root_op(ingests.ops as u32, 0), || {
        Lovo::open(config, &dir.0, DurabilityConfig::default())
    });
    let (reopened, report) = reopened.map_err(describe("reopen durable store"))?;
    let reopened_patches = reopened.indexed_patches() as u64;
    let rows_lost = acknowledged
        .saturating_sub(reopened_patches)
        .max(report.rows_lost());
    failures.add(Failure::RowLost, rows_lost);
    (pass.disk_bytes, pass.reopened_patches, pass.rows_lost) =
        (disk_bytes, reopened_patches, rows_lost);
    Ok(Stage {
        service: None,
        engine: Arc::new(reopened),
        reference: vec![None; run.plans.len()],
        store: Some(dir),
    })
}

/// Queries: untraced and traced passes over the same ops, alternating, so
/// both see the same machine and (when served) the same cache cycle. Returns
/// the untraced samples.
fn trace_queries(
    opts: &Options,
    run: &Generated,
    config: LovoConfig,
    stage: &Stage,
    check: &AnswerCheck<'_>,
    pass: &mut TracedPass,
) -> Result<QuerySamples, String> {
    let TracedPass {
        tracer,
        failures,
        queries,
        served: served_stats,
        queue_wait,
        passes,
        ..
    } = pass;
    let text_encoder = TextEncoder::new(config.text).map_err(describe("build text encoder"))?;
    let ops = match stage.service {
        // A cyclic cache state needs whole rounds.
        Some(_) => run.round.len(),
        None => run.round.len().min(TRACED_OPS),
    };
    let first_op = pass.ingests.ops as u32 + 1;
    let mut untraced = ClassSamples::default();
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    while *passes < 2 || (!opts.smoke && Instant::now() < deadline) {
        for &index in &run.round[..ops] {
            let issued = stage.issue(run, index);
            untraced.record((index as u32, issued.outcome), issued.seconds);
            failures.record(stage.verdict(check, run, index, issued.frames));
        }
        let before = stage.service.as_ref().map(QueryService::stats);
        for (position, &index) in run.round[..ops].iter().enumerate() {
            let spec = &run.plans[index].spec;
            let at = root_op(
                first_op + *passes * ops as u32 + position as u32,
                index as u32,
            );
            let mut engine_query = |tracer: &mut Tracer, at: OpRef| {
                traced_query(
                    tracer,
                    at,
                    &stage.engine,
                    &text_encoder,
                    spec,
                    &mut *queries,
                )
                .map(|direct| direct.frames)
            };
            let frames = match &stage.service {
                None => engine_query(tracer, at),
                Some(service) => {
                    let (root, served) =
                        tracer.span("serve.submit", at, || service.submit(spec.clone()));
                    match served {
                        Ok(served) if served.cache_hit => {
                            tracer.retag(root, "serve.submit_hit");
                            Ok(served.result.frames)
                        }
                        Ok(served) => {
                            queue_wait.record(at.class, served.result.timings.queue_seconds);
                            // What the same plan costs without the service.
                            engine_query(tracer, at.under(root)).and_then(|direct| {
                                if direct == served.result.frames {
                                    Ok(direct)
                                } else {
                                    Err(Failure::DiffersFromDirect)
                                }
                            })
                        }
                        Err(ServeError::Rejected { .. }) => Err(Failure::Rejected),
                        Err(_) => Err(Failure::Error),
                    }
                }
            };
            failures.record(stage.verdict(check, run, index, frames));
        }
        if let (Some(before), Some(service)) = (before, &stage.service) {
            served_stats.merge(&serve_delta(&before, &service.stats()));
        }
        *passes += 1;
    }
    pass.ops_per_pass = ops;
    Ok(untraced)
}

/// The per-layer metrics: times are steady seconds of spans (Σ count × class
/// steady time), counts come from the structs the calls returned.
fn layer_values(counts: &TracedPass, served: bool, untraced: &QuerySamples, values: &mut Values) {
    let tracer = &counts.tracer;
    let steady = |name: &str| tracer.steady(name).0;
    let per = |seconds: f64, units: u64| seconds / units.max(1) as f64;

    // Query stages, per traced query op (an op that skips a stage adds 0).
    let traced_ops = u64::from(counts.passes) * counts.ops_per_pass as u64;
    let per_op = |name: &str| per(steady(name), traced_ops);
    let staged: f64 = [
        "core.plan",
        "encoder.text",
        "store.resolve_filter",
        "store.search",
        "core.group",
        "encoder.rerank",
        "core.aggregate",
    ]
    .iter()
    .map(|name| per_op(name))
    .sum();
    let (direct_total, direct_ops) = tracer.steady("core.query_spec");
    values.set("core.plan_us", per_op("core.plan") * 1e6);
    values.set("core.group_us", per_op("core.group") * 1e6);
    values.set("core.aggregate_us", per_op("core.aggregate") * 1e6);
    values.set(
        "core.query_self_us",
        (per(direct_total, traced_ops) - staged) * 1e6,
    );
    values.set("encoder.text_us", per_op("encoder.text") * 1e6);
    values.set("encoder.rerank_ms", per_op("encoder.rerank") * 1e3);
    values.set(
        "store.resolve_filter_us",
        per_op("store.resolve_filter") * 1e6,
    );
    values.set("store.search_us", per_op("store.search") * 1e6);

    // Work counters, per query the engine executed.
    let queries = &counts.queries;
    let search = &queries.search;
    for (name, total) in [
        ("core.frames_reranked", queries.frames_reranked as usize),
        ("store.segments_probed", search.segments_probed),
        ("store.segments_pruned", search.segments_pruned),
        ("index.vectors_scored", search.vectors_scored),
        ("index.cells_probed", search.cells_probed),
        ("index.exact_rescored", search.exact_rescored),
        ("index.heap_pushes", search.heap_pushes),
        ("index.filtered_out", search.filtered_out),
    ] {
        values.set(name, per(total as f64, queries.ops));
    }
    values.set(
        "encoder.rerank_us_per_frame",
        per(steady("encoder.rerank"), queries.frames_reranked) * 1e6,
    );
    values.set(
        "index.scan_ns_per_vector",
        per(steady("store.search"), search.vectors_scored as u64) * 1e9,
    );

    // Ingest stages.
    let ingests = &counts.ingests;
    let ingest_staged: f64 = [
        "video.keyframe",
        "encoder.visual",
        "video.wire_encode",
        "store.insert",
        "store.seal",
    ]
    .iter()
    .map(|name| steady(name))
    .sum();
    values.set(
        "core.ingest_self_ms",
        per(steady("core.ingest") - ingest_staged, ingests.ops) * 1e3,
    );
    values.set(
        "encoder.visual_ms_per_keyframe",
        per(steady("encoder.visual"), ingests.key_frames) * 1e3,
    );
    values.set(
        "video.keyframe_us_per_frame",
        per(steady("video.keyframe"), ingests.frames) * 1e6,
    );
    values.set(
        "video.keyframe_share",
        per(ingests.key_frames as f64, ingests.frames),
    );
    values.set(
        "video.wire_encode_us_per_keyframe",
        per(steady("video.wire_encode"), ingests.key_frames) * 1e6,
    );
    values.set(
        "store.insert_us_per_patch",
        per(steady("store.insert"), ingests.patches) * 1e6,
    );
    values.set(
        "store.seal_ms_per_segment",
        per(steady("store.seal"), ingests.segments_sealed) * 1e3,
    );
    values.set(
        "store.wal_bytes_per_patch",
        per(ingests.wal_bytes as f64, ingests.patches),
    );
    values.set(
        "store.disk_bytes_per_patch",
        per(counts.disk_bytes as f64, counts.reopened_patches),
    );
    values.set("store.reopen_ms", steady("store.reopen") * 1e3);
    values.set("store.rows_lost", counts.rows_lost as f64);

    // The service: hits and misses are separate span names.
    let (hit_total, hits) = tracer.steady("serve.submit_hit");
    let (miss_total, misses) = tracer.steady("serve.submit");
    let stats = &counts.served;
    values.set(
        "serve.cache_hit_share",
        per(stats.cache_hits as f64, stats.submitted),
    );
    values.set("serve.hit_us", per(hit_total, hits as u64) * 1e6);
    values.set(
        "serve.miss_overhead_us",
        match misses {
            0 => 0.0,
            _ => (per(miss_total, misses as u64) - per(direct_total, direct_ops as u64)) * 1e6,
        },
    );
    values.set(
        "serve.queue_wait_us",
        per(
            counts.queue_wait.steady_total(),
            counts.queue_wait.count() as u64,
        ) * 1e6,
    );
    for (name, total) in [
        ("serve.engine_queries", stats.engine_queries),
        ("serve.engine_batches", stats.engine_batches),
        ("serve.coalesced", stats.coalesced),
        ("serve.rejected", stats.rejected),
        ("serve.stale_evictions", stats.cache_stale_evictions),
    ] {
        values.set(name, per(total as f64, u64::from(counts.passes)));
    }

    // Diagnostics.
    let pooled = untraced.pooled();
    let ms = |p| percentile(&pooled, p).unwrap_or(0.0) * 1e3;
    values.set("client.query_p50_ms", ms(0.50));
    values.set("client.query_p99_ms", ms(0.99));
    values.set("client.samples", pooled.len() as f64);
    // Traced per-op time against untraced per-op time, root spans only.
    let roots = if served {
        hit_total + miss_total
    } else {
        direct_total
    };
    values.set(
        "trace.overhead_share",
        roots / untraced.steady_total().max(f64::MIN_POSITIVE),
    );
}
