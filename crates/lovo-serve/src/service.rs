//! The query service: admission-controlled worker pool, micro-batch
//! coalescing, result caching, and background maintenance over one
//! [`Arc`]-shared [`Lovo`] engine.
//!
//! An engine pass — batch window, execution, replies — runs on whichever
//! thread holds one of the `workers` pass slots: a pool worker, or the
//! submitting thread itself when it finds the service idle.

use crate::cache::ResultCache;
use crate::{Result, ServeConfig, ServeError};
use lovo_core::{Lovo, QueryPlan, QueryResult, QuerySpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Buffered growing rows below which a maintenance tick does not seal.
/// Ingest already seals after every batch, so maintenance only mops up rows
/// from direct database writes; the floor avoids mass-producing tiny
/// segments that the next compaction would immediately re-merge.
const MAINTENANCE_SEAL_MIN_ROWS: usize = 256;

/// One answered submission.
#[derive(Debug, Clone)]
pub struct Served {
    /// The query result. `result.timings.queue_seconds` carries this
    /// submission's serve-side wait (admission queue + batch window); for a
    /// cache hit the remaining stage timings are those of the execution that
    /// originally filled the entry.
    pub result: QueryResult,
    /// True when the result came from the plan-keyed cache (no engine work).
    pub cache_hit: bool,
    /// Number of *other* submissions answered by the same engine pass —
    /// nonzero only when micro-batching coalesced concurrent arrivals.
    /// Zero for cache hits and solo executions.
    pub coalesced_with: usize,
}

/// Point-in-time service counters (all lifetime totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Submissions accepted (queued or served from cache).
    pub submitted: u64,
    /// Submissions refused with [`ServeError::Rejected`].
    pub rejected: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Entries evicted because their ingest epoch went stale.
    pub cache_stale_evictions: u64,
    /// Engine passes executed (each covers one micro-batch).
    pub engine_batches: u64,
    /// Distinct plans executed by the engine across all passes.
    pub engine_queries: u64,
    /// Submissions that shared an engine pass with at least one other
    /// submission (batched or deduplicated against an identical plan).
    pub coalesced: u64,
    /// Engine passes that panicked. The thread that ran the pass survives
    /// (its batch's waiters see [`ServeError::WorkerLost`]); a nonzero value
    /// here means the engine has a bug worth investigating.
    pub worker_panics: u64,
    /// Maintenance ticks run.
    pub maintenance_ticks: u64,
    /// Growing-segment seals performed by maintenance.
    pub maintenance_seals: u64,
    /// Sealed segments merged away by maintenance compaction.
    pub maintenance_segments_merged: u64,
    /// Maintenance ticks in which a seal or compaction failed (typically
    /// durable-store I/O: a full disk, a yanked volume). The thread never
    /// dies on these — it backs off exponentially (capped) and retries, so a
    /// transient fault costs delayed maintenance, not a restart. A steadily
    /// climbing value means the store's volume needs attention.
    pub maintenance_io_errors: u64,
}

impl ServeStats {
    /// Folds another snapshot into this one, field by field, yielding the
    /// combined lifetime totals (e.g. across replicas of one service).
    ///
    /// The exhaustive destructuring makes a new counter a compile error
    /// here until it is folded.
    pub fn merge(&mut self, other: &ServeStats) {
        let Self {
            submitted,
            rejected,
            cache_hits,
            cache_stale_evictions,
            engine_batches,
            engine_queries,
            coalesced,
            worker_panics,
            maintenance_ticks,
            maintenance_seals,
            maintenance_segments_merged,
            maintenance_io_errors,
        } = *other;
        self.submitted = self.submitted.saturating_add(submitted);
        self.rejected = self.rejected.saturating_add(rejected);
        self.cache_hits = self.cache_hits.saturating_add(cache_hits);
        self.cache_stale_evictions = self
            .cache_stale_evictions
            .saturating_add(cache_stale_evictions);
        self.engine_batches = self.engine_batches.saturating_add(engine_batches);
        self.engine_queries = self.engine_queries.saturating_add(engine_queries);
        self.coalesced = self.coalesced.saturating_add(coalesced);
        self.worker_panics = self.worker_panics.saturating_add(worker_panics);
        self.maintenance_ticks = self.maintenance_ticks.saturating_add(maintenance_ticks);
        self.maintenance_seals = self.maintenance_seals.saturating_add(maintenance_seals);
        self.maintenance_segments_merged = self
            .maintenance_segments_merged
            .saturating_add(maintenance_segments_merged);
        self.maintenance_io_errors = self
            .maintenance_io_errors
            .saturating_add(maintenance_io_errors);
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    cache_hits: AtomicU64,
    engine_batches: AtomicU64,
    engine_queries: AtomicU64,
    coalesced: AtomicU64,
    worker_panics: AtomicU64,
    maintenance_ticks: AtomicU64,
    maintenance_seals: AtomicU64,
    maintenance_segments_merged: AtomicU64,
    maintenance_io_errors: AtomicU64,
}

/// One queued submission: its compiled plan, cache identity, arrival time,
/// and the channel its waiter blocks on.
struct Pending {
    plan: QueryPlan,
    fingerprint: u64,
    enqueued: Instant,
    /// Serve-side wait (admission queue + batch window), stamped when the
    /// micro-batch this submission rides in closes — before the engine
    /// runs, so engine time never counts as waiting.
    queue_seconds: f64,
    reply: mpsc::Sender<Result<Served>>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// Engine passes in flight, their batch windows included: one per worker
    /// that has picked a submission up, plus one for a submitter that is
    /// leading its own (see [`QueryService::submit`]). Never above
    /// [`ServeConfig::workers`].
    passes: usize,
    shutdown: bool,
}

/// Independently locked result-cache shards: more shards mean less lock
/// contention between unrelated queries.
const CACHE_SHARDS: usize = 8;

struct Shared {
    engine: Arc<Lovo>,
    config: ServeConfig,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    cache: ResultCache,
    counters: Counters,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A concurrent query front end over an [`Arc`]-shared [`Lovo`] engine.
///
/// Submissions go through [`QueryService::submit`]; the service owns its
/// worker threads (and optionally a maintenance thread) and joins them on
/// drop, draining any queued submissions first. See the crate docs for the
/// serving model and a usage example.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    maintenance: Option<MaintenanceHandle>,
}

struct MaintenanceHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: std::thread::JoinHandle<()>,
}

impl QueryService {
    /// Starts the service: spawns the worker pool (and the maintenance
    /// thread when configured) over the shared engine. Fails on an invalid
    /// configuration.
    pub fn start(engine: Arc<Lovo>, config: ServeConfig) -> Result<Self> {
        config.validate().map_err(ServeError::Engine)?;
        let shared = Arc::new(Shared {
            cache: ResultCache::new(config.cache_capacity, CACHE_SHARDS),
            engine,
            config,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                passes: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            counters: Counters::default(),
        });
        // A failed spawn must not leak the threads already started: tell
        // them to shut down and join them before surfacing the error.
        let abort_spawn = |workers: Vec<std::thread::JoinHandle<()>>, err: std::io::Error| {
            shared.lock_state().shutdown = true;
            shared.work_ready.notify_all();
            for worker in workers {
                let _ = worker.join();
            }
            ServeError::Engine(format!("failed to spawn service thread: {err}"))
        };
        let mut workers = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("lovo-serve-worker-{worker}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(err) => return Err(abort_spawn(workers, err)),
            }
        }
        let maintenance = match config.maintenance_interval {
            Some(interval) => {
                let stop = Arc::new((Mutex::new(false), Condvar::new()));
                let thread_shared = Arc::clone(&shared);
                let thread_stop = Arc::clone(&stop);
                let spawned = std::thread::Builder::new()
                    .name("lovo-serve-maintenance".into())
                    .spawn(move || maintenance_loop(&thread_shared, &thread_stop, interval));
                match spawned {
                    Ok(thread) => Some(MaintenanceHandle { stop, thread }),
                    Err(err) => return Err(abort_spawn(workers, err)),
                }
            }
            None => None,
        };
        Ok(Self {
            shared,
            workers,
            maintenance,
        })
    }

    /// Submits one query and blocks until it is answered.
    ///
    /// The spec is compiled once (yielding the cache fingerprint); a fresh
    /// cache hit returns without touching the queue. Otherwise the
    /// submission must clear admission control — a full queue returns
    /// [`ServeError::Rejected`] immediately — and is then picked up by a
    /// worker, possibly coalesced with concurrent submissions into one
    /// engine pass. A submission that finds the service idle (no pass in
    /// flight, nothing queued) is not handed over at all: the calling thread
    /// holds the batch window and runs the pass itself, so a lone client
    /// never sleeps through a hand-off and back. The returned [`Served`]
    /// says which path answered it.
    ///
    /// ```
    /// use lovo_core::{Lovo, LovoConfig, QuerySpec};
    /// use lovo_serve::{QueryService, ServeConfig};
    /// use lovo_video::{DatasetConfig, DatasetKind, QueryPredicate, VideoCollection};
    /// use std::sync::Arc;
    ///
    /// let videos = VideoCollection::generate(
    ///     DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(60),
    /// );
    /// let engine = Arc::new(Lovo::build(&videos, LovoConfig::default()).unwrap());
    /// let service = QueryService::start(engine, ServeConfig::default()).unwrap();
    ///
    /// // Predicates ride along: this searches only video 0's footage.
    /// let spec = QuerySpec::new("a bus driving on the road")
    ///     .with_predicate(QueryPredicate::videos([0]));
    /// let served = service.submit(spec).unwrap();
    /// assert!(served.result.frames.iter().all(|frame| frame.video_id == 0));
    /// // The serve-side wait is stamped into the timings breakdown.
    /// assert!(served.result.breakdown().starts_with("wait"));
    /// ```
    pub fn submit(&self, spec: QuerySpec) -> Result<Served> {
        let submitted = Instant::now();
        let plan = self.shared.engine.plan(&spec);
        let fingerprint = plan.fingerprint();
        let epoch = self.shared.engine.ingest_epoch();
        if let Some(mut result) = self.shared.cache.get(fingerprint, &plan, epoch) {
            self.shared
                .counters
                .submitted
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .counters
                .cache_hits
                .fetch_add(1, Ordering::Relaxed);
            result.timings.queue_seconds = submitted.elapsed().as_secs_f64();
            return Ok(Served {
                result,
                cache_hit: true,
                coalesced_with: 0,
            });
        }

        let (reply, response) = mpsc::channel();
        let pending = Pending {
            plan,
            fingerprint,
            enqueued: submitted,
            queue_seconds: 0.0,
            reply,
        };
        let led = {
            let mut state = self.shared.lock_state();
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() >= self.shared.config.queue_depth {
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Rejected {
                    queue_depth: self.shared.config.queue_depth,
                });
            }
            self.shared
                .counters
                .submitted
                .fetch_add(1, Ordering::Relaxed);
            if state.passes == 0 && state.queue.is_empty() {
                state.passes += 1;
                Some(close_batch(&self.shared, state, pending))
            } else {
                state.queue.push_back(pending);
                None
            }
        };
        match led {
            Some(batch) => run_pass(&self.shared, batch),
            None => self.shared.work_ready.notify_one(),
        }
        response.recv().map_err(|_| ServeError::WorkerLost)?
    }

    /// The engine this service fronts.
    pub fn engine(&self) -> &Arc<Lovo> {
        &self.shared.engine
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// A snapshot of the lifetime service counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_stale_evictions: self.shared.cache.stale_evictions(),
            engine_batches: c.engine_batches.load(Ordering::Relaxed),
            engine_queries: c.engine_queries.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            maintenance_ticks: c.maintenance_ticks.load(Ordering::Relaxed),
            maintenance_seals: c.maintenance_seals.load(Ordering::Relaxed),
            maintenance_segments_merged: c.maintenance_segments_merged.load(Ordering::Relaxed),
            maintenance_io_errors: c.maintenance_io_errors.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently in the result cache.
    pub fn cached_results(&self) -> usize {
        self.shared.cache.len()
    }
}

impl Drop for QueryService {
    /// Graceful shutdown: stop admitting, let the workers drain every queued
    /// submission, then join all service-owned threads.
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock_state();
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(maintenance) = self.maintenance.take() {
            {
                let (flag, signal) = &*maintenance.stop;
                *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
                signal.notify_all();
            }
            let _ = maintenance.thread.join();
        }
    }
}

/// Worker body: wait for work, assemble a micro-batch, execute, fan out,
/// until shutdown with an empty queue.
fn worker_loop(shared: &Shared) {
    while let Some(batch) = next_batch(shared) {
        run_pass(shared, batch);
    }
}

/// Executes one closed micro-batch on the calling thread — a worker, or the
/// submitter leading it — and gives its pass slot back.
fn run_pass(shared: &Shared, batch: Vec<Pending>) {
    // A panicking engine pass must not kill the thread it runs on: the pool
    // is fixed-size, so a dead worker would (once all are dead) leave queued
    // waiters blocked forever, and a submitter must get its typed error.
    // Catching the unwind drops the batch's un-replied senders — those
    // waiters get `WorkerLost` — and the thread lives on.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_batch(shared, batch)
    }));
    if outcome.is_err() {
        shared
            .counters
            .worker_panics
            .fetch_add(1, Ordering::Relaxed);
    }
    let mut state = shared.lock_state();
    state.passes -= 1;
    // A worker that found every slot taken went back to sleep with work
    // queued; a worker loops round to it by itself, a submitter does not.
    if !state.queue.is_empty() {
        shared.work_ready.notify_one();
    }
}

/// The last stretch of a batch window is polled (unlock, yield, relock)
/// rather than slept through. A timed park this short is not delivered on
/// time — the default 500 µs window read 601 µs of queue wait on the 2-vCPU
/// reference host — and it hands the worker's core away just before the
/// engine pass: `served_repeat`'s miss rate moved 3.5 % between runs of one
/// binary with the park and 0.8 % with the poll. Longer windows park until
/// this much of them is left.
const WINDOW_POLL: Duration = Duration::from_millis(1);

/// Blocks until a submission is queued and a pass slot is free, takes the
/// slot and returns the micro-batch that submission opens. Returns `None` on
/// shutdown once the queue is empty — queued submissions are always drained
/// before workers exit.
fn next_batch(shared: &Shared) -> Option<Vec<Pending>> {
    let mut state = shared.lock_state();
    loop {
        if state.passes < shared.config.workers {
            if let Some(first) = state.queue.pop_front() {
                state.passes += 1;
                return Some(close_batch(shared, state, first));
            }
            if state.shutdown {
                return None;
            }
        }
        state = shared
            .work_ready
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Keeps the batch `first` opens open for the configured window (or until
/// `max_batch`) so concurrent arrivals coalesce, and stamps each member's
/// wait as the batch closes. The caller holds a pass slot.
fn close_batch<'a>(
    shared: &'a Shared,
    mut state: MutexGuard<'a, QueueState>,
    first: Pending,
) -> Vec<Pending> {
    let mut batch = vec![first];
    let window = shared.config.batch_window;
    let max_batch = shared.config.max_batch;
    if !window.is_zero() && max_batch > 1 {
        let deadline = Instant::now() + window;
        loop {
            while batch.len() < max_batch {
                match state.queue.pop_front() {
                    Some(pending) => batch.push(pending),
                    None => break,
                }
            }
            if batch.len() >= max_batch || state.shutdown {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            state = match (deadline - now).checked_sub(WINDOW_POLL) {
                Some(park) if !park.is_zero() => {
                    shared
                        .work_ready
                        .wait_timeout(state, park)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                _ => {
                    drop(state);
                    std::thread::yield_now();
                    shared.lock_state()
                }
            };
        }
    }
    drop(state);
    for pending in &mut batch {
        pending.queue_seconds = pending.enqueued.elapsed().as_secs_f64();
    }
    batch
}

/// Executes one micro-batch: dedupes plans with the same answer, re-checks
/// the cache, runs the distinct remainder as one engine pass, caches every
/// answer, and replies to every waiter with its own wait time stamped in.
fn execute_batch(shared: &Shared, batch: Vec<Pending>) {
    // Group submissions by the plan identity the cache keys on; each group
    // executes (or hits) once. Each group carries its exemplar plan alongside
    // the member list so the later stages never index into it.
    let mut groups: Vec<(u64, QueryPlan, Vec<Pending>)> = Vec::new();
    for pending in batch {
        match groups.iter_mut().find(|(fingerprint, plan, _)| {
            *fingerprint == pending.fingerprint && plan.same_answer(&pending.plan)
        }) {
            Some((_, _, members)) => members.push(pending),
            None => {
                let plan = pending.plan.clone();
                groups.push((pending.fingerprint, plan, vec![pending]));
            }
        }
    }

    // Re-check the cache per group: another worker (or an earlier batch of
    // this one) may have filled the entry while we waited in the window.
    // Each group's epoch is read BEFORE the engine runs: a mutation that
    // lands mid-pass moves the live epoch past this stamp, so the entry
    // filled below is already stale for later lookups — conservative, never
    // wrong.
    let mut run: Vec<(u64, QueryPlan, u64, Vec<Pending>)> = Vec::new();
    for (fingerprint, plan, members) in groups {
        let epoch = shared.engine.ingest_epoch();
        match shared.cache.get(fingerprint, &plan, epoch) {
            Some(result) => {
                shared
                    .counters
                    .cache_hits
                    .fetch_add(members.len() as u64, Ordering::Relaxed);
                reply_all(members, result, true, 0);
            }
            None => run.push((fingerprint, plan, epoch, members)),
        }
    }
    if run.is_empty() {
        return;
    }

    let plans: Vec<QueryPlan> = run.iter().map(|(_, plan, _, _)| plan.clone()).collect();
    shared
        .counters
        .engine_batches
        .fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .engine_queries
        .fetch_add(plans.len() as u64, Ordering::Relaxed);
    // Only submissions the engine pass actually answers count as coalesced —
    // group members peeled off by the cache re-check above do not.
    let executed: usize = run.iter().map(|(_, _, _, members)| members.len()).sum();
    if executed > 1 {
        shared
            .counters
            .coalesced
            .fetch_add(executed as u64, Ordering::Relaxed);
    }

    match shared.engine.query_plans(&plans) {
        Ok(answers) => {
            for ((fingerprint, plan, epoch, members), answer) in run.into_iter().zip(answers) {
                shared.cache.put(fingerprint, &plan, epoch, answer.clone());
                reply_all(members, answer, false, executed - 1);
            }
        }
        Err(error) => {
            let message = error.to_string();
            for (_, _, _, members) in run {
                for pending in members {
                    let _ = pending.reply.send(Err(ServeError::Engine(message.clone())));
                }
            }
        }
    }
}

/// Sends one group's shared result to every waiter, stamping each copy with
/// that submission's own queue + batch-window wait (stamped in `close_batch`).
/// Every waiter but the last gets a clone; the last gets `result` itself.
fn reply_all(
    mut members: Vec<Pending>,
    result: QueryResult,
    cache_hit: bool,
    coalesced_with: usize,
) {
    let reply = |pending: Pending, mut result: QueryResult| {
        result.timings.queue_seconds = pending.queue_seconds;
        // A waiter that gave up (dropped its receiver) is not an error.
        let _ = pending.reply.send(Ok(Served {
            result,
            cache_hit,
            coalesced_with,
        }));
    };
    let Some(last) = members.pop() else {
        return;
    };
    for pending in members {
        reply(pending, result.clone());
    }
    reply(last, result);
}

/// Longest maintenance backoff, as a multiple of the configured interval.
const MAINTENANCE_BACKOFF_CAP: u32 = 32;

/// Maintenance body: one [`maintain`] call per tick, off the query path,
/// backing off while ticks fail.
fn maintenance_loop(shared: &Shared, stop: &(Mutex<bool>, Condvar), interval: Duration) {
    let (flag, signal) = stop;
    let mut stopped = flag.lock().unwrap_or_else(PoisonError::into_inner);
    // Backoff multiplier applied to the wait interval. Doubles (capped) after
    // a tick in which a seal or compaction failed — with a durable store
    // those are real I/O (a full disk keeps failing for a while), so
    // hammering the volume at the normal cadence just burns syscalls — and
    // resets to 1 the moment a tick completes cleanly. Queries are
    // unaffected either way: maintenance is advisory and the service keeps
    // serving from the in-memory state.
    let mut backoff: u32 = 1;
    loop {
        let (next, _) = signal
            .wait_timeout(stopped, interval.saturating_mul(backoff))
            .unwrap_or_else(PoisonError::into_inner);
        stopped = next;
        if *stopped {
            return;
        }
        backoff = if maintain(shared) {
            (backoff.saturating_mul(2)).min(MAINTENANCE_BACKOFF_CAP)
        } else {
            1
        };
    }
}

/// One maintenance tick: seals the growing rows once there are
/// [`MAINTENANCE_SEAL_MIN_ROWS`] of them, then compacts undersized sealed
/// segments, and counts what it did. Returns true when a seal or compaction
/// failed.
fn maintain(shared: &Shared) -> bool {
    let (engine, counters) = (&shared.engine, &shared.counters);
    counters.maintenance_ticks.fetch_add(1, Ordering::Relaxed);
    let mut failed = false;
    if engine.collection_stats().growing_rows >= MAINTENANCE_SEAL_MIN_ROWS {
        match engine.seal() {
            Ok(()) => {
                counters.maintenance_seals.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => failed = true,
        }
    }
    match engine.compact() {
        Ok(result) => {
            counters
                .maintenance_segments_merged
                .fetch_add(result.segments_merged as u64, Ordering::Relaxed);
        }
        Err(_) => failed = true,
    }
    if failed {
        counters
            .maintenance_io_errors
            .fetch_add(1, Ordering::Relaxed);
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_core::LovoConfig;
    use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};

    fn engine(frames: usize) -> Arc<Lovo> {
        let videos = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(frames)
                .with_seed(7),
        );
        Arc::new(Lovo::build(&videos, LovoConfig::default()).expect("build engine"))
    }

    #[test]
    fn submit_executes_then_caches() {
        let service = QueryService::start(engine(90), ServeConfig::default()).unwrap();
        let spec = QuerySpec::new("a red car driving in the center of the road");
        let first = service.submit(spec.clone()).unwrap();
        assert!(!first.cache_hit);
        assert!(!first.result.frames.is_empty());
        assert!(first.result.timings.queue_seconds >= 0.0);
        let second = service.submit(spec).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.result.frames, first.result.frames);
        let stats = service.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.engine_queries, 1);
        assert_eq!(service.cached_results(), 1);
    }

    #[test]
    fn serve_stats_merge_covers_every_field() {
        // Regression guard for the add-a-counter-forget-to-merge bug class:
        // all twelve fields distinct and nonzero on both sides, so a field
        // the merge body skips keeps its old value and fails its assertion.
        let mut a = ServeStats {
            submitted: 1,
            rejected: 2,
            cache_hits: 3,
            cache_stale_evictions: 4,
            engine_batches: 5,
            engine_queries: 6,
            coalesced: 7,
            worker_panics: 8,
            maintenance_ticks: 9,
            maintenance_seals: 10,
            maintenance_segments_merged: 11,
            maintenance_io_errors: 12,
        };
        a.merge(&ServeStats {
            submitted: 100,
            rejected: 200,
            cache_hits: 300,
            cache_stale_evictions: 400,
            engine_batches: 500,
            engine_queries: 600,
            coalesced: 700,
            worker_panics: 800,
            maintenance_ticks: 900,
            maintenance_seals: 1000,
            maintenance_segments_merged: 1100,
            maintenance_io_errors: 1200,
        });
        assert_eq!(a.submitted, 101);
        assert_eq!(a.rejected, 202);
        assert_eq!(a.cache_hits, 303);
        assert_eq!(a.cache_stale_evictions, 404);
        assert_eq!(a.engine_batches, 505);
        assert_eq!(a.engine_queries, 606);
        assert_eq!(a.coalesced, 707);
        assert_eq!(a.worker_panics, 808);
        assert_eq!(a.maintenance_ticks, 909);
        assert_eq!(a.maintenance_seals, 1010);
        assert_eq!(a.maintenance_segments_merged, 1111);
        assert_eq!(a.maintenance_io_errors, 1212);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = ServeStats {
            submitted: u64::MAX - 1,
            ..ServeStats::default()
        };
        a.merge(&ServeStats {
            submitted: 10,
            ..ServeStats::default()
        });
        assert_eq!(a.submitted, u64::MAX);
    }

    #[test]
    fn specs_normalizing_to_one_plan_share_a_cache_entry() {
        use lovo_video::QueryPredicate;
        let service = QueryService::start(engine(90), ServeConfig::default()).unwrap();
        let folded = QuerySpec::new("a bus")
            .with_predicate(QueryPredicate::videos([0, 1]).and(QueryPredicate::videos([1, 2])));
        let direct = QuerySpec::new("a bus").with_predicate(QueryPredicate::videos([1]));
        let miss = service.submit(folded).unwrap();
        assert!(!miss.cache_hit);
        let hit = service.submit(direct).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(hit.result.frames, miss.result.frames);
    }

    #[test]
    fn specs_normalizing_to_one_plan_share_a_batch_execution() {
        // The batch dedupe uses the cache's plan identity: the two specs
        // below compile to one plan, so one pass answers both with a single
        // execution. The second submission must land inside the first's
        // window; retry on a fresh service until both rode one pass.
        use lovo_video::QueryPredicate;
        let engine = engine(90);
        let folded = QuerySpec::new("a bus")
            .with_predicate(QueryPredicate::videos([0, 1]).and(QueryPredicate::videos([1, 2])));
        let direct = QuerySpec::new("a bus").with_predicate(QueryPredicate::videos([1]));
        let config = ServeConfig::default()
            .with_workers(1)
            .with_max_batch(2)
            .with_batch_window(Duration::from_millis(200))
            .with_cache_capacity(0)
            .with_maintenance_interval(None);
        for _ in 0..20 {
            let service = QueryService::start(Arc::clone(&engine), config).unwrap();
            let (first, second) = std::thread::scope(|scope| {
                let first = scope.spawn(|| service.submit(folded.clone()).unwrap());
                std::thread::sleep(Duration::from_millis(20));
                let second = service.submit(direct.clone()).unwrap();
                (first.join().unwrap(), second)
            });
            let stats = service.stats();
            if stats.engine_batches == 1 {
                assert_eq!(stats.engine_queries, 1, "{stats:?}");
                assert_eq!(first.result.frames, second.result.frames);
                return;
            }
        }
        panic!("the two submissions never shared a pass");
    }

    #[test]
    fn ingest_invalidates_cached_results() {
        // Maintenance off: a background compaction after the append would
        // bump the epoch a second time between the assertions below.
        let service = QueryService::start(
            engine(90),
            ServeConfig::default().with_maintenance_interval(None),
        )
        .unwrap();
        let spec = QuerySpec::new("a red car on the road");
        assert!(!service.submit(spec.clone()).unwrap().cache_hit);
        assert!(service.submit(spec.clone()).unwrap().cache_hit);

        let mut batch = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(90)
                .with_seed(23),
        );
        for video in &mut batch.videos {
            video.id += 1000;
        }
        service.engine().add_videos(&batch).unwrap();

        // The epoch moved: the next submission recomputes, then re-caches.
        let recomputed = service.submit(spec.clone()).unwrap();
        assert!(!recomputed.cache_hit);
        assert!(service.submit(spec).unwrap().cache_hit);
        assert!(service.stats().cache_stale_evictions >= 1);
    }

    #[test]
    fn overload_returns_typed_rejection() {
        // One worker, one-query batches, depth-1 queue: while one query
        // holds the only pass slot, one more can queue and the rest must be
        // refused. (Note `max_batch = 1` disables the coalescing window
        // entirely — the worker serves strictly one query at a time.)
        let config = ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(1)
            .with_max_batch(1)
            .with_cache_capacity(0)
            .with_maintenance_interval(None);
        let service = QueryService::start(engine(90), config).unwrap();
        let rejected = std::sync::atomic::AtomicU64::new(0);
        let submit = |text: String| match service.submit(QuerySpec::new(text)) {
            Ok(_) => {}
            Err(ServeError::Rejected { queue_depth }) => {
                assert_eq!(queue_depth, 1);
                rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(other) => panic!("unexpected error: {other}"),
        };
        // The other seven are spawned first and held at a barrier. The
        // first submission then leads its own pass, and the burst is
        // released only once `stats()` counts it admitted: the pass slot is
        // taken until its engine query returns, and its long text (the text
        // encoder's attention is quadratic in the word count) keeps that
        // query running for milliseconds, where two admissions take
        // microseconds.
        let burst = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for worker in 1..8 {
                let (submit, burst) = (&submit, &burst);
                scope.spawn(move || {
                    burst.wait();
                    submit(format!("a car number {worker}"));
                });
            }
            scope.spawn(|| submit(format!("a car number 0{}", " on the road".repeat(266))));
            while service.stats().submitted == 0 {
                std::thread::yield_now();
            }
            burst.wait();
        });
        assert!(rejected.load(Ordering::Relaxed) >= 1);
        assert_eq!(service.stats().rejected, rejected.load(Ordering::Relaxed));
    }

    #[test]
    fn identical_concurrent_submissions_coalesce_to_one_execution() {
        // One worker held busy by a first query forces the followers to pile
        // up in the queue; the long window then coalesces them into one
        // pass, and identical plans execute once.
        let config = ServeConfig::default()
            .with_workers(1)
            .with_batch_window(Duration::from_millis(50))
            .with_cache_capacity(0)
            .with_maintenance_interval(None);
        let service = QueryService::start(engine(90), config).unwrap();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..6 {
                let service = &service;
                handles
                    .push(scope.spawn(move || service.submit(QuerySpec::new("a bus on the road"))));
            }
            for handle in handles {
                let served = handle.join().unwrap().unwrap();
                assert!(!served.result.frames.is_empty());
            }
        });
        let stats = service.stats();
        // 6 submissions, at most a few engine executions (the first may run
        // alone before the rest pile up; the pile itself dedupes to one).
        assert_eq!(stats.submitted, 6);
        assert!(
            stats.engine_queries < 6,
            "identical plans should dedupe: {stats:?}"
        );
    }

    #[test]
    fn submission_queued_behind_a_leading_submitter_is_served() {
        // One pass slot. The first submitter finds the service idle and
        // leads its own pass; the second fills that batch (`max_batch = 2`);
        // the third is queued while the only slot is taken, so the worker
        // that its arrival wakes goes back to sleep — and must be woken again
        // when the leader gives the slot back. Whatever order the three
        // arrive in, all of them are answered.
        let config = ServeConfig::default()
            .with_workers(1)
            .with_max_batch(2)
            .with_batch_window(Duration::from_millis(20))
            .with_cache_capacity(0)
            .with_maintenance_interval(None);
        let service = Arc::new(QueryService::start(engine(90), config).unwrap());
        // Not scoped threads: a submission that is never served must fail
        // the test on the timeout below, not hang it in a join.
        let (done, answers) = mpsc::channel();
        let clients: Vec<_> = (0..3)
            .map(|client| {
                let service = Arc::clone(&service);
                let done = done.clone();
                std::thread::spawn(move || {
                    let served = service.submit(QuerySpec::new(format!("a car number {client}")));
                    let _ = done.send(served.map(|served| served.result.frames.len()));
                })
            })
            .collect();
        for _ in 0..3 {
            let frames = answers
                .recv_timeout(Duration::from_secs(60))
                .expect("a queued submission was never served")
                .expect("submit");
            assert!(frames > 0);
        }
        for client in clients {
            client.join().expect("client thread");
        }
        assert_eq!(service.stats().submitted, 3);
    }

    #[test]
    fn drop_drains_queued_submissions() {
        let config = ServeConfig::default()
            .with_workers(1)
            .with_batch_window(Duration::from_millis(20))
            .with_maintenance_interval(None);
        let service = QueryService::start(engine(90), config).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let service = &service;
                scope.spawn(move || {
                    let served = service.submit(QuerySpec::new("a car")).unwrap();
                    assert!(!served.result.frames.is_empty());
                });
            }
            // Dropping the service inside the scope races shutdown against
            // the submissions: each must either complete or see the typed
            // ShuttingDown error — never hang, never panic.
        });
        drop(service);
    }

    #[test]
    fn maintenance_compacts_fragmented_segments() {
        // Fragment the collection with several undersized appends, then let
        // maintenance (fast interval) compact them off the query path.
        let service = QueryService::start(
            engine(150),
            ServeConfig::default().with_maintenance_interval(Some(Duration::from_millis(10))),
        )
        .unwrap();
        let lovo = Arc::clone(service.engine());
        let mut offset = 1000u32;
        for seed in [41u64, 43, 47] {
            let mut batch = VideoCollection::generate(
                DatasetConfig::for_kind(DatasetKind::Bellevue)
                    .with_frames_per_video(150)
                    .with_seed(seed),
            );
            for video in &mut batch.videos {
                video.id += offset;
            }
            offset += 1000;
            lovo.add_videos(&batch).unwrap();
        }
        // Each append seals one undersized segment (default capacity 4096 is
        // far above a batch's rows), so maintenance has work; it may already
        // have merged mid-loop, so watch the lifetime counter, not a segment
        // snapshot.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().maintenance_segments_merged < 2 {
            assert!(Instant::now() < deadline, "maintenance never compacted");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(service.stats().maintenance_ticks >= 1);
        // Queries still answer over the compacted layout.
        let served = service.submit(QuerySpec::new("a bus on the road")).unwrap();
        assert!(!served.result.frames.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn maintenance_survives_durable_io_faults_and_recovers() {
        use lovo_store::durability::{points, FaultAction, FaultPlan};
        let root =
            std::env::temp_dir().join(format!("lovo-serve-maint-faults-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let plan = Arc::new(FaultPlan::new());
        let videos = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(90)
                .with_seed(7),
        );
        let lovo = Arc::new(
            Lovo::build_durable(
                &videos,
                LovoConfig::default(),
                &root,
                lovo_core::DurabilityConfig::new().with_faults(Arc::clone(&plan)),
            )
            .unwrap(),
        );
        // Fragment the store so maintenance compaction has durable work.
        let mut offset = 1000u32;
        for seed in [41u64, 43] {
            let mut batch = VideoCollection::generate(
                DatasetConfig::for_kind(DatasetKind::Bellevue)
                    .with_frames_per_video(90)
                    .with_seed(seed),
            );
            for video in &mut batch.videos {
                video.id += offset;
            }
            offset += 1000;
            lovo.add_videos(&batch).unwrap();
        }
        let service = QueryService::start(
            Arc::clone(&lovo),
            ServeConfig::default().with_maintenance_interval(Some(Duration::from_millis(5))),
        )
        .unwrap();
        // Keep a manifest-write failure armed: every compaction attempt hits
        // real durable I/O and fails. The thread must count the errors and
        // stay alive (backing off), not die or panic.
        let deadline = Instant::now() + Duration::from_secs(20);
        while service.stats().maintenance_io_errors < 2 {
            plan.inject(points::MANIFEST_WRITE, FaultAction::Fail);
            assert!(
                Instant::now() < deadline,
                "maintenance never recorded the injected I/O failures"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The service keeps serving while maintenance is failing.
        let served = service.submit(QuerySpec::new("a bus on the road")).unwrap();
        assert!(!served.result.frames.is_empty());
        // Withdraw the fault. The first failing tick already compacted in
        // memory — only its manifest write failed — so the retry's job is to
        // re-sync the manifest. Give it a few ticks (backoff caps at 32
        // intervals), then prove convergence by reopening from disk.
        while plan.take(points::MANIFEST_WRITE).is_some() {}
        let settled = service.stats().maintenance_ticks + 3;
        let deadline = Instant::now() + Duration::from_secs(20);
        while service.stats().maintenance_ticks < settled {
            assert!(Instant::now() < deadline, "maintenance ticks stalled");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(service);
        drop(lovo);
        let (reopened, report) = Lovo::open(
            LovoConfig::default(),
            &root,
            lovo_core::DurabilityConfig::new(),
        )
        .unwrap();
        assert!(
            report.is_clean(),
            "retried manifest sync must have converged"
        );
        assert_eq!(
            reopened.collection_stats().sealed_segments,
            1,
            "the interrupted compaction must have committed on retry"
        );
        let result = reopened.query("a bus on the road").unwrap();
        assert!(!result.frames.is_empty());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }
}
