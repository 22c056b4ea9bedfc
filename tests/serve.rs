//! Cross-crate serving-layer tests: the `QueryService` hammered from many
//! threads while the engine ingests concurrently.
//!
//! The load-bearing invariant is *freshness through the cache*: every cached
//! result is stamped with the ingest epoch it was computed under, and any
//! insert/seal/compaction bumps the live epoch, so a submission can never be
//! answered from a pre-ingest cache entry once the ingest has committed.

use lovo::core::{Lovo, LovoConfig, QuerySpec};
use lovo::serve::{
    partition_videos, HashPlacement, LocalShard, QueryService, ServeConfig, ServeError,
    ShardConfig, ShardRouter,
};
use lovo::video::{DatasetConfig, DatasetKind, QueryPredicate, VideoCollection};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn collection(frames: usize, seed: u64, id_offset: u32) -> VideoCollection {
    let mut videos = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_frames_per_video(frames)
            .with_seed(seed),
    );
    for video in &mut videos.videos {
        video.id += id_offset;
    }
    videos
}

/// Ingest epochs in the per-shard vector form the shard router exposes
/// (`ShardRouter::epochs`). A standalone engine is the one-shard case; the
/// freshness assertions below are written against the vector so they state
/// the invariant that actually generalizes: entry `s` moves exactly when
/// shard `s`'s collection changes.
fn engine_epochs(engine: &Lovo) -> Vec<u64> {
    vec![engine.ingest_epoch()]
}

/// True when any shard's epoch advanced past its `before` counterpart.
fn any_epoch_advanced(before: &[u64], now: &[u64]) -> bool {
    before.iter().zip(now).any(|(b, n)| n > b)
}

#[test]
fn sixteen_threads_hammering_during_concurrent_ingest() {
    let engine =
        Arc::new(Lovo::build(&collection(180, 7, 0), LovoConfig::default()).expect("build engine"));
    let service = QueryService::start(
        Arc::clone(&engine),
        // Generous queue so this test exercises freshness, not admission
        // (overload has its own test below); short window to keep latency low.
        ServeConfig::default()
            .with_queue_depth(4096)
            .with_batch_window(Duration::from_micros(200)),
    )
    .expect("start service");

    let queries = [
        "a red car driving in the center of the road",
        "a bus driving on the road",
        "a person walking on the sidewalk",
        "a car on the road",
    ];
    let epochs_before = engine_epochs(&engine);
    let ingest_done = AtomicBool::new(false);
    let post_ingest_submissions = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // One ingest thread appending two batches mid-flight.
        {
            let engine = Arc::clone(&engine);
            let ingest_done = &ingest_done;
            scope.spawn(move || {
                for (round, seed) in [31u64, 37].into_iter().enumerate() {
                    let batch = collection(120, seed, 1000 * (round as u32 + 1));
                    engine.add_videos(&batch).expect("append");
                }
                ingest_done.store(true, Ordering::SeqCst);
            });
        }
        // 16 query threads hammering the service throughout.
        for worker in 0..16 {
            let service = &service;
            let engine = &engine;
            let epochs_before = &epochs_before;
            let ingest_done = &ingest_done;
            let post_ingest_submissions = &post_ingest_submissions;
            let text = queries[worker % queries.len()];
            scope.spawn(move || {
                // Keep hammering until the ingest has committed AND at least
                // a couple of post-ingest rounds ran, so invalidation is
                // always exercised regardless of relative thread speed.
                let mut rounds_after_ingest = 0;
                while rounds_after_ingest < 2 {
                    if ingest_done.load(Ordering::SeqCst) {
                        rounds_after_ingest += 1;
                    }
                    // Reading the epoch BEFORE submitting makes the freshness
                    // assertion sound: if the ingest had already committed by
                    // then, a stale pre-ingest answer must be impossible.
                    let ingest_was_done = ingest_done.load(Ordering::SeqCst);
                    let epochs_seen = engine_epochs(engine);
                    let served = service.submit(QuerySpec::new(text)).expect("submit");
                    assert!(!served.result.frames.is_empty());
                    for pair in served.result.frames.windows(2) {
                        assert!(pair[0].score >= pair[1].score);
                    }
                    if ingest_was_done {
                        post_ingest_submissions.fetch_add(1, Ordering::Relaxed);
                        // No stale hit across the epoch bump: whatever this
                        // submission was answered from (engine pass or cache
                        // entry) was computed at a post-ingest epoch, which
                        // means pre-ingest cache entries were NOT served.
                        if served.cache_hit {
                            assert!(
                                any_epoch_advanced(epochs_before, &epochs_seen),
                                "cache hit served although no shard's epoch ever moved?"
                            );
                        }
                    }
                }
            });
        }
    });

    assert!(
        any_epoch_advanced(&epochs_before, &engine_epochs(&engine)),
        "ingest must bump the ingesting shard's epoch"
    );
    assert!(
        post_ingest_submissions.load(Ordering::Relaxed) > 0,
        "some submissions must land after the ingest to exercise invalidation"
    );
    let stats = service.stats();
    assert!(stats.submitted >= 16 * 2);
    assert_eq!(stats.rejected, 0);
    // The epoch bumps evicted at least the entries cached before the ingest
    // and re-requested after it.
    assert!(
        stats.cache_stale_evictions > 0,
        "expected stale evictions across the ingest: {stats:?}"
    );
    // With 4 distinct texts hammered by 16 threads, the cache must have
    // soaked up repeat traffic between epoch bumps.
    assert!(stats.cache_hits > 0, "{stats:?}");

    // Deterministic tail check: with the collection now quiescent, the first
    // submission of a fresh text computes, the second hits, and both see the
    // appended videos' footage searchable.
    let fresh = QuerySpec::new("a red car side by side with another car");
    let computed = service.submit(fresh.clone()).expect("submit");
    assert!(!computed.cache_hit);
    let cached = service.submit(fresh).expect("submit");
    assert!(cached.cache_hit);
    assert_eq!(cached.result.frames, computed.result.frames);
}

#[test]
fn overload_surfaces_typed_rejection_without_wedging_the_service() {
    let engine =
        Arc::new(Lovo::build(&collection(120, 5, 0), LovoConfig::default()).expect("build engine"));
    // One worker, one-query batches (`max_batch = 1` disables the coalescing
    // window), depth-2 queue: the throttle is per-query engine latency
    // (milliseconds) against a 16-thread burst arriving within microseconds,
    // so at most in-flight + 2 queued submissions can be served promptly and
    // the rest must be refused at the door.
    let service = QueryService::start(
        Arc::clone(&engine),
        ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(2)
            .with_max_batch(1)
            .with_cache_capacity(0)
            .with_maintenance_interval(None),
    )
    .expect("start service");

    let rejected = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client in 0..16 {
            let service = &service;
            let rejected = &rejected;
            let completed = &completed;
            scope.spawn(move || {
                match service.submit(QuerySpec::new(format!("a car number {client}"))) {
                    Ok(served) => {
                        assert!(served.result.timings.queue_seconds >= 0.0);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServeError::Rejected { queue_depth }) => {
                        assert_eq!(queue_depth, 2);
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            });
        }
    });
    // 16 near-simultaneous one-shot clients against a depth-2 queue and a
    // serve-one-at-a-time worker: some must be refused, the rest served.
    assert!(
        rejected.load(Ordering::Relaxed) >= 1,
        "no rejection under overload"
    );
    assert!(completed.load(Ordering::Relaxed) >= 1, "nothing completed");
    assert_eq!(
        rejected.load(Ordering::Relaxed) + completed.load(Ordering::Relaxed),
        16
    );
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected.load(Ordering::Relaxed) as u64);

    // The service is not wedged: a follow-up submission completes normally.
    let served = service
        .submit(QuerySpec::new("a bus"))
        .expect("post-overload submit");
    assert!(served.result.timings.queue_seconds >= 0.0);
}

#[test]
fn drop_under_load_completes_or_types_every_submission() {
    let engine = Arc::new(
        Lovo::build(&collection(120, 13, 0), LovoConfig::default()).expect("build engine"),
    );
    // Shared ownership so the teardown races the load for real: the main
    // thread relinquishes its handle while clients are mid-submit, and the
    // service Drop (stop admitting → drain the queue → join workers and the
    // maintenance thread) runs on whichever thread lets go of the last
    // reference — with the ingest thread still appending against the same
    // engine throughout.
    let service = Arc::new(
        QueryService::start(
            Arc::clone(&engine),
            // One slow worker and one-query batches so the queue is
            // genuinely non-empty for most of the run.
            ServeConfig::default()
                .with_workers(1)
                .with_queue_depth(64)
                .with_max_batch(1)
                .with_cache_capacity(0),
        )
        .expect("start service"),
    );

    let completed = Arc::new(AtomicUsize::new(0));
    let typed_errors = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();

    // Racing ingest through an engine handle independent of the service.
    {
        let engine = Arc::clone(&engine);
        handles.push(std::thread::spawn(move || {
            engine
                .add_videos(&collection(90, 41, 5000))
                .expect("append during teardown");
        }));
    }

    const CLIENTS: usize = 12;
    const ROUNDS: usize = 3;
    for client in 0..CLIENTS {
        let service = Arc::clone(&service);
        let completed = Arc::clone(&completed);
        let typed_errors = Arc::clone(&typed_errors);
        handles.push(std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let spec = QuerySpec::new(format!("a car number {client} round {round}"));
                match service.submit(spec) {
                    Ok(served) => {
                        assert!(!served.result.frames.is_empty());
                        assert!(served.result.timings.queue_seconds >= 0.0);
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    // The only acceptable refusals are the typed ones.
                    Err(ServeError::Rejected { .. }) | Err(ServeError::ShuttingDown) => {
                        typed_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("submission neither served nor typed-refused: {other}"),
                }
            }
        }));
    }

    // Let go of the main handle while the clients above are still queued.
    drop(service);

    // Every thread joins — the drain guarantee means nothing can hang on an
    // unanswered reply channel, and no worker panics (a panicking pass
    // would surface as `WorkerLost`, which the match above rejects).
    for handle in handles {
        handle.join().expect("join under-teardown thread");
    }
    let completed = completed.load(Ordering::Relaxed);
    let typed_errors = typed_errors.load(Ordering::Relaxed);
    assert_eq!(completed + typed_errors, CLIENTS * ROUNDS);
    assert!(completed > 0, "nothing completed under load");

    // The racing ingest landed: the engine is still consistent afterwards.
    assert!(!engine
        .query("a car on the road")
        .expect("post-teardown query")
        .frames
        .is_empty());
}

#[test]
fn served_wait_time_separates_queue_from_engine_stages() {
    let engine =
        Arc::new(Lovo::build(&collection(120, 9, 0), LovoConfig::default()).expect("build engine"));
    // A 25 ms batch window with one worker guarantees a measurable serve-side
    // wait for submissions that arrive while the window is open.
    let service = QueryService::start(
        Arc::clone(&engine),
        ServeConfig::default()
            .with_workers(1)
            .with_batch_window(Duration::from_millis(25))
            .with_cache_capacity(0)
            .with_maintenance_interval(None),
    )
    .expect("start service");

    let direct = engine
        .query("a bus driving on the road")
        .expect("direct query");
    assert_eq!(direct.timings.queue_seconds, 0.0);
    assert!(direct.breakdown().starts_with("wait 0.00ms"));

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..3 {
            let service = &service;
            handles.push(scope.spawn(move || {
                service
                    .submit(QuerySpec::new("a bus driving on the road"))
                    .expect("submit")
            }));
        }
        let mut max_wait = 0.0f64;
        for handle in handles {
            let served = handle.join().expect("join client");
            let timings = served.result.timings;
            assert!(timings.queue_seconds >= 0.0);
            assert!(timings.total_seconds() >= timings.queue_seconds);
            max_wait = max_wait.max(timings.queue_seconds);
        }
        // At least one submission waited out (part of) the batch window.
        assert!(
            max_wait >= 0.005,
            "expected a visible batch-window wait, got {max_wait}s"
        );
    });
}

#[test]
fn served_miss_scans_exactly_as_a_direct_query_does() {
    // Three sealed segments: the store's own rule scans them on the
    // caller's thread, and a served miss must do precisely that too — the
    // service has no scan-thread policy of its own. Maintenance off so the
    // appended segments are not compacted away; cache off so the submission
    // executes.
    let engine =
        Arc::new(Lovo::build(&collection(90, 7, 0), LovoConfig::default()).expect("build engine"));
    for (round, seed) in [51u64, 53].into_iter().enumerate() {
        engine
            .add_videos(&collection(90, seed, 1000 * (round as u32 + 1)))
            .expect("append");
    }
    assert!(engine.collection_stats().sealed_segments >= 2);
    let service = QueryService::start(
        Arc::clone(&engine),
        ServeConfig::default()
            .with_cache_capacity(0)
            .with_maintenance_interval(None),
    )
    .expect("start service");

    let spec = QuerySpec::new("a bus driving on the road");
    let direct = engine.query_spec(&spec).expect("direct query");
    let served = service.submit(spec).expect("submit");
    assert!(!served.cache_hit);
    assert!(!direct.frames.is_empty());
    assert_eq!(served.result.frames, direct.frames);
    assert_eq!(served.result.search_stats, direct.search_stats);
}

#[test]
fn served_stage_timings_fit_inside_the_callers_wall_clock() {
    // On an idle service a miss's wait ends when the worker picks it up, and
    // the engine stages follow it: wait + encode + prune + coarse + rerank
    // are disjoint slices of the caller's own `submit` call.
    let engine =
        Arc::new(Lovo::build(&collection(120, 9, 0), LovoConfig::default()).expect("build engine"));
    let service = QueryService::start(
        engine,
        ServeConfig::default().with_maintenance_interval(None),
    )
    .expect("start service");
    let start = Instant::now();
    let served = service
        .submit(QuerySpec::new(
            "a red car driving in the center of the road",
        ))
        .expect("submit");
    let wall_seconds = start.elapsed().as_secs_f64();
    assert!(!served.cache_hit);
    let timings = served.result.timings;
    assert!(timings.rerank_seconds > 0.0);
    assert!(
        timings.total_seconds() <= wall_seconds,
        "stages sum to {:.6}s but submit took {wall_seconds:.6}s: {timings:?}",
        timings.total_seconds()
    );
}

/// Two shard engines over a four-video Bellevue collection, a router over
/// them, and a `QueryService` serving that router. Maintenance is off: a
/// background compaction would move an epoch between a test's assertions.
struct TwoShardService {
    videos: VideoCollection,
    placement: HashPlacement,
    engines: Vec<Arc<Lovo>>,
    router: Arc<ShardRouter>,
    service: QueryService<ShardRouter>,
}

impl TwoShardService {
    fn start(seed: u64) -> Self {
        let videos = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_num_videos(4)
                .with_frames_per_video(60)
                .with_seed(seed),
        );
        let config = LovoConfig::default();
        let placement = HashPlacement::new(2);
        let engines: Vec<Arc<Lovo>> = partition_videos(&videos, placement)
            .iter()
            .map(|part| Arc::new(Lovo::build(part, config).expect("build shard engine")))
            .collect();
        assert_eq!(engines.len(), 2, "two shard engines expected");
        let shards: Vec<Arc<dyn lovo::serve::EngineShard>> = engines
            .iter()
            .map(|engine| {
                Arc::new(LocalShard::new(Arc::clone(engine))) as Arc<dyn lovo::serve::EngineShard>
            })
            .collect();
        let router = Arc::new(
            ShardRouter::new(shards, placement, config, ShardConfig::default())
                .expect("build router"),
        );
        let service = QueryService::start(
            Arc::clone(&router),
            ServeConfig::default().with_maintenance_interval(None),
        )
        .expect("start service");
        Self {
            videos,
            placement,
            engines,
            router,
            service,
        }
    }

    /// Submits through the service and returns whether it hit the cache. A
    /// hit must not reach any shard, a miss must, and either way the answer
    /// is the router's direct answer.
    fn submit(&self, spec: &QuerySpec) -> bool {
        let before = self.router.stats().coarse_requests;
        let served = self.service.submit(spec.clone()).expect("submit");
        let scattered = self.router.stats().coarse_requests - before;
        assert!(served.outages.is_empty());
        assert_eq!(served.cache_hit, scattered == 0, "{scattered} coarse legs");
        let direct = self.router.query_spec(spec).expect("direct query");
        assert_eq!(served.result.frames, direct.result.frames);
        served.cache_hit
    }

    /// Ingests eight fresh videos into shard 0 only — respecting the
    /// placement, so the router's ownership map stays truthful.
    fn ingest_into_shard0(&self, seed: u64, id_offset: u32) {
        let mut fresh = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_num_videos(8)
                .with_frames_per_video(45)
                .with_seed(seed),
        );
        for video in &mut fresh.videos {
            video.id += id_offset;
        }
        let batch = partition_videos(&fresh, self.placement).swap_remove(0);
        assert!(
            !batch.videos.is_empty(),
            "batch must place videos on shard 0"
        );
        self.engines[0]
            .add_videos(&batch)
            .expect("ingest into shard 0");
    }
}

#[test]
fn sharded_epochs_and_caches_move_per_shard() {
    // The per-shard generalization of the freshness invariant above: a
    // `QueryService` serves a two-shard router the way it serves an engine.
    // Ingesting into shard 0 moves exactly that shard's entry in
    // `ShardRouter::epochs` and stales exactly the plans that target it: a
    // plan scoped to shard 1 keeps answering from the cache across the
    // ingest.
    let fleet = TwoShardService::start(21);
    let unfiltered = QuerySpec::new("a car on the road");
    let shard1_video = fleet
        .videos
        .videos
        .iter()
        .map(|video| video.id)
        .find(|&id| fleet.placement.shard_of(id) == 1)
        .expect("shard 1 holds at least one video");
    let scoped = QuerySpec::new("a bus driving on the road")
        .with_predicate(QueryPredicate::videos([shard1_video]));
    assert!(!fleet.submit(&unfiltered));
    assert!(
        fleet.submit(&unfiltered),
        "repeat should hit the service cache"
    );
    assert!(!fleet.submit(&scoped));
    assert!(fleet.submit(&scoped), "repeat should hit the service cache");

    let epochs_before = fleet.router.epochs();
    assert_eq!(epochs_before.len(), 2);
    fleet.ingest_into_shard0(77, 1000);
    let epochs_after = fleet.router.epochs();
    assert!(
        epochs_after[0] > epochs_before[0],
        "ingesting shard's epoch must advance: {epochs_before:?} -> {epochs_after:?}"
    );
    assert_eq!(
        epochs_after[1], epochs_before[1],
        "idle shard's epoch must not move: {epochs_before:?} -> {epochs_after:?}"
    );

    // The unfiltered plan sees shard 0: stale, recomputed, then cached
    // again. The scoped plan sees only shard 1: still fresh.
    assert!(
        !fleet.submit(&unfiltered),
        "shard 0 moved under the unfiltered plan"
    );
    assert!(fleet.submit(&unfiltered));
    assert!(
        fleet.submit(&scoped),
        "shard 1 did not move under the scoped plan"
    );
}

#[test]
fn sharded_result_cache_serves_repeats_until_a_shard_ingests() {
    // The service's result cache in front of a router: a repeat plan over
    // unchanged shards is answered without any scatter, and an ingest into
    // a shard the plan targets forces a recompute.
    let fleet = TwoShardService::start(33);
    let spec = QuerySpec::new("a bus driving on the road");
    assert!(!fleet.submit(&spec));
    assert!(fleet.submit(&spec), "repeat should skip the scatter");
    assert_eq!(fleet.service.stats().cache_hits, 1);

    fleet.ingest_into_shard0(91, 2000);
    assert!(
        !fleet.submit(&spec),
        "shard 0's epoch moved — the cached result must not be served"
    );
    let stats = fleet.service.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_stale_evictions, 1);
    assert_eq!(stats.engine_queries, 2);
}
