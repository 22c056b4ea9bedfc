//! Cross-crate serving-layer tests: the `QueryService` hammered from many
//! threads while the engine ingests concurrently.
//!
//! The load-bearing invariant is *freshness through the cache*: every cached
//! result is stamped with the ingest epoch it was computed under, and any
//! insert/seal/compaction bumps the live epoch, so a submission can never be
//! answered from a pre-ingest cache entry once the ingest has committed.

use lovo::core::{Lovo, LovoConfig, QuerySpec};
use lovo::serve::{QueryService, ServeConfig, ServeError};
use lovo::video::{DatasetConfig, DatasetKind, VideoCollection};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
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

/// The engine's ingest epoch, the snapshot the freshness assertions below
/// compare.
fn engine_epoch(engine: &Lovo) -> u64 {
    engine.ingest_epoch()
}

/// True when the epoch advanced past `before`.
fn epoch_advanced(before: u64, now: u64) -> bool {
    now > before
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
    let epochs_before = engine_epoch(&engine);
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
                    let epochs_seen = engine_epoch(engine);
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
                                epoch_advanced(*epochs_before, epochs_seen),
                                "cache hit served although the epoch never moved?"
                            );
                        }
                    }
                }
            });
        }
    });

    assert!(
        epoch_advanced(epochs_before, engine_epoch(&engine)),
        "ingest must bump the engine's epoch"
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
    // appended videos' footage searchable. Quiescent means maintenance has
    // nothing left to compact: a compaction of the appended segments bumps
    // the epoch, and one landing between the two submissions rightly makes
    // the second miss. A tick that starts after the snapshot below has ended
    // once the next one starts (ticks run one after another on one thread);
    // when it merged nothing, the collection is compacted.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let before = service.stats();
        while service.stats().maintenance_ticks < before.maintenance_ticks + 2 {
            assert!(Instant::now() < deadline, "maintenance stopped ticking");
            std::thread::sleep(Duration::from_millis(20));
        }
        if service.stats().maintenance_segments_merged == before.maintenance_segments_merged {
            break;
        }
    }
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
    // window), depth-2 queue: while one query holds the only pass slot, two
    // more can queue and every further submission must be refused at the
    // door.
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
    let submit = |text: String| match service.submit(QuerySpec::new(text)) {
        Ok(served) => {
            assert!(served.result.timings.queue_seconds >= 0.0);
            completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(ServeError::Rejected { queue_depth }) => {
            assert_eq!(queue_depth, 2);
            rejected.fetch_add(1, Ordering::Relaxed);
        }
        Err(other) => panic!("unexpected error: {other}"),
    };
    // The burst is not raced against the engine. Its 15 clients are spawned
    // first and held at a barrier. Client 0 then finds the service idle and
    // runs its query on its own thread, holding the only pass slot from the
    // moment `stats()` counts it admitted until its engine query returns —
    // and its text is long: the text encoder's self-attention is quadratic
    // in the word count, so that query takes tens of milliseconds (a second
    // in a debug build), against the microseconds three admissions take.
    // Only then is the burst released.
    let burst = Barrier::new(16);
    std::thread::scope(|scope| {
        for client in 1..16 {
            let (submit, burst) = (&submit, &burst);
            scope.spawn(move || {
                burst.wait();
                submit(format!("a car number {client}"));
            });
        }
        scope.spawn(|| submit(format!("a car number 0{}", " on the road".repeat(266))));
        while service.stats().submitted == 0 {
            std::thread::yield_now();
        }
        burst.wait();
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
