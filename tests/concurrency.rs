//! Concurrent-access coverage for the `Lovo` engine: many threads querying
//! while others read stats and metadata. The segmented storage engine
//! reshaped the `RwLock` paths inside `VectorDatabase` (per-batch write
//! locking, fan-out reads across segments); these tests pin down that
//! read-side concurrency stays safe and coherent.

use lovo_core::{Lovo, LovoConfig};
use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};
use std::sync::atomic::{AtomicUsize, Ordering};

fn build_engine(frames: usize) -> Lovo {
    let videos = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_frames_per_video(frames)
            .with_seed(77),
    );
    // A small segment capacity forces a multi-segment collection, so every
    // query thread walks many segments under the collection read lock.
    Lovo::build(&videos, LovoConfig::default().with_segment_capacity(300)).expect("build")
}

#[test]
fn concurrent_queries_and_stats_reads_are_coherent() {
    let lovo = build_engine(240);
    let expected_patches = lovo.indexed_patches();
    assert!(lovo.collection_stats().sealed_segments > 1);

    let queries = [
        "a red car driving in the center of the road",
        "a bus driving on the road",
        "a red car side by side with another car",
        "a car on the road",
    ];
    let completed = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Query threads: repeated two-stage searches.
        for (worker, text) in queries.iter().enumerate() {
            let lovo = &lovo;
            let completed = &completed;
            scope.spawn(move || {
                for round in 0..3 {
                    let result = lovo.query(text).expect("query");
                    assert!(
                        !result.frames.is_empty(),
                        "worker {worker} round {round} got no frames"
                    );
                    // Scores stay sorted under concurrency.
                    for pair in result.frames.windows(2) {
                        assert!(pair[0].score >= pair[1].score);
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Stats/metadata readers racing the queries on the same RwLocks.
        for _ in 0..2 {
            let lovo = &lovo;
            scope.spawn(move || {
                for _ in 0..20 {
                    assert_eq!(lovo.indexed_patches(), expected_patches);
                    let stats = lovo.collection_stats();
                    assert_eq!(stats.entities, expected_patches);
                    assert!(stats.sealed_segments > 1);
                    assert!(lovo.storage_bytes() > 0);
                    assert_eq!(lovo.database().metadata_rows(), expected_patches);
                    std::thread::yield_now();
                }
            });
        }
    });

    assert_eq!(completed.load(Ordering::Relaxed), queries.len() * 3);
}

#[test]
fn queries_race_metadata_frame_lookups() {
    let lovo = build_engine(180);
    let sample_frame = {
        let result = lovo.query("a car on the road").expect("seed query");
        let top = &result.frames[0];
        (top.video_id, top.frame_index)
    };

    std::thread::scope(|scope| {
        let lovo = &lovo;
        scope.spawn(move || {
            for _ in 0..3 {
                let result = lovo.query("a bus driving on the road").expect("query");
                assert!(result.fast_search_candidates > 0);
            }
        });
        scope.spawn(move || {
            for _ in 0..50 {
                // Rerank-style metadata reads: all patches of a frame.
                let patches = lovo
                    .database()
                    .frame_patches(sample_frame.0, sample_frame.1);
                assert!(!patches.is_empty());
                for patch in &patches {
                    assert_eq!(patch.video_id, sample_frame.0);
                    assert_eq!(patch.frame_index, sample_frame.1);
                }
                std::thread::yield_now();
            }
        });
    });
}
