//! Incremental ingest: append new footage to a live LOVO deployment without
//! rebuilding what is already indexed.
//!
//! The segmented storage engine makes `Lovo::add_videos` cost proportional to
//! the appended batch: new patches land in a growing segment that seals into
//! its own ANN index, existing sealed segments are untouched, and queries fan
//! out over all segments in one pass. After many small appends, `compact()`
//! merges undersized segments to bound the fan-out width.
//!
//! ```bash
//! cargo run --release --example incremental_ingest
//! ```

use lovo_core::{Lovo, LovoConfig};
use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};

fn main() {
    let frames = 400;
    let base = DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(frames);

    // 1. Initial deployment over the first night of footage.
    let first = VideoCollection::generate(base.clone().with_seed(101));
    let lovo = Lovo::build(&first, LovoConfig::default()).expect("build LOVO");
    let stats = lovo.collection_stats();
    println!(
        "initial build: {} patches in {} sealed segment(s), {} index build(s), {:.2}s",
        stats.entities,
        stats.sealed_segments,
        stats.index_builds,
        lovo.ingest_stats().total_seconds()
    );

    // 2. New footage arrives (e.g. the next camera shift): append it.
    //    Video ids must be fresh — patch ids embed them.
    let mut offset = first.videos.len() as u32;
    for (night, seed) in [(2u32, 103u64), (3, 107)] {
        let mut batch = VideoCollection::generate(base.clone().with_seed(seed));
        for video in &mut batch.videos {
            video.id += offset;
        }
        offset += batch.videos.len() as u32;

        let run = lovo.add_videos(&batch).expect("append batch");
        let stats = lovo.collection_stats();
        println!(
            "night {night}: appended {} patches in {:.2}s — sealed {} new segment(s), \
             collection now {} entities / {} segments ({} lifetime builds)",
            run.patches_indexed,
            run.total_seconds(),
            run.segments_sealed,
            stats.entities,
            stats.sealed_segments,
            stats.index_builds
        );
    }

    // 3. Queries span everything ingested so far.
    let query = "a red car driving in the center of the road";
    let result = lovo.query(query).expect("query");
    println!(
        "\nquery: {query}\n  {} candidates from {} segment(s) in {:.4}s, top hit video {} frame {}",
        result.fast_search_candidates,
        result.search_stats.segments_probed,
        result.timings.fast_search_seconds,
        result.frames[0].video_id,
        result.frames[0].frame_index
    );

    // 4. Housekeeping: merge the undersized per-night segments.
    let entities_before = lovo.collection_stats().entities;
    let compaction = lovo.compact().expect("compact");
    let stats = lovo.collection_stats();
    println!(
        "\ncompaction: merged {} undersized segment(s) into {}, fan-out now {} segment(s)",
        compaction.segments_merged, compaction.segments_created, stats.sealed_segments
    );
    assert_eq!(
        stats.entities, entities_before,
        "compaction must not lose rows"
    );

    let after = lovo.query(query).expect("query after compaction");
    assert!(!after.frames.is_empty());
    println!(
        "post-compaction query probes {} segment(s), top hit video {} frame {}",
        after.search_stats.segments_probed, after.frames[0].video_id, after.frames[0].frame_index
    );
}
