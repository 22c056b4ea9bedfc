//! End-to-end predicate pushdown: a time-window + object-class predicate
//! travels from the `QuerySpec` through the planner, the metadata join, the
//! segment fan-out and the index scans — and every returned frame satisfies
//! it. Also checks the batch path against the single-query path and the
//! video-subset scenario ("find X in camera 2").

use lovo_core::{Lovo, LovoConfig, QuerySpec};
use lovo_video::{DatasetConfig, DatasetKind, ObjectClass, QueryPredicate, VideoCollection};

fn multi_camera_collection() -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(3)
            .with_frames_per_video(240)
            .with_seed(29),
    )
}

#[test]
fn time_window_and_class_predicate_through_a_plan_batch() {
    let videos = multi_camera_collection();
    let lovo = Lovo::build(&videos, LovoConfig::default()).expect("build");

    // Frames run 0..240 at 30 fps => timestamps 0..8s. Constrain to the
    // middle of the footage and to buses only.
    let window = (2.0, 6.0);
    let predicate =
        QueryPredicate::time_range(window.0, window.1).and(QueryPredicate::class(ObjectClass::Bus));
    let specs = [
        QuerySpec::new("a bus driving on the road").with_predicate(predicate.clone()),
        QuerySpec::new("a red car driving in the center of the road"),
    ];
    let plans = specs.each_ref().map(|spec| lovo.plan(spec));
    let results = lovo.query_plans(&plans).expect("query batch");
    assert_eq!(results.len(), 2);

    let filtered = &results[0];
    assert!(
        !filtered.frames.is_empty(),
        "no frames for the filtered bus query"
    );
    for ranked in &filtered.frames {
        assert!(
            ranked.timestamp >= window.0 && ranked.timestamp <= window.1,
            "frame at {:.2}s escaped the {:?} window",
            ranked.timestamp,
            window
        );
        // The class pushdown admits only patches whose dominant object is a
        // bus, so every candidate frame must actually contain one.
        let frame = &videos.videos[ranked.video_id as usize].frames[ranked.frame_index as usize];
        assert!(
            frame
                .objects
                .iter()
                .any(|o| o.attributes.class == ObjectClass::Bus),
            "video {} frame {} has no bus",
            ranked.video_id,
            ranked.frame_index
        );
    }
    // The pushdown did real work: candidates were masked inside the scans.
    assert!(filtered.search_stats.filtered_out > 0);
    assert!(filtered.timings.prune_seconds > 0.0);

    // The unfiltered companion query is unconstrained and unaffected.
    assert!(!results[1].frames.is_empty());
    assert_eq!(results[1].search_stats.filtered_out, 0);

    // Batch results match the single-query path (same plan, same engine).
    let single = lovo.query_spec(&specs[0]).expect("single query");
    let keys = |r: &lovo_core::QueryResult| -> Vec<(u32, u32)> {
        r.frames
            .iter()
            .map(|f| (f.video_id, f.frame_index))
            .collect()
    };
    assert_eq!(keys(filtered), keys(&single));
}

#[test]
fn video_subset_predicate_prunes_other_cameras() {
    let videos = multi_camera_collection();
    let lovo =
        Lovo::build(&videos, LovoConfig::default().with_segment_capacity(1024)).expect("build");

    let spec = QuerySpec::new("a red car driving in the center of the road")
        .with_predicate(QueryPredicate::videos([2]));
    let result = lovo.query_spec(&spec).expect("query");
    assert!(!result.frames.is_empty());
    assert!(result.frames.iter().all(|f| f.video_id == 2));
    // Video-contiguous segments + zone maps: at least one segment of the
    // other two cameras was pruned without being probed.
    assert!(
        result.search_stats.segments_pruned > 0,
        "expected zone-map pruning, stats: {:?}",
        result.search_stats
    );
}
