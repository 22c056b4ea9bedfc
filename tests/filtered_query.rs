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

/// One returned frame of [`SCOPED_GOLDEN`]: video, frame, score bits.
type GoldenFrame = (u32, u32, u32);

/// The six predicate scopes the `coarse_large` benchmark workload issues per
/// text, for text number `i = 0` over three cameras of eight seconds.
fn six_scopes() -> [(&'static str, QueryPredicate); 6] {
    [
        ("any", QueryPredicate::Any),
        ("one camera", QueryPredicate::videos([1])),
        ("four cameras", QueryPredicate::videos([1, 2, 0])),
        ("time window", QueryPredicate::time_range(2.0, 4.0)),
        ("class", QueryPredicate::class(ObjectClass::Car)),
        (
            "camera and time",
            QueryPredicate::videos([1]).and(QueryPredicate::time_range(0.0, 4.0)),
        ),
    ]
}

/// What `Lovo::query_spec` returned for the six scopes at commit 5d46c97,
/// rerank off and four sealed segments, when predicates were still joined
/// against every metadata row and candidates sorted at every level. The
/// frame directory, the range and posting filters and the buffered selector
/// are exact, so every frame and every score bit must come back the same.
#[rustfmt::skip]
const SCOPED_GOLDEN: [(&str, &[GoldenFrame]); 6] = [
    (
        "any",
        &[
            (2, 117, 0x3f719e38),
            (2, 87, 0x3f6a6d24),
            (2, 237, 0x3f5faae4),
            (2, 195, 0x3f5cc86f),
            (2, 189, 0x3f5af856),
            (2, 200, 0x3f5a8cc2),
            (1, 131, 0x3f5a4ff4),
            (0, 238, 0x3f5885b0),
            (1, 135, 0x3f580ff7),
            (2, 0, 0x3f578a40),
            (1, 71, 0x3f56bfe2),
            (1, 178, 0x3f555879),
            (1, 101, 0x3f55354a),
            (1, 137, 0x3f54d91c),
            (1, 64, 0x3f54611e),
            (0, 12, 0x3f544330),
            (2, 169, 0x3f53ce45),
            (2, 178, 0x3f533228),
            (0, 228, 0x3f532412),
            (2, 176, 0x3f531da8),
        ],
    ),
    (
        "one camera",
        &[
            (1, 131, 0x3f5a4ff4),
            (1, 135, 0x3f580ff7),
            (1, 71, 0x3f56bfe2),
            (1, 178, 0x3f555879),
            (1, 101, 0x3f55354a),
            (1, 137, 0x3f54d91c),
            (1, 64, 0x3f54611e),
            (1, 133, 0x3f52282c),
            (1, 155, 0x3f4c0db2),
            (1, 176, 0x3f4b54fb),
            (1, 179, 0x3f463c0c),
            (1, 42, 0x3f43e921),
            (1, 0, 0x3f3da9d2),
            (1, 12, 0x3f3b64d1),
            (1, 209, 0x3ed5dd41),
            (1, 141, 0x3ed308ba),
            (1, 239, 0x3ed1e637),
        ],
    ),
    (
        "four cameras",
        &[
            (2, 117, 0x3f719e38),
            (2, 87, 0x3f6a6d24),
            (2, 237, 0x3f5faae4),
            (2, 195, 0x3f5cc86f),
            (2, 189, 0x3f5af856),
            (2, 200, 0x3f5a8cc2),
            (1, 131, 0x3f5a4ff4),
            (0, 238, 0x3f5885b0),
            (1, 135, 0x3f580ff7),
            (2, 0, 0x3f578a40),
            (1, 71, 0x3f56bfe2),
            (1, 178, 0x3f555879),
            (1, 101, 0x3f55354a),
            (1, 137, 0x3f54d91c),
            (1, 64, 0x3f54611e),
            (0, 12, 0x3f544330),
            (2, 169, 0x3f53ce45),
            (2, 178, 0x3f533228),
            (0, 228, 0x3f532412),
            (2, 176, 0x3f531da8),
        ],
    ),
    (
        "time window",
        &[
            (2, 117, 0x3f719e38),
            (2, 87, 0x3f6a6d24),
            (1, 71, 0x3f56bfe2),
            (1, 101, 0x3f55354a),
            (1, 64, 0x3f54611e),
            (2, 120, 0x3f4b5240),
            (0, 101, 0x3f42ceab),
            (0, 110, 0x3f3d6248),
            (0, 72, 0x3f374f32),
            (2, 119, 0x3edd15b6),
        ],
    ),
    (
        "class",
        &[
            (2, 117, 0x3f719e38),
            (2, 87, 0x3f6a6d24),
            (2, 237, 0x3f5faae4),
            (2, 195, 0x3f5cc86f),
            (2, 189, 0x3f5af856),
            (2, 200, 0x3f5a8cc2),
            (1, 131, 0x3f5a4ff4),
            (0, 238, 0x3f5885b0),
            (1, 135, 0x3f580ff7),
            (2, 0, 0x3f578a40),
            (1, 71, 0x3f56bfe2),
            (1, 178, 0x3f555879),
            (1, 101, 0x3f55354a),
            (1, 137, 0x3f54d91c),
            (1, 64, 0x3f54611e),
            (0, 12, 0x3f544330),
            (2, 169, 0x3f53ce45),
            (2, 178, 0x3f533228),
            (0, 228, 0x3f532412),
            (2, 176, 0x3f531da8),
        ],
    ),
    (
        "camera and time",
        &[
            (1, 71, 0x3f56bfe2),
            (1, 101, 0x3f55354a),
            (1, 64, 0x3f54611e),
            (1, 42, 0x3f43e921),
            (1, 0, 0x3f3da9d2),
            (1, 12, 0x3f3b64d1),
        ],
    ),
];

#[test]
fn six_scopes_are_bit_identical_to_the_parent_commit_golden() {
    let videos = multi_camera_collection();
    let config = LovoConfig::default()
        .with_rerank(false)
        .with_segment_capacity(1024);
    let lovo = Lovo::build(&videos, config).expect("build");
    for ((scope, predicate), (golden_scope, golden)) in six_scopes().into_iter().zip(SCOPED_GOLDEN)
    {
        assert_eq!(scope, golden_scope);
        let spec =
            QuerySpec::new("a red car driving in the center of the road").with_predicate(predicate);
        let result = lovo.query_spec(&spec).expect("query");
        let answer: Vec<GoldenFrame> = result
            .frames
            .iter()
            .map(|f| (f.video_id, f.frame_index, f.score.to_bits()))
            .collect();
        assert_eq!(answer, golden, "{scope}");
    }
}
