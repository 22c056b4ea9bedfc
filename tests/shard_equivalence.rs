//! Differential harness for sharded serving: for every corpus × placement ×
//! predicate combination, a [`ShardRouter`] over N engine shards must return
//! results *bit-identical* to a single never-sharded engine holding the whole
//! corpus — same frames (scores, boxes, order), same candidate count, same
//! rerank width.
//!
//! All equivalence runs use the exact brute-force index
//! (`LovoConfig::ablation_without_anns()`): IVF-PQ trains its codebooks on
//! the segment's own vectors, so per-shard quantizers would legitimately
//! differ from the single-engine quantizer and approximate scores would
//! drift. Equivalence is a property of exact scoring; the approximate
//! configurations are covered by their own recall gates elsewhere.

use lovo::core::{Lovo, LovoConfig, QuerySpec};
use lovo::serve::{partition_videos, HashPlacement, LocalShard, ShardConfig, ShardRouter};
use lovo::video::{DatasetConfig, DatasetKind, ObjectClass, QueryPredicate, VideoCollection};
use std::sync::Arc;

const SEEDS: &[u64] = &[11, 29];
const VIDEOS: usize = 8;
const FRAMES: usize = 40;

fn corpus(seed: u64) -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(VIDEOS)
            .with_frames_per_video(FRAMES)
            .with_seed(seed),
    )
}

/// Exact-scoring engine configuration shared by the twin and every shard.
fn exact_config() -> LovoConfig {
    LovoConfig::ablation_without_anns()
}

/// Builds the sharded side of the differential pair: partition the corpus
/// under a hash placement, one engine per part, one router over them.
fn build_router(videos: &VideoCollection, shards: usize, config: LovoConfig) -> ShardRouter {
    let placement = HashPlacement::new(shards);
    let engines: Vec<Arc<dyn lovo::serve::EngineShard>> = partition_videos(videos, placement)
        .iter()
        .map(|part| {
            let engine = Lovo::build(part, config).expect("build shard engine");
            Arc::new(LocalShard::new(Arc::new(engine))) as Arc<dyn lovo::serve::EngineShard>
        })
        .collect();
    ShardRouter::new(engines, placement, config, ShardConfig::default()).expect("build router")
}

/// The predicate mix every (corpus, placement) pair is checked under:
/// unfiltered, video subsets that span shards, a single video, time windows,
/// class restrictions, conjunctions, and a provably-empty predicate.
fn spec_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new("a red car driving in the center of the road"),
        QuerySpec::new("a bus driving on the road"),
        QuerySpec::new("a person walking on the sidewalk")
            .with_predicate(QueryPredicate::videos([0, 3, 5])),
        QuerySpec::new("a car on the road").with_predicate(QueryPredicate::videos([2])),
        QuerySpec::new("a car turning at the intersection")
            .with_predicate(QueryPredicate::time_range(0.25, 0.9)),
        QuerySpec::new("a bus at a bus stop")
            .with_predicate(QueryPredicate::class(ObjectClass::Bus)),
        QuerySpec::new("a person crossing the street").with_predicate(
            QueryPredicate::time_range(0.0, 1.2).and(QueryPredicate::class(ObjectClass::Person)),
        ),
        // Provably empty: no video can ever satisfy an empty id set.
        QuerySpec::new("anything at all").with_predicate(QueryPredicate::videos([])),
    ]
}

/// The differential check itself: every spec answered by the router must be
/// bit-identical to the never-sharded twin's answer, with no outages.
fn assert_equivalent(videos: &VideoCollection, shards: usize, config: LovoConfig) {
    let single = Lovo::build(videos, config).expect("build single engine");
    let router = build_router(videos, shards, config);
    for spec in spec_mix() {
        let expected = single.query_spec(&spec).expect("single-engine query");
        let sharded = router.query_spec(&spec).expect("routed query");
        assert!(
            sharded.outages.is_empty(),
            "{shards}-shard gather reported outages on a healthy run: {:?}",
            sharded.outages
        );
        assert_eq!(
            sharded.result.frames, expected.frames,
            "{shards}-shard frames diverged from the single engine for {:?}",
            spec
        );
        assert_eq!(
            sharded.result.fast_search_candidates, expected.fast_search_candidates,
            "{shards}-shard candidate count diverged for {:?}",
            spec
        );
        assert_eq!(
            sharded.result.reranked_frames, expected.reranked_frames,
            "{shards}-shard rerank width diverged for {:?}",
            spec
        );
    }
    let stats = router.stats();
    assert_eq!(stats.queries, spec_mix().len() as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.outages, 0);
}

#[test]
fn one_shard_matches_single_engine() {
    for &seed in SEEDS {
        assert_equivalent(&corpus(seed), 1, exact_config());
    }
}

#[test]
fn two_shards_match_single_engine() {
    for &seed in SEEDS {
        assert_equivalent(&corpus(seed), 2, exact_config());
    }
}

#[test]
fn four_shards_match_single_engine() {
    for &seed in SEEDS {
        assert_equivalent(&corpus(seed), 4, exact_config());
    }
}

#[test]
fn seven_shards_match_single_engine() {
    // 7 shards over 8 videos: some shards are empty, which exercises the
    // empty-shard pruning path (`video_range() == None`) on every query.
    for &seed in SEEDS {
        assert_equivalent(&corpus(seed), 7, exact_config());
    }
}

#[test]
fn equivalence_holds_without_rerank() {
    // The no-rerank path merges under a different total order (score desc,
    // then (video, frame) asc) and assembles straight from the coarse seeds;
    // it must be bit-identical too.
    assert_equivalent(&corpus(17), 4, exact_config().with_rerank(false));
}

#[test]
fn equivalence_holds_under_k_overrides() {
    // Spec-level fast-search-k overrides travel inside the compiled plan;
    // tiny and over-large k both stress the top-k merge truncation.
    let videos = corpus(23);
    let single = Lovo::build(&videos, exact_config()).expect("build single engine");
    let router = build_router(&videos, 4, exact_config());
    for k in [1, 3, 10_000] {
        let spec = QuerySpec::new("a red car driving in the center of the road").with_k(k);
        let expected = single.query_spec(&spec).expect("single-engine query");
        let sharded = router.query_spec(&spec).expect("routed query");
        assert!(sharded.outages.is_empty());
        assert_eq!(sharded.result.frames, expected.frames, "k = {k}");
        assert_eq!(
            sharded.result.fast_search_candidates, expected.fast_search_candidates,
            "k = {k}"
        );
    }
}

#[test]
fn partition_is_a_disjoint_cover_under_every_placement() {
    // The precondition for the bit-identical merge: each video lands on
    // exactly one shard and none is dropped.
    let videos = corpus(5);
    for shards in [1usize, 2, 4, 7] {
        let placement = HashPlacement::new(shards);
        let parts = partition_videos(&videos, placement);
        assert_eq!(parts.len(), shards);
        let total: usize = parts.iter().map(|part| part.videos.len()).sum();
        assert_eq!(total, videos.videos.len());
        for (index, part) in parts.iter().enumerate() {
            for video in &part.videos {
                assert_eq!(placement.shard_of(video.id), index);
            }
        }
    }
}
