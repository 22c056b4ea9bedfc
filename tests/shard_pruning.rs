//! Router pruning: a query whose video predicate maps onto one shard must
//! never touch the other shards at all — `shards_pruned` reports N-1, and a
//! counting wrapper proves the pruned shards received zero coarse requests
//! (zero rows read, not merely zero rows returned).

use lovo::core::{Lovo, LovoConfig, QuerySpec};
use lovo::serve::{
    partition_videos, CoarseRequest, CoarseResponse, EngineShard, HashPlacement, LocalShard,
    RerankRequest, RerankResponse, ShardConfig, ShardRouter,
};
use lovo::video::{DatasetConfig, DatasetKind, QueryPredicate, VideoCollection};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn corpus(seed: u64) -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(8)
            .with_frames_per_video(30)
            .with_seed(seed),
    )
}

/// Delegating shard that counts how many coarse/rerank requests reach it.
struct CountingShard {
    inner: LocalShard,
    coarse_calls: AtomicUsize,
    rerank_calls: AtomicUsize,
}

impl CountingShard {
    fn new(inner: LocalShard) -> Self {
        Self {
            inner,
            coarse_calls: AtomicUsize::new(0),
            rerank_calls: AtomicUsize::new(0),
        }
    }
}

impl EngineShard for CountingShard {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn video_range(&self) -> Option<(u32, u32)> {
        self.inner.video_range()
    }

    fn coarse(&self, request: &CoarseRequest) -> Result<CoarseResponse, String> {
        self.coarse_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.coarse(request)
    }

    fn rerank(&self, request: &RerankRequest) -> Result<RerankResponse, String> {
        self.rerank_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.rerank(request)
    }
}

/// Builds an N-shard router whose shards count the requests they receive.
/// The router has no cache, so every query's fan-out is visible in the counters.
fn counting_router(
    videos: &VideoCollection,
    shards: usize,
) -> (ShardRouter, Vec<Arc<CountingShard>>, HashPlacement) {
    let config = LovoConfig::ablation_without_anns();
    let placement = HashPlacement::new(shards);
    let counters: Vec<Arc<CountingShard>> = partition_videos(videos, placement)
        .iter()
        .map(|part| {
            let engine = Lovo::build(part, config).expect("build shard engine");
            Arc::new(CountingShard::new(LocalShard::new(Arc::new(engine))))
        })
        .collect();
    let engines: Vec<Arc<dyn EngineShard>> = counters
        .iter()
        .map(|shard| Arc::clone(shard) as Arc<dyn EngineShard>)
        .collect();
    let router = ShardRouter::new(
        engines,
        HashPlacement::new(shards),
        config,
        ShardConfig::default(),
    )
    .expect("build router");
    (router, counters, placement)
}

#[test]
fn one_shard_video_predicate_prunes_the_rest() {
    let videos = corpus(3);
    let (router, counters, placement) = counting_router(&videos, 4);

    // Pick a video and restrict the query to it: only its owning shard may
    // be contacted.
    let target_video = videos.videos[0].id;
    let owner = placement.shard_of(target_video);
    let sharded = router
        .query_spec(
            &QuerySpec::new("a car on the road")
                .with_predicate(QueryPredicate::videos([target_video])),
        )
        .expect("routed query");

    assert!(sharded.outages.is_empty());
    // The merged SearchStats carry the same shard-level pruning counters the
    // segment-level zone maps report one layer down.
    assert_eq!(sharded.result.search_stats.shards_probed, 1);
    assert_eq!(sharded.result.search_stats.shards_pruned, 3);
    assert_eq!(router.stats().shards_pruned, 3);

    // Zero rows read on pruned shards: they never received a request.
    for (index, shard) in counters.iter().enumerate() {
        let expected = usize::from(index == owner);
        assert_eq!(
            shard.coarse_calls.load(Ordering::SeqCst),
            expected,
            "shard {index} coarse fan-out"
        );
        if index != owner {
            assert_eq!(shard.rerank_calls.load(Ordering::SeqCst), 0);
        }
    }
    // Every returned frame belongs to the requested video.
    for frame in &sharded.result.frames {
        assert_eq!(frame.video_id, target_video);
    }
}

#[test]
fn unfiltered_queries_probe_every_populated_shard() {
    let videos = corpus(7);
    let (router, counters, placement) = counting_router(&videos, 4);
    let populated: usize = (0..4)
        .filter(|&s| videos.videos.iter().any(|v| placement.shard_of(v.id) == s))
        .count();

    let sharded = router
        .query_spec(&QuerySpec::new("a bus driving on the road"))
        .expect("routed query");
    assert!(sharded.outages.is_empty());
    assert_eq!(sharded.result.search_stats.shards_probed, populated);
    assert_eq!(sharded.result.search_stats.shards_pruned, 4 - populated);
    let contacted = counters
        .iter()
        .filter(|shard| shard.coarse_calls.load(Ordering::SeqCst) > 0)
        .count();
    assert_eq!(contacted, populated);
}

#[test]
fn provably_empty_plans_touch_no_shard() {
    let videos = corpus(9);
    let (router, counters, _) = counting_router(&videos, 4);

    let sharded = router
        .query_spec(&QuerySpec::new("anything").with_predicate(QueryPredicate::videos([])))
        .expect("routed query");
    assert!(sharded.outages.is_empty());
    assert!(sharded.result.frames.is_empty());
    assert_eq!(sharded.result.search_stats.shards_probed, 0);
    assert_eq!(sharded.result.search_stats.shards_pruned, 4);
    for shard in &counters {
        assert_eq!(shard.coarse_calls.load(Ordering::SeqCst), 0);
        assert_eq!(shard.rerank_calls.load(Ordering::SeqCst), 0);
    }
}

#[test]
fn predicate_for_absent_videos_prunes_by_stored_range() {
    // The predicate names a video id that hashes onto some shard but is not
    // stored anywhere: placement alone would route the query, but the
    // shard's stored id range cannot contain it, so the range check prunes
    // the remaining shard too.
    let videos = corpus(13);
    let absent = videos.videos.iter().map(|v| v.id).max().unwrap() + 1_000;
    let (router, counters, _) = counting_router(&videos, 4);

    let sharded = router
        .query_spec(
            &QuerySpec::new("a car on the road").with_predicate(QueryPredicate::videos([absent])),
        )
        .expect("routed query");
    assert!(sharded.result.frames.is_empty());
    assert_eq!(sharded.result.search_stats.shards_probed, 0);
    assert_eq!(sharded.result.search_stats.shards_pruned, 4);
    for shard in &counters {
        assert_eq!(shard.coarse_calls.load(Ordering::SeqCst), 0);
    }
}
