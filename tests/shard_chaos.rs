//! Chaos tests for the shard router's gather: a shard lost mid-gather —
//! injected fault, panic, engine error, or deadline overrun — must degrade
//! into a partial result carrying a [`ShardOutage`] for exactly that shard.
//! The router must never hang and never panic, and the degraded answer must
//! be exact for every surviving shard's videos.

use lovo::core::{Lovo, LovoConfig, QuerySpec};
use lovo::serve::{
    partition_videos, CoarseRequest, CoarseResponse, EngineShard, HashPlacement, LocalShard,
    QueryService, RerankRequest, RerankResponse, ServeConfig, ShardConfig, ShardRouter,
};
use lovo::video::{DatasetConfig, DatasetKind, QueryPredicate, VideoCollection};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn corpus(seed: u64) -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(8)
            .with_frames_per_video(30)
            .with_seed(seed),
    )
}

fn exact_config() -> LovoConfig {
    LovoConfig::ablation_without_anns()
}

/// Builds shard engines from a hash partition of `videos`.
fn shard_engines(videos: &VideoCollection, shards: usize) -> Vec<Arc<Lovo>> {
    partition_videos(videos, HashPlacement::new(shards))
        .iter()
        .map(|part| Arc::new(Lovo::build(part, exact_config()).expect("build shard engine")))
        .collect()
}

fn local_shards(engines: &[Arc<Lovo>]) -> Vec<Arc<dyn EngineShard>> {
    engines
        .iter()
        .map(|engine| Arc::new(LocalShard::new(Arc::clone(engine))) as Arc<dyn EngineShard>)
        .collect()
}

/// Fault-injected outage via the `shard.gather.<index>` fail point (PR 8's
/// deterministic [`FaultPlan`], lifted to the serving layer). Compiled only
/// where the fault checks exist: debug builds or `--features failpoints`.
#[cfg(any(debug_assertions, feature = "failpoints"))]
mod injected {
    use super::*;
    use lovo::store::durability::{points, FaultAction, FaultPlan};

    #[test]
    fn killed_shard_degrades_to_exact_answer_over_survivors() {
        let videos = corpus(7);
        let shards = 4usize;
        let placement = HashPlacement::new(shards);
        let victim = 1usize;
        assert!(
            videos
                .videos
                .iter()
                .any(|v| placement.shard_of(v.id) == victim),
            "victim shard must hold videos for the test to be meaningful"
        );

        let faults = Arc::new(FaultPlan::new());
        faults.inject(
            &format!("{}.{victim}", points::SHARD_GATHER),
            FaultAction::Fail,
        );
        let router = ShardRouter::new(
            local_shards(&shard_engines(&videos, shards)),
            HashPlacement::new(shards),
            exact_config(),
            ShardConfig::default().with_faults(Arc::clone(&faults)),
        )
        .expect("build router");

        let spec = QuerySpec::new("a red car driving in the center of the road");
        let degraded = router.query_spec(&spec).expect("degraded gather still Ok");

        // Exactly the victim is reported lost, and the fail point really
        // fired (the fault exercised the gather leg, not some other path).
        assert!(degraded.is_degraded());
        assert_eq!(degraded.outages.len(), 1);
        assert_eq!(degraded.outages[0].shard, victim);
        assert!(
            faults
                .triggered()
                .contains(&format!("{}.{victim}", points::SHARD_GATHER)),
            "fail point never fired: {:?}",
            faults.triggered()
        );
        assert_eq!(router.stats().outages, 1);

        // The partial answer is *exact over the survivors*: bit-identical to
        // a single engine that never held the victim's videos at all.
        let surviving = VideoCollection {
            config: videos.config.clone(),
            videos: videos
                .videos
                .iter()
                .filter(|v| placement.shard_of(v.id) != victim)
                .cloned()
                .collect(),
        };
        let twin = Lovo::build(&surviving, exact_config()).expect("build surviving twin");
        let expected = twin.query_spec(&spec).expect("twin query");
        assert_eq!(degraded.result.frames, expected.frames);
        assert_eq!(
            degraded.result.fast_search_candidates,
            expected.fast_search_candidates
        );

        // The fault was one-shot: the next identical query heals — the
        // victim is re-queried live, and the result is the full-corpus
        // answer again.
        let healed = router.query_spec(&spec).expect("healed gather");
        assert!(!healed.is_degraded());
        let full = Lovo::build(&videos, exact_config()).expect("build full twin");
        assert_eq!(
            healed.result.frames,
            full.query_spec(&spec).expect("full twin query").frames
        );
    }

    #[test]
    fn untargeted_gather_fault_kills_exactly_one_leg() {
        let videos = corpus(19);
        let faults = Arc::new(FaultPlan::new());
        faults.inject(points::SHARD_GATHER, FaultAction::Fail);
        let router = ShardRouter::new(
            local_shards(&shard_engines(&videos, 4)),
            HashPlacement::new(4),
            exact_config(),
            ShardConfig::default().with_faults(Arc::clone(&faults)),
        )
        .expect("build router");

        let degraded = router
            .query_spec(&QuerySpec::new("a bus driving on the road"))
            .expect("degraded gather still Ok");
        // One-shot point, nondeterministic victim (legs run concurrently):
        // exactly one leg dies, whichever leg's thread consulted the plan
        // first.
        assert_eq!(degraded.outages.len(), 1);
        assert_eq!(faults.triggered(), vec![points::SHARD_GATHER.to_string()]);
        assert_eq!(faults.pending(), 0);
    }

    #[test]
    fn served_degraded_answer_is_never_cached() {
        // Behind a `QueryService`, a partial answer is served with its
        // outage marker but never cached: the repeat after the one-shot
        // fault is recomputed (and healed), and only that healthy answer is
        // served from the cache.
        let videos = corpus(7);
        let faults = Arc::new(FaultPlan::new());
        faults.inject(&format!("{}.1", points::SHARD_GATHER), FaultAction::Fail);
        let router = ShardRouter::new(
            local_shards(&shard_engines(&videos, 4)),
            HashPlacement::new(4),
            exact_config(),
            ShardConfig::default().with_faults(Arc::clone(&faults)),
        )
        .expect("build router");
        let service = QueryService::start(
            Arc::new(router),
            ServeConfig::default().with_maintenance_interval(None),
        )
        .expect("start service");

        let spec = QuerySpec::new("a red car driving in the center of the road");
        let degraded = service
            .submit(spec.clone())
            .expect("degraded answer served");
        assert!(!degraded.cache_hit);
        assert_eq!(degraded.outages.len(), 1);
        assert_eq!(degraded.outages[0].shard, 1);
        let healed = service.submit(spec.clone()).expect("healed answer");
        assert!(!healed.cache_hit, "a degraded answer must not be cached");
        assert!(healed.outages.is_empty());
        let repeat = service.submit(spec).expect("cached answer");
        assert!(repeat.cache_hit);
        assert!(repeat.outages.is_empty());
        assert_eq!(repeat.result.frames, healed.result.frames);
    }
}

/// A shard whose coarse stage panics. Pretends to hold the whole id space so
/// pruning never protects it.
struct PanickingShard;

impl EngineShard for PanickingShard {
    fn epoch(&self) -> u64 {
        0
    }

    fn video_range(&self) -> Option<(u32, u32)> {
        Some((0, u32::MAX))
    }

    fn coarse(&self, _request: &CoarseRequest) -> Result<CoarseResponse, String> {
        panic!("shard blew up mid-coarse");
    }

    fn rerank(&self, _request: &RerankRequest) -> Result<RerankResponse, String> {
        panic!("shard blew up mid-rerank");
    }
}

#[test]
fn panicking_shard_is_an_outage_not_a_router_crash() {
    let videos = corpus(11);
    let mut shards = local_shards(&shard_engines(&videos, 3));
    shards[2] = Arc::new(PanickingShard);
    let router = ShardRouter::new(
        shards,
        HashPlacement::new(3),
        exact_config(),
        // Depth-1 admission: if a panicked leg leaked its slot, the second
        // query below would be rejected instead of served.
        ShardConfig::default().with_shard_queue_depth(1),
    )
    .expect("build router");

    for round in 0..3 {
        let degraded = router
            .query_spec(&QuerySpec::new("a car on the road"))
            .expect("degraded gather still Ok");
        assert_eq!(degraded.outages.len(), 1, "round {round}");
        assert_eq!(degraded.outages[0].shard, 2);
        assert!(
            degraded.outages[0].reason.contains("panicked"),
            "unexpected reason: {}",
            degraded.outages[0].reason
        );
        assert!(!degraded.result.frames.is_empty());
        for frame in &degraded.result.frames {
            assert_ne!(HashPlacement::new(3).shard_of(frame.video_id), 2);
        }
    }
    assert_eq!(router.stats().outages, 3);
    assert_eq!(router.stats().rejected, 0);
}

/// A shard that answers correctly but far too slowly.
struct SlowShard {
    inner: LocalShard,
    delay: Duration,
}

impl EngineShard for SlowShard {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn video_range(&self) -> Option<(u32, u32)> {
        self.inner.video_range()
    }

    fn coarse(&self, request: &CoarseRequest) -> Result<CoarseResponse, String> {
        std::thread::sleep(self.delay);
        self.inner.coarse(request)
    }

    fn rerank(&self, request: &RerankRequest) -> Result<RerankResponse, String> {
        self.inner.rerank(request)
    }
}

#[test]
fn slow_shard_times_out_into_an_outage_without_stalling_the_router() {
    let videos = corpus(13);
    let engines = shard_engines(&videos, 2);
    // The slow shard sleeps far past the deadline; the deadline itself is
    // generous enough that the healthy shard's debug-build latency can never
    // trip it — only genuine stalls become outages.
    let slow = Arc::new(SlowShard {
        inner: LocalShard::new(Arc::clone(&engines[1])),
        delay: Duration::from_secs(30),
    });
    let mut shards = local_shards(&engines);
    shards[1] = slow;
    let router = ShardRouter::new(
        shards,
        HashPlacement::new(2),
        exact_config(),
        ShardConfig::default().with_gather_timeout(Some(Duration::from_secs(5))),
    )
    .expect("build router");

    let start = Instant::now();
    let degraded = router
        .query_spec(&QuerySpec::new("a person walking on the sidewalk"))
        .expect("degraded gather still Ok");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(25),
        "router waited out the slow shard: {elapsed:?}"
    );
    assert_eq!(degraded.outages.len(), 1);
    assert_eq!(degraded.outages[0].shard, 1);
    assert!(
        degraded.outages[0].reason.contains("deadline"),
        "unexpected reason: {}",
        degraded.outages[0].reason
    );
    for frame in &degraded.result.frames {
        assert_eq!(HashPlacement::new(2).shard_of(frame.video_id), 0);
    }
}

/// A shard whose coarse stage works but whose rerank stage fails cleanly.
struct FailingRerankShard {
    inner: LocalShard,
}

impl EngineShard for FailingRerankShard {
    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn video_range(&self) -> Option<(u32, u32)> {
        self.inner.video_range()
    }

    fn coarse(&self, request: &CoarseRequest) -> Result<CoarseResponse, String> {
        self.inner.coarse(request)
    }

    fn rerank(&self, _request: &RerankRequest) -> Result<RerankResponse, String> {
        Err("rerank stage exploded".to_string())
    }
}

#[test]
fn rerank_stage_failure_degrades_like_a_coarse_one() {
    let videos = corpus(17);
    let engines = shard_engines(&videos, 2);
    let mut shards = local_shards(&engines);
    shards[1] = Arc::new(FailingRerankShard {
        inner: LocalShard::new(Arc::clone(&engines[1])),
    });
    let router = ShardRouter::new(
        shards,
        HashPlacement::new(2),
        exact_config(),
        ShardConfig::default(),
    )
    .expect("build router");

    // Restrict the query to a video owned by the failing shard so its
    // rerank leg is guaranteed to be the only one dispatched.
    let placement = HashPlacement::new(2);
    let victim_video = videos
        .videos
        .iter()
        .map(|v| v.id)
        .find(|&id| placement.shard_of(id) == 1)
        .expect("shard 1 holds at least one video");
    let degraded = router
        .query_spec(
            &QuerySpec::new("a car on the road")
                .with_predicate(QueryPredicate::videos([victim_video])),
        )
        .expect("degraded gather still Ok");
    assert_eq!(degraded.outages.len(), 1);
    assert_eq!(degraded.outages[0].shard, 1);
    assert!(degraded.outages[0].reason.contains("rerank"));
    // The coarse stage succeeded (candidates were found) but every frame
    // rode on the failed rerank leg, so the output is empty — partial, typed,
    // and honest about it.
    assert!(degraded.result.fast_search_candidates > 0);
    assert!(degraded.result.frames.is_empty());
    assert_eq!(router.stats().outages, 1);
}
