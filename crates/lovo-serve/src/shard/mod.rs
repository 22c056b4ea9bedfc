//! Sharded scatter-gather serving: N engine shards behind one router.
//!
//! `lovo-serve`'s [`crate::QueryService`] scales one backend to many
//! clients; this module scales the *corpus* past one engine. Videos are
//! placed onto N engine shards by a [`HashPlacement`] of the video id, and a
//! [`ShardRouter`] answers each [`lovo_core::QuerySpec`] by:
//!
//! 1. **compiling the plan once** (the same [`lovo_core::QueryPlanner`] the
//!    engines use), then **pruning** shards whose placement provably cannot
//!    match the plan's video predicate — the zone-map idea lifted one level
//!    up, recorded as `shards_pruned` in the merged
//!    [`lovo_core::SearchStats`];
//! 2. **scattering** the coarse stage to the surviving shards (one thread
//!    per target shard) under a per-shard bound on legs in flight
//!    ([`ShardError::Rejected`]). Admission, batching, dedupe and the result
//!    cache are not the router's: serve it behind a [`crate::QueryService`],
//!    whose cache keys a plan's freshness on the epochs of exactly the
//!    shards it targets;
//! 3. **merging** per-shard top-k under the same score-desc / id-asc total
//!    order the segment merge uses, grouping candidate frames through the
//!    engine's own `group_hits_by_frame`, and **gathering** the rerank stage
//!    from each frame's owning shard — so the sharded answer is
//!    *bit-identical* to what a single engine holding the whole corpus
//!    would return (`tests/shard_equivalence.rs` proves this
//!    property across shard counts);
//! 4. **degrading instead of failing**: a shard lost mid-gather (fault,
//!    panic, or timeout) yields a partial result carrying a [`ShardOutage`]
//!    marker for exactly that shard — the router never hangs and never
//!    panics (`tests/shard_chaos.rs`).
//!
//! Shards run in-process here ([`LocalShard`] wraps an `Arc<Lovo>`), but the
//! router speaks to them only through the serializable request/response
//! messages of [`EngineShard`], so a remote transport can slot in without
//! touching the router.

mod engine;
mod placement;
mod router;

pub use engine::{
    CoarseRequest, CoarseResponse, EngineShard, LocalShard, RerankRequest, RerankResponse,
};
pub use placement::HashPlacement;
pub use router::{ShardConfig, ShardRouter, ShardStats, ShardedResult};

/// Errors surfaced by the shard router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// One target shard already had its bound of legs in flight (see
    /// [`ShardConfig::shard_queue_depth`]): the router refused the query
    /// instead of piling more threads onto it.
    Rejected {
        /// The shard whose in-flight bound was full.
        shard: usize,
        /// The configured per-shard in-flight depth that was exceeded.
        queue_depth: usize,
    },
    /// The router-side configuration was invalid (shard count / placement
    /// mismatch, zeroed knobs).
    Config(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Rejected { shard, queue_depth } => write!(
                f,
                "shard {shard} rejected the query: {queue_depth} legs already in flight"
            ),
            ShardError::Config(msg) => write!(f, "shard configuration error: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Marker describing one shard lost during a gather. Carried on the
/// degraded [`ShardedResult`] instead of failing the whole query: the
/// surviving shards' answers are still exact for *their* videos.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutage {
    /// Index of the shard that was lost.
    pub shard: usize,
    /// Human-readable cause (engine error, injected fault, panic, timeout).
    pub reason: String,
}

impl std::fmt::Display for ShardOutage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} lost mid-gather: {}", self.shard, self.reason)
    }
}

/// Partitions a video collection into per-shard sub-collections under a
/// placement: sub-collection `s` holds exactly the videos `placement`
/// assigns to shard `s`, in their original order. Build each shard's engine
/// from its sub-collection and the sharded corpus is a disjoint cover of
/// the original — the precondition for the router's bit-identical merge.
pub fn partition_videos(
    videos: &lovo_video::VideoCollection,
    placement: HashPlacement,
) -> Vec<lovo_video::VideoCollection> {
    let mut parts: Vec<lovo_video::VideoCollection> = (0..placement.shard_count())
        .map(|_| lovo_video::VideoCollection {
            config: videos.config.clone(),
            videos: Vec::new(),
        })
        .collect();
    for video in &videos.videos {
        let shard = placement.shard_of(video.id);
        if let Some(part) = parts.get_mut(shard) {
            part.videos.push(video.clone());
        }
    }
    parts
}
