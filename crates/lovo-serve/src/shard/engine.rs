//! The router ↔ shard interface: serializable messages and the
//! [`EngineShard`] trait, plus the in-process [`LocalShard`] implementation.
//!
//! The router addresses a shard only through [`EngineShard`], whose requests
//! and responses are plain serializable values (the compiled
//! [`QueryPlan`] travels *in* the message — shards never re-plan), and whose
//! error channel is a string. Nothing in the contract assumes shared memory,
//! so a remote transport (RPC over the same message types) can replace
//! [`LocalShard`] without touching the router.

use lovo_core::{CoarseHit, FrameSeed, Lovo, QueryPlan, RankedObject, SearchStats};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Coarse-stage request: run the (router-compiled) plan's encode + prune +
/// fast-search stages against the shard's local segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoarseRequest {
    /// The compiled plan, shipped as data (compiled once at the router).
    pub plan: QueryPlan,
}

/// Coarse-stage response: the shard's local top-k candidates, in the global
/// candidate order (score desc, patch id asc), plus the work counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoarseResponse {
    /// The shard's local top-`fast_search_k` candidate patches, best-first.
    pub hits: Vec<CoarseHit>,
    /// Work counters of the shard-local search.
    pub stats: SearchStats,
}

/// Rerank-stage request: re-score these candidate frames (all owned by the
/// addressed shard) with the cross-modality model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RerankRequest {
    /// The compiled plan (the shard re-encodes the text locally — encoding
    /// is content-deterministic, so every shard derives the same
    /// constraints the router's planner saw).
    pub plan: QueryPlan,
    /// The candidate frames assigned to this shard, in global rank order.
    pub frames: Vec<FrameSeed>,
}

/// Rerank-stage response: the shard's reranked frames, sorted by the global
/// rerank order but untruncated — the router applies the output budget
/// after merging every shard's list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RerankResponse {
    /// Reranked frames, sorted by `lovo_core::reranked_order`.
    pub frames: Vec<RankedObject>,
}

/// One engine shard as the router sees it. Implementations must be cheap to
/// call concurrently (the router scatters to many shards at once) and must
/// report errors as values — a shard that panics instead is treated as an
/// outage by the gather, not an excuse to take the router down.
pub trait EngineShard: Send + Sync {
    /// The shard's current ingest epoch (the router folds its targets'
    /// epochs into the cache-invalidation token of a plan).
    fn epoch(&self) -> u64;

    /// Inclusive video-id range of the shard's stored corpus, or `None`
    /// while the shard is empty. The router prunes shards whose range
    /// cannot intersect a plan's video predicate.
    fn video_range(&self) -> Option<(u32, u32)>;

    /// Runs the coarse stage locally. Errors come back as display strings
    /// (message-shaped: a remote shard would ship exactly this).
    fn coarse(&self, request: &CoarseRequest) -> Result<CoarseResponse, String>;

    /// Runs the rerank stage locally over the router-assigned frames.
    fn rerank(&self, request: &RerankRequest) -> Result<RerankResponse, String>;
}

/// An in-process shard: one [`Lovo`] engine holding this shard's videos.
pub struct LocalShard {
    engine: Arc<Lovo>,
}

impl LocalShard {
    /// Wraps an engine built over this shard's video partition (see
    /// [`crate::shard::partition_videos`]).
    pub fn new(engine: Arc<Lovo>) -> Self {
        Self { engine }
    }

    /// The wrapped engine (tests ingest through this).
    pub fn engine(&self) -> &Arc<Lovo> {
        &self.engine
    }
}

impl EngineShard for LocalShard {
    fn epoch(&self) -> u64 {
        self.engine.ingest_epoch()
    }

    fn video_range(&self) -> Option<(u32, u32)> {
        self.engine.video_id_range()
    }

    fn coarse(&self, request: &CoarseRequest) -> Result<CoarseResponse, String> {
        // The trailing argument is ignored (see `Lovo::coarse_plan`).
        let (hits, stats) = self
            .engine
            .coarse_plan(&request.plan, 0)
            .map_err(|e| e.to_string())?;
        Ok(CoarseResponse { hits, stats })
    }

    fn rerank(&self, request: &RerankRequest) -> Result<RerankResponse, String> {
        let frames = self
            .engine
            .rerank_plan(&request.plan, &request.frames)
            .map_err(|e| e.to_string())?;
        Ok(RerankResponse { frames })
    }
}
