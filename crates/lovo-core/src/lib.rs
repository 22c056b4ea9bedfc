//! # lovo-core
//!
//! The LOVO system: efficient complex object query in large-scale video
//! datasets (ICDE 2025).
//!
//! LOVO is organized into the three modules of Fig. 3 of the paper, and so is
//! this crate:
//!
//! 1. **Video Summary** ([`summary`]) — one-time, query-agnostic processing:
//!    key-frame extraction, per-patch visual encoding, object localization,
//!    and construction of the vector collection `I = {(f_j, {(c_jk, b_jk)})}`.
//! 2. **Database Storage** — the collection is stored in the vector database
//!    (`lovo-store`) under product quantization + inverted multi-index
//!    (`lovo-index`), with bounding boxes / frame ids in the relational
//!    metadata table, joined by patch id.
//! 3. **Query Strategy** ([`engine`], [`planner`], [`exec`]) — every query
//!    goes through one plan → execute pipeline: the [`planner::QueryPlanner`]
//!    compiles `(text, predicate, k)` into a staged plan (encode → prune →
//!    coarse filtered search → rerank → aggregate) and the executor runs it,
//!    pushing metadata predicates (video subsets, time windows, object
//!    classes) down through the storage fan-out into every index scan.
//!    [`Lovo::query_plans`] is the one function that executes — a batch of
//!    plans in one shared fan-out pass; [`Lovo::query_spec`] and
//!    [`Lovo::query`] are its one-plan conveniences. The stages it is made
//!    of are public too ([`Lovo::coarse_plan`], [`group_hits_by_frame`],
//!    [`Lovo::rerank_plan`], [`merge_reranked`], [`assemble_unreranked`]),
//!    so a caller can run one query stage by stage and time each stage.
//!
//! The entry point is [`Lovo`]: build it once over a video collection, then
//! issue as many queries as you like.
//!
//! ```
//! use lovo_core::{Lovo, LovoConfig};
//! use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};
//!
//! let videos = VideoCollection::generate(
//!     DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(120),
//! );
//! let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
//! let result = lovo.query("a red car driving in the center of the road").unwrap();
//! assert!(result.frames.len() <= lovo.config().output_frames);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod exec;
pub mod planner;
pub mod summary;

pub use config::LovoConfig;
pub use engine::{Lovo, QueryResult, QueryTimings, RankedObject};
pub use exec::{assemble_unreranked, group_hits_by_frame, merge_reranked, CoarseHit, FrameSeed};
pub use planner::{PlanStage, QueryPlan, QueryPlanner, QuerySpec};
pub use summary::{IngestStats, VideoSummarizer};

/// Re-exported because [`QueryResult`] and [`Lovo::coarse_plan`] carry the
/// search work counters; callers need not depend on `lovo-index` directly.
pub use lovo_index::SearchStats;

// The compiled storage-level predicate is a public field of `QueryPlan`;
// re-exported so plan consumers (e.g. `lovo-serve`) need not depend on
// `lovo-store` directly.
pub use lovo_store::PatchPredicate;

// Durable-store vocabulary used by `Lovo::build_durable` / `Lovo::open`,
// re-exported for the same reason.
pub use lovo_store::{DurabilityConfig, QuarantinedSegment, RecoveryReport};

/// Errors surfaced by the LOVO system.
#[derive(Debug)]
pub enum LovoError {
    /// Encoder failure.
    Encoder(lovo_encoder::EncoderError),
    /// Storage / index failure.
    Store(lovo_store::StoreError),
    /// The system is not in a state to serve the request.
    InvalidState(String),
}

impl std::fmt::Display for LovoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LovoError::Encoder(e) => write!(f, "encoder error: {e}"),
            LovoError::Store(e) => write!(f, "storage error: {e}"),
            LovoError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
        }
    }
}

impl std::error::Error for LovoError {}

impl From<lovo_encoder::EncoderError> for LovoError {
    fn from(e: lovo_encoder::EncoderError) -> Self {
        LovoError::Encoder(e)
    }
}

impl From<lovo_store::StoreError> for LovoError {
    fn from(e: lovo_store::StoreError) -> Self {
        LovoError::Store(e)
    }
}

impl From<lovo_index::IndexError> for LovoError {
    fn from(e: lovo_index::IndexError) -> Self {
        LovoError::Store(lovo_store::StoreError::Index(e))
    }
}

/// Result alias for LOVO operations.
pub type Result<T> = std::result::Result<T, LovoError>;
