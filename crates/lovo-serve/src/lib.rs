//! # lovo-serve
//!
//! The serving layer of the LOVO reproduction: a concurrent, multi-tenant
//! front end over the single-caller [`lovo_core::Lovo`] engine.
//!
//! The engine answers one `query_spec` call at a time per caller; a traffic
//! analytics deployment (LAVA-style: many users issuing overlapping
//! language queries over the same camera feeds) needs more than that. This
//! crate adds the three server-side mechanisms that LOVO's two-stage design
//! (cheap coarse search + bounded rerank, §VI of the paper) makes
//! profitable:
//!
//! * **Admission control** — [`QueryService::submit`] enqueues into a
//!   bounded queue served by a fixed worker pool. When the queue is full the
//!   submission is refused *immediately* with the typed
//!   [`ServeError::Rejected`] instead of queueing unboundedly: under
//!   overload, latency stays bounded and callers get a signal they can back
//!   off on. A submission that finds the service idle skips the queue and
//!   the hand-off: the calling thread runs the pass itself.
//! * **Micro-batch coalescing** — submissions that arrive within a small
//!   window are executed as one [`lovo_core::Lovo::query_plans`] pass,
//!   sharing one collection lock acquisition and one storage-segment walk.
//!   Submissions compiling to one plan (same fingerprint, and
//!   [`lovo_core::QueryPlan::same_answer`]) inside a batch are executed once
//!   and fanned back out to every waiter. The service calls the engine
//!   exactly as a direct caller does — it has no scan-thread option, so a
//!   served plan and a direct `query_spec` do the same scan.
//! * **Plan-keyed result cache** — a sharded LRU keyed by the normalized
//!   [`lovo_core::QueryPlan::fingerprint`] (text + effective `k` + flattened
//!   predicate), invalidated by [`lovo_core::Lovo::ingest_epoch`]: any
//!   insert, seal or compaction makes every older entry stale, so a cache
//!   hit is always as fresh as a recomputation would have been at lookup
//!   time.
//!
//! The service also owns a **background maintenance thread** that seals
//! left-over growing rows and compacts undersized sealed segments off the
//! query path, so steady query traffic never pays for index builds.
//!
//! ```
//! use lovo_core::{Lovo, LovoConfig, QuerySpec};
//! use lovo_serve::{QueryService, ServeConfig};
//! use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};
//! use std::sync::Arc;
//!
//! let videos = VideoCollection::generate(
//!     DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(60),
//! );
//! let engine = Arc::new(Lovo::build(&videos, LovoConfig::default()).unwrap());
//! let service = QueryService::start(engine, ServeConfig::default()).unwrap();
//!
//! let spec = QuerySpec::new("a red car driving in the center of the road");
//! let first = service.submit(spec.clone()).unwrap();
//! assert!(!first.result.frames.is_empty());
//! assert!(!first.cache_hit);
//!
//! // Same normalized plan, unchanged collection: served from the cache.
//! let second = service.submit(spec).unwrap();
//! assert!(second.cache_hit);
//! assert_eq!(second.result.frames, first.result.frames);
//! ```

// The serve tier runs on `QueryService` worker threads: a panic there is a
// lost request (`ServeStats::worker_panics`), so no module of it may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod cache;
mod config;
mod service;

pub use config::ServeConfig;
pub use service::{QueryService, ServeStats, Served};

/// Errors surfaced by the query service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full: the service refused the submission
    /// instead of queueing unboundedly. Callers should back off and retry;
    /// the payload reports the configured depth that was exceeded.
    Rejected {
        /// The configured admission-queue depth that was full at submission.
        queue_depth: usize,
    },
    /// The service is shutting down and no longer accepts submissions.
    ShuttingDown,
    /// The engine failed while executing the query (message of the
    /// underlying [`lovo_core::LovoError`]; stringly typed so one failure can
    /// be fanned out to every waiter of a coalesced batch).
    Engine(String),
    /// The worker processing this submission disappeared without replying
    /// (it panicked mid-batch). The submission may or may not have executed.
    WorkerLost,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { queue_depth } => write!(
                f,
                "submission rejected: admission queue full (depth {queue_depth})"
            ),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Engine(msg) => write!(f, "engine error: {msg}"),
            ServeError::WorkerLost => write!(f, "worker lost before replying"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Result alias for service operations.
pub type Result<T> = std::result::Result<T, ServeError>;
