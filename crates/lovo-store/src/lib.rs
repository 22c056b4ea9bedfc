//! # lovo-store
//!
//! Storage layer of the LOVO reproduction (§V of the paper): a small vector
//! database plus the relational metadata store it is paired with.
//!
//! The paper deploys LOVO inside Milvus; embeddings live in a vector
//! collection indexed by PQ + inverted multi-index, while "supplementary
//! metadata such as key frame identifiers and bounding box coordinates are
//! stored separately in a relational database", joined through the shared
//! *patch id*. This crate reproduces that split — including Milvus's
//! segmented storage model, which is what makes the collection incrementally
//! growable:
//!
//! * [`segment::Segment`] — the unit of growth: an append buffer that is
//!   brute-force-searchable while **growing** and becomes an immutable,
//!   ANN-indexed **sealed** segment once full;
//! * [`collection::SegmentedCollection`] — a named collection of
//!   L2-normalized embeddings over a set of sealed segments plus one growing
//!   segment; searches fan out over all segments and k-way-merge
//!   the per-segment top-k, and [`collection::SegmentedCollection::compact`]
//!   merges undersized sealed segments to bound the fan-out width;
//! * [`metadata::MetadataStore`] — the relational side: one row per patch
//!   (patch id, video id, frame index, patch grid position, bounding box,
//!   timestamp), ordered by patch id, with a directory of key frames and
//!   per-class postings that predicates resolve from;
//! * [`database::VectorDatabase`] — the façade joining the two, which is what
//!   `lovo-core` talks to, with batched patch insertion that takes the write
//!   lock once per batch.

#![warn(missing_docs)]

pub mod collection;
pub mod database;
pub mod durability;
pub mod metadata;
pub mod patchid;
pub mod segment;

pub use collection::{
    BatchQuery, CollectionConfig, CollectionStats, CompactionResult, PushdownFilter,
    SegmentedCollection, DEFAULT_SEGMENT_CAPACITY,
};
pub use database::{JoinedHit, VectorDatabase};
pub use durability::{DurabilityConfig, QuarantinedSegment, RecoveryReport, StorageError};
pub use metadata::{MetadataStore, PatchPredicate, PatchRecord};
pub use patchid::{patch_id, split_patch_id, MAX_PATCH_INDEX, MAX_VIDEO_ID};
pub use segment::{Segment, SegmentState, ZoneMap};

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// An error bubbled up from the index layer.
    Index(lovo_index::IndexError),
    /// A patch id was not found in the metadata store.
    MissingMetadata(u64),
    /// A collection with the requested name does not exist.
    UnknownCollection(String),
    /// The operation conflicts with the collection's configuration.
    InvalidOperation(String),
    /// A failure in the durable storage layer (I/O, corruption, or an
    /// injected crash point under test).
    Storage(durability::StorageError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Index(e) => write!(f, "index error: {e}"),
            StoreError::MissingMetadata(id) => write!(f, "no metadata for patch id {id}"),
            StoreError::UnknownCollection(name) => write!(f, "unknown collection '{name}'"),
            StoreError::InvalidOperation(msg) => write!(f, "invalid operation: {msg}"),
            StoreError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lovo_index::IndexError> for StoreError {
    fn from(e: lovo_index::IndexError) -> Self {
        StoreError::Index(e)
    }
}

impl From<durability::StorageError> for StoreError {
    fn from(e: durability::StorageError) -> Self {
        StoreError::Storage(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StoreError>;
