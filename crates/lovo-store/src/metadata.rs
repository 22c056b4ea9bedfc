//! Relational metadata store.
//!
//! The vector database stores only embeddings and patch ids; everything
//! needed to turn a hit back into a user-visible answer — which video, which
//! key frame, which patch of the frame, which bounding box — lives in this
//! relational side table, keyed by the shared patch id (§V-B). Beside the
//! rows the store keeps a directory of key frames and per-class postings, so
//! the rerank stage can fetch all patches of a candidate frame in one call
//! and a metadata predicate resolves to id ranges without reading the rows.

// The metadata table runs inside every filtered query's resolve and every
// hit's join, and the postings it shares are tested inside the scans.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::collection::PushdownFilter;
use crate::{Result, StoreError};
use lovo_index::{IdFilter, IdPosting, IdRanges};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// One row of the patch metadata table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatchRecord {
    /// Unique patch id (the join key with the vector collection).
    pub patch_id: u64,
    /// Video the patch belongs to.
    pub video_id: u32,
    /// Key-frame index within the video.
    pub frame_index: u32,
    /// Patch position in the frame's patch grid (row-major).
    pub patch_index: u32,
    /// Predicted bounding box `(x, y, w, h)` associated with the patch.
    pub bbox: (f32, f32, f32, f32),
    /// Timestamp of the key frame in seconds.
    pub timestamp: f64,
    /// Compact detector label of the patch's dominant object (`None` for
    /// background patches). The storage layer treats this as an opaque code —
    /// the engine defines the label space — but class predicates filter on it.
    pub class_code: Option<u8>,
}

impl PatchRecord {
    /// Packed `(video, frame)` key used by the per-frame secondary index.
    pub fn frame_key(&self) -> u64 {
        (u64::from(self.video_id) << 32) | u64::from(self.frame_index)
    }
}

/// A conjunctive metadata predicate over patch rows — the storage-level form
/// the query planner compiles its [`QueryPredicate`] AST into. Every
/// constraint is optional; `None` means unconstrained. The database joins
/// this against the metadata table (when the time or class constraints
/// require it) and pushes the result down to the index scans as an
/// [`lovo_index::IdFilter`] plus zone-map ranges.
///
/// [`QueryPredicate`]: https://docs.rs/lovo-video (the engine-level AST)
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PatchPredicate {
    /// Restrict to patches of these videos.
    pub video_ids: Option<BTreeSet<u32>>,
    /// Restrict to patches whose key-frame timestamp lies in this inclusive
    /// range of seconds.
    pub time_range: Option<(f64, f64)>,
    /// Restrict to patches whose dominant-object class code is one of these.
    pub class_codes: Option<BTreeSet<u8>>,
}

impl PatchPredicate {
    /// True when no constraint is set (the unfiltered fast path).
    pub fn is_unconstrained(&self) -> bool {
        self.video_ids.is_none() && self.time_range.is_none() && self.class_codes.is_none()
    }

    /// True when the predicate needs a metadata join to evaluate (timestamps
    /// and class codes live only in the relational table; video ids are
    /// recoverable from the packed patch id alone).
    pub fn needs_metadata_join(&self) -> bool {
        self.time_range.is_some() || self.class_codes.is_some()
    }

    /// True when the row satisfies every set constraint.
    pub fn matches(&self, record: &PatchRecord) -> bool {
        if let Some(videos) = &self.video_ids {
            if !videos.contains(&record.video_id) {
                return false;
            }
        }
        if let Some((start, end)) = self.time_range {
            if record.timestamp < start || record.timestamp > end {
                return false;
            }
        }
        if let Some(classes) = &self.class_codes {
            match record.class_code {
                Some(code) if classes.contains(&code) => {}
                _ => return false,
            }
        }
        true
    }
}

/// One key frame of the directory: where its rows sit in the id-ordered
/// table, and the timestamp they share.
#[derive(Debug, Clone, Copy)]
struct FrameEntry {
    /// Packed `(video, frame)` — the directory's sort key.
    key: u64,
    /// Timestamp of the frame's first row — of all its rows, unless the
    /// store has marked itself inexact.
    timestamp: f64,
    /// Positions in the table of the frame's lowest- and highest-id rows.
    first: usize,
    last: usize,
}

/// The relational metadata store: the patch table, a directory of its key
/// frames and one posting of ids per object class.
///
/// The table is a vector of rows ordered by patch id. Patch ids pack
/// `(video, frame, patch)` ([`crate::patchid`]), so id order is
/// `(video, frame)` order and every key frame owns one contiguous run of the
/// table. The **frame directory** records that run and the frame's timestamp
/// once per frame, ordered by `(video, frame)`; a video or time predicate is
/// answered by walking the directory — 2 064 entries for 80 640 rows on the
/// benchmark's large corpus — and coalescing the runs of adjacent matching
/// frames into id ranges, which are exact: a stored id lies inside a
/// frame's run exactly when the row belongs to that frame. The **class
/// postings** hold, per class code, the sorted ids of the rows carrying it.
/// Both are what [`MetadataStore::resolve`] hands the index scans, so a
/// filtered query does work in proportion to the frames and rows it names,
/// not to the table.
///
/// A row that arrives with an id above every stored one — what ingest does,
/// frame after frame — is an O(1) append to all three. Any other arrival
/// (a replacement, a video ingested after one with a larger id) merges into
/// the table and rebuilds the directory and the postings in one pass over
/// the rows, once per [`MetadataStore::extend`] call.
///
/// Nothing obliges a caller to pack its ids. When a frame's rows are not one
/// run of the table in directory order, or disagree on their timestamp, the
/// store notices on insert and [`MetadataStore::resolve`] takes the per-row
/// pass ([`MetadataStore::matching_ids`]) instead; frame and row lookups
/// stay correct either way.
#[derive(Debug, Default, Clone)]
pub struct MetadataStore {
    /// The table, ordered by patch id.
    rows: Vec<PatchRecord>,
    /// One entry per key frame, ordered by key.
    frames: Vec<FrameEntry>,
    /// Ids of the rows carrying each class code, ascending. Shared with the
    /// filters resolved from them; an insert copies a posting only while
    /// such a filter is still alive.
    postings: BTreeMap<u8, Arc<IdPosting>>,
    /// True once some frame's rows are not a single run of the table in
    /// directory order, or carry different timestamps: the directory then
    /// cannot stand in for the rows.
    inexact: bool,
}

impl MetadataStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the store has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts (or replaces) a patch record.
    pub fn insert(&mut self, record: PatchRecord) {
        self.extend(std::iter::once(record));
    }

    /// Inserts (or replaces) a batch of patch records; a later record
    /// replaces an earlier one with the same id. Records arriving in
    /// ascending id order above every stored id are appended one by one; the
    /// first that does not sends the rest of the batch through one merge and
    /// rebuild.
    pub fn extend(&mut self, records: impl IntoIterator<Item = PatchRecord>) {
        let mut merge = false;
        for record in records {
            merge = merge
                || self
                    .rows
                    .last()
                    .is_some_and(|last| record.patch_id <= last.patch_id);
            if merge {
                self.rows.push(record);
            } else {
                self.append(record);
            }
        }
        if merge {
            // A stable sort keeps a replacement behind the row it replaces,
            // so the swap below leaves the latest record in the kept slot.
            let mut rows = std::mem::take(&mut self.rows);
            rows.sort_by_key(|row| row.patch_id);
            rows.dedup_by(|later, kept| {
                let same = later.patch_id == kept.patch_id;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
            *self = Self::default();
            self.rows.reserve(rows.len());
            for row in rows {
                self.append(row);
            }
        }
    }

    /// Appends a row whose id exceeds every stored id, extending the
    /// directory and the row's class posting.
    fn append(&mut self, record: PatchRecord) {
        let position = self.rows.len();
        let key = record.frame_key();
        // Where the row's frame is in the directory: the last entry (the
        // frame being ingested) or a new one after it, unless id order and
        // frame order disagree.
        let slot = match self.frames.last() {
            Some(newest) if newest.key == key => Ok(self.frames.len() - 1),
            Some(newest) if newest.key > key => {
                self.inexact = true;
                self.frames.binary_search_by_key(&key, |frame| frame.key)
            }
            _ => Err(self.frames.len()),
        };
        match slot {
            Ok(index) => {
                if let Some(frame) = self.frames.get_mut(index) {
                    self.inexact |= frame.timestamp.to_bits() != record.timestamp.to_bits();
                    frame.last = position;
                }
            }
            Err(index) => self.frames.insert(
                index,
                FrameEntry {
                    key,
                    timestamp: record.timestamp,
                    first: position,
                    last: position,
                },
            ),
        }
        if let Some(code) = record.class_code {
            let posting = Arc::make_mut(self.postings.entry(code).or_default());
            // Cannot refuse: the id exceeds every id in the table.
            let _ = posting.push(record.patch_id);
        }
        self.rows.push(record);
    }

    /// Fetches the record for a patch id.
    pub fn get(&self, patch_id: u64) -> Result<&PatchRecord> {
        self.rows
            .binary_search_by_key(&patch_id, |row| row.patch_id)
            .ok()
            .and_then(|position| self.rows.get(position))
            .ok_or(StoreError::MissingMetadata(patch_id))
    }

    /// Fetches the records for a batch of patch ids, preserving order.
    pub fn get_many(&self, patch_ids: &[u64]) -> Result<Vec<&PatchRecord>> {
        patch_ids.iter().map(|&id| self.get(id)).collect()
    }

    /// The directory entries whose key lies in `from..=to`.
    fn frames_between(&self, from: u64, to: u64) -> &[FrameEntry] {
        let start = self.frames.partition_point(|frame| frame.key < from);
        let end = self.frames.partition_point(|frame| frame.key <= to);
        self.frames.get(start..end).unwrap_or_default()
    }

    /// All patch records belonging to a `(video, frame)` pair, in id order.
    pub fn patches_of_frame(&self, video_id: u32, frame_index: u32) -> Vec<&PatchRecord> {
        let key = (u64::from(video_id) << 32) | u64::from(frame_index);
        let Some(frame) = self.frames_between(key, key).first() else {
            return Vec::new();
        };
        // The frame's rows are exactly the run `first..=last` when ids are
        // packed; for ad-hoc ids other frames' rows can sit in between.
        self.rows
            .get(frame.first..=frame.last)
            .unwrap_or_default()
            .iter()
            .filter(|row| row.frame_key() == key)
            .collect()
    }

    /// Number of distinct frames referenced by the store.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Ids of every row satisfying the predicate, by one pass over the
    /// table: the reference the directory's answers are tested against, and
    /// what [`MetadataStore::resolve`] falls back to for a table the
    /// directory cannot describe exactly.
    pub fn matching_ids(&self, predicate: &PatchPredicate) -> HashSet<u64> {
        self.rows
            .iter()
            .filter(|record| predicate.matches(record))
            .map(|record| record.patch_id)
            .collect()
    }

    /// Compiles a predicate into the filter the index scans consume — the
    /// per-row id test plus the id ranges segments are pruned by — or `None`
    /// for an unconstrained predicate.
    ///
    /// Video and time constraints walk the frame directory (only the
    /// requested videos' part of it) and become sorted id ranges, one per
    /// run of adjacent matching frames: a time window is one range per
    /// camera. The ranges are the row test *and* the pruning ranges. A class
    /// constraint hands over the classes' postings, tested together with the
    /// ranges when both are present. Nothing proportional to the table is
    /// read or allocated.
    ///
    /// When the directory is inexact (see the type's documentation) the
    /// predicate is evaluated row by row into an allow-set instead, pruned by
    /// the set's id span.
    pub fn resolve(&self, predicate: &PatchPredicate) -> Option<PushdownFilter> {
        if predicate.is_unconstrained() {
            return None;
        }
        if self.inexact {
            let ids = self.matching_ids(predicate);
            let span = ids.iter().copied().min().zip(ids.iter().copied().max());
            return Some(PushdownFilter::new(IdFilter::Set(ids)).with_ranges(Vec::from_iter(span)));
        }
        let frames = (predicate.video_ids.is_some() || predicate.time_range.is_some())
            .then(|| self.frame_ranges(predicate));
        let Some(classes) = &predicate.class_codes else {
            let (ranges, matched) = frames?;
            return Some(PushdownFilter::new(IdFilter::Ranges { ranges, matched }));
        };
        let postings: Vec<Arc<IdPosting>> = classes
            .iter()
            .filter_map(|code| self.postings.get(code).cloned())
            .collect();
        // Segments are pruned by the frame ranges when there are any and by
        // the span the postings cover otherwise — which is no span at all,
        // pruning everything, when no row carries a requested class.
        let span = postings
            .iter()
            .filter_map(|posting| posting.bounds())
            .reduce(|(low, high), (first, last)| (low.min(first), high.max(last)));
        let within = frames.map(|(ranges, _)| ranges);
        let by_span = within.is_none() || span.is_none();
        let filter = PushdownFilter::new(IdFilter::Postings { postings, within });
        Some(if by_span {
            filter.with_ranges(Vec::from_iter(span))
        } else {
            filter
        })
    }

    /// Walks the directory for the predicate's video and time constraints:
    /// the id ranges of the matching frames (adjacent frames coalesced) and
    /// the number of rows they hold. Only meaningful while the directory is
    /// exact.
    fn frame_ranges(&self, predicate: &PatchPredicate) -> (IdRanges, usize) {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut walk = |frames: &[FrameEntry]| {
            for frame in frames {
                if let Some((start, end)) = predicate.time_range {
                    // The test `PatchPredicate::matches` applies per row.
                    if frame.timestamp < start || frame.timestamp > end {
                        continue;
                    }
                }
                match runs.last_mut() {
                    Some(run) if run.1 + 1 == frame.first => run.1 = frame.last,
                    _ => runs.push((frame.first, frame.last)),
                }
            }
        };
        match &predicate.video_ids {
            None => walk(&self.frames),
            Some(videos) => {
                for &video in videos {
                    let from = u64::from(video) << 32;
                    walk(self.frames_between(from, from | u64::from(u32::MAX)));
                }
            }
        }
        let matched = runs.iter().map(|&(first, last)| last + 1 - first).sum();
        let id_at = |position: usize| self.rows.get(position).map(|row| row.patch_id);
        let ranges = runs
            .iter()
            .filter_map(|&(first, last)| id_at(first).zip(id_at(last)))
            .collect();
        (IdRanges::new(ranges), matched)
    }

    /// Distinct video ids referenced by the table. Recovery uses this to
    /// rebuild the engine's ingested-video set from durable state.
    pub fn video_ids(&self) -> BTreeSet<u32> {
        self.frames
            .iter()
            .map(|frame| (frame.key >> 32) as u32)
            .collect()
    }

    /// Approximate memory footprint in bytes (used by the storage ablation):
    /// the rows, the directory and the postings.
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<PatchRecord>()
            + self.frames.len() * std::mem::size_of::<FrameEntry>()
            + self
                .postings
                .values()
                .map(|posting| posting.memory_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(patch_id: u64, video: u32, frame: u32) -> PatchRecord {
        PatchRecord {
            patch_id,
            video_id: video,
            frame_index: frame,
            patch_index: (patch_id % 48) as u32,
            bbox: (10.0, 20.0, 100.0, 50.0),
            timestamp: frame as f64 / 30.0,
            class_code: Some((patch_id % 3) as u8),
        }
    }

    #[test]
    fn insert_and_get_round_trip() {
        let mut store = MetadataStore::new();
        store.insert(record(1, 0, 10));
        assert_eq!(store.len(), 1);
        let r = store.get(1).unwrap();
        assert_eq!(r.video_id, 0);
        assert_eq!(r.frame_index, 10);
        assert!(store.get(2).is_err());
    }

    #[test]
    fn get_many_preserves_order() {
        let mut store = MetadataStore::new();
        for i in 0..5 {
            store.insert(record(i, 0, i as u32));
        }
        let rows = store.get_many(&[3, 1, 4]).unwrap();
        assert_eq!(
            rows.iter().map(|r| r.patch_id).collect::<Vec<_>>(),
            vec![3, 1, 4]
        );
        assert!(store.get_many(&[3, 99]).is_err());
    }

    #[test]
    fn frame_secondary_index_groups_patches() {
        let mut store = MetadataStore::new();
        store.insert(record(1, 0, 5));
        store.insert(record(2, 0, 5));
        store.insert(record(3, 0, 6));
        store.insert(record(4, 1, 5));
        let frame5 = store.patches_of_frame(0, 5);
        assert_eq!(frame5.len(), 2);
        assert!(frame5.iter().all(|r| r.frame_index == 5 && r.video_id == 0));
        assert_eq!(store.patches_of_frame(1, 5).len(), 1);
        assert!(store.patches_of_frame(9, 9).is_empty());
        assert_eq!(store.frame_count(), 3);
    }

    #[test]
    fn replacement_updates_secondary_index() {
        let mut store = MetadataStore::new();
        store.insert(record(7, 0, 1));
        store.insert(record(7, 0, 2)); // same patch id moved to another frame
        assert_eq!(store.len(), 1);
        assert!(store.patches_of_frame(0, 1).is_empty());
        assert_eq!(store.patches_of_frame(0, 2).len(), 1);
    }

    #[test]
    fn duplicate_insert_same_frame_does_not_duplicate_index_entry() {
        let mut store = MetadataStore::new();
        store.insert(record(7, 0, 1));
        store.insert(record(7, 0, 1));
        assert_eq!(store.patches_of_frame(0, 1).len(), 1);
    }

    #[test]
    fn frame_key_packs_video_and_frame() {
        let r = record(1, 3, 9);
        assert_eq!(r.frame_key(), (3u64 << 32) | 9);
    }

    #[test]
    fn predicate_matches_each_constraint() {
        let r = record(10, 2, 30); // timestamp 1.0, class 1
        assert!(PatchPredicate::default().matches(&r));
        assert!(PatchPredicate::default().is_unconstrained());

        let videos = PatchPredicate {
            video_ids: Some([2u32].into_iter().collect()),
            ..Default::default()
        };
        assert!(videos.matches(&r));
        assert!(!videos.needs_metadata_join());
        let wrong_video = PatchPredicate {
            video_ids: Some([3u32].into_iter().collect()),
            ..Default::default()
        };
        assert!(!wrong_video.matches(&r));

        let time = PatchPredicate {
            time_range: Some((0.5, 1.5)),
            ..Default::default()
        };
        assert!(time.matches(&r));
        assert!(time.needs_metadata_join());
        let early = PatchPredicate {
            time_range: Some((0.0, 0.9)),
            ..Default::default()
        };
        assert!(!early.matches(&r));

        let class = PatchPredicate {
            class_codes: Some([1u8].into_iter().collect()),
            ..Default::default()
        };
        assert!(class.matches(&r));
        let other_class = PatchPredicate {
            class_codes: Some([2u8].into_iter().collect()),
            ..Default::default()
        };
        assert!(!other_class.matches(&r));
        // Background rows (no class) never match a class predicate.
        let mut background = record(11, 2, 30);
        background.class_code = None;
        assert!(!class.matches(&background));
    }

    #[test]
    fn matching_ids_joins_the_predicate() {
        let mut store = MetadataStore::new();
        for i in 0..30u64 {
            store.insert(record(i, (i % 3) as u32, i as u32));
        }
        let pred = PatchPredicate {
            video_ids: Some([1u32].into_iter().collect()),
            time_range: Some((0.0, 0.5)), // frames 0..=15
            ..Default::default()
        };
        let ids = store.matching_ids(&pred);
        // Videos ≡ 1 mod 3, frame index ≤ 15: ids 1, 4, 7, 10, 13.
        assert_eq!(ids.len(), 5);
        assert!(ids.contains(&1) && ids.contains(&13));
        assert!(!ids.contains(&16));
    }

    #[test]
    fn memory_estimate_grows() {
        let mut store = MetadataStore::new();
        let before = store.memory_bytes();
        for i in 0..100 {
            store.insert(record(i, 0, i as u32));
        }
        assert!(store.memory_bytes() > before);
    }
}
