//! # lovo-index
//!
//! Vector-index substrate for the LOVO reproduction (§V of the paper).
//!
//! The paper stores per-patch class embeddings in a vector database indexed
//! with product quantization and an inverted multi-index, and answers queries
//! with the approximate nearest-neighbour search of Algorithm 1. Table V also
//! compares against brute force and a graph-based (HNSW) index. This crate
//! implements all of those from scratch:
//!
//! * [`metric`] — similarity metrics (§V-A): normalized dot product /
//!   cosine, and the distance relationship `d = sqrt(2 - 2 s)`;
//! * [`kmeans`] — Lloyd's iteration, used to train PQ codebooks and the
//!   coarse quantizers;
//! * [`pq`] — product quantization with asymmetric-distance (ADC) lookup
//!   tables;
//! * [`ivf`] — the inverted multi-index (Cartesian product of per-subspace
//!   coarse codebooks) plus Algorithm 1's search: per-subspace centroid
//!   scoring, Top-A cluster selection, residual-corrected approximate scores,
//!   exact re-scoring of the top-k, and the patch-id majority vote;
//! * [`hnsw`] — a hierarchical navigable small-world graph index;
//! * [`flat`] — exhaustive (brute-force) search, the accuracy upper bound;
//! * [`store`] — the row storage the flat and IVF families scan and
//!   rescore, shared copy-on-write.
//!
//! All indexes implement the query-side [`VectorIndex`] trait — one
//! `search`, with an optional pushed-down [`IdFilter`] — so the storage
//! layer (`lovo-store`) and LOVO itself can switch between them (the Table V
//! experiment does exactly that). A sealed segment's index has one
//! constructor, [`create_segment_index_from_rows`], over the segment's own
//! [`RowStore`]: seal, compaction and reopen all build through it, and the
//! flat and IVF-PQ families scan and rescore those very rows. Each family
//! has one scan path (the quantized int8 and 4-bit tiers no engine reached
//! are gone; see `docs/benchmarks.md`).

#![warn(missing_docs)]

pub mod flat;
pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod metric;
pub mod pq;
pub mod store;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf::{IvfPqConfig, IvfPqIndex};
pub use pq::{PqCode, PqConfig, ProductQuantizer};
pub use store::RowStore;

use serde::{Deserialize, Serialize};

/// Errors produced by index construction and search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// A vector had the wrong dimensionality.
    DimensionMismatch {
        /// Dimension the index expects.
        expected: usize,
        /// Dimension that was provided.
        actual: usize,
    },
    /// The index cannot be built or searched in its current state.
    InvalidState(String),
    /// A configuration parameter was invalid.
    InvalidConfig(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            IndexError::InvalidState(msg) => write!(f, "invalid index state: {msg}"),
            IndexError::InvalidConfig(msg) => write!(f, "invalid index config: {msg}"),
        }
    }
}

impl std::error::Error for IndexError {}

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;

/// External identifier of an indexed vector. LOVO uses the *patch id*: a
/// unique key per (key frame, patch) pair that also links to the relational
/// metadata store.
pub type VectorId = u64;

/// One search hit: the stored vector's id and its similarity to the query
/// (higher is more similar; the inner-product metric on unit vectors).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Identifier of the matched vector (the patch id).
    pub id: VectorId,
    /// Similarity score (inner product of unit vectors ⇒ cosine).
    pub score: f32,
}

impl SearchResult {
    /// The crate's one total order over hits, best first: score descending,
    /// a NaN after every number, then id ascending — the order a [`TopK`]
    /// selects by. A search returns its hits unordered; sorting them with
    /// this gives the best-first list.
    #[inline]
    pub fn order(&self, other: &Self) -> std::cmp::Ordering {
        let entry = |hit: &Self| TopKEntry {
            score: hit.score,
            id: hit.id,
            payload: (),
        };
        entry(self).order(&entry(other))
    }
}

/// A deterministic hasher for the `u64` keys the query path groups by —
/// IVF-PQ cell keys, a query's frame keys — where SipHash's flooding
/// resistance buys nothing: the keys come from the index and the packed
/// patch ids, never from a client. One multiply per key spreads its bits
/// upward; the rotate in [`std::hash::Hasher::finish`] brings the mixed
/// high bits down to where a hash table picks its bucket.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

/// The [`std::hash::BuildHasher`] of [`IdHasher`], for `HashMap`s keyed by ids.
pub type IdBuildHasher = std::hash::BuildHasherDefault<IdHasher>;

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        // The 64-bit odd multiplier of FxHash.
        self.0 = (self.0 ^ value).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Statistics describing the work a search performed, used by the runtime and
/// ablation experiments to report probe counts next to wall-clock latency.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of stored vectors whose (approximate or exact) score was computed.
    pub vectors_scored: usize,
    /// Number of coarse clusters / graph nodes visited.
    pub cells_probed: usize,
    /// Number of candidates that were exactly re-scored.
    pub exact_rescored: usize,
    /// Number of storage segments probed. A single index reports 0; the
    /// segmented collection layer sets this to its fan-out width.
    pub segments_probed: usize,
    /// Number of storage segments skipped entirely because their zone map
    /// could not intersect the pushed-down filter. A single index reports 0.
    pub segments_pruned: usize,
    /// Number of candidates offered to bounded [`TopK`] selectors. Selection
    /// is O(n log k) in this, versus the O(n log n) of a full sort.
    pub heap_pushes: usize,
    /// Number of stored vectors a pushed-down [`IdFilter`] rejected before
    /// they could enter candidate selection (rows masked in a flat scan,
    /// codes skipped before ADC scoring, graph nodes visited but not
    /// accepted into the beam).
    pub filtered_out: usize,
}

impl SearchStats {
    /// Folds another search's work counters into this one. The segmented
    /// storage layer uses this to aggregate per-segment statistics into one
    /// collection-level report.
    ///
    /// The exhaustive destructuring makes a new field a compile error here
    /// until it is folded.
    pub fn merge(&mut self, other: &SearchStats) {
        let Self {
            vectors_scored,
            cells_probed,
            exact_rescored,
            segments_probed,
            segments_pruned,
            heap_pushes,
            filtered_out,
        } = *other;
        self.vectors_scored += vectors_scored;
        self.cells_probed += cells_probed;
        self.exact_rescored += exact_rescored;
        self.segments_probed += segments_probed;
        self.segments_pruned += segments_pruned;
        self.heap_pushes += heap_pushes;
        self.filtered_out += filtered_out;
    }
}

/// Sorted, pairwise-disjoint inclusive id ranges: the shape a frame-level
/// predicate (videos, time windows) resolves to, because every key frame owns
/// one contiguous run of packed patch ids. Membership and overlap tests are
/// binary searches, so a window that matches every other frame — thousands
/// of ranges — costs the same few steps per row as one range per camera.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IdRanges(Vec<(VectorId, VectorId)>);

impl IdRanges {
    /// Builds the set from inclusive `(start, end)` ranges in any order:
    /// sorts them, drops inverted ones and merges those that overlap.
    pub fn new(mut ranges: Vec<(VectorId, VectorId)>) -> Self {
        ranges.retain(|&(start, end)| start <= end);
        ranges.sort_unstable();
        let mut merged: Vec<(VectorId, VectorId)> = Vec::with_capacity(ranges.len());
        for (start, end) in ranges {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        Self(merged)
    }

    /// The ranges, ascending.
    pub fn as_slice(&self) -> &[(VectorId, VectorId)] {
        &self.0
    }

    /// True when some range holds the id.
    #[inline]
    pub fn contains(&self, id: VectorId) -> bool {
        self.overlaps(id, id)
    }

    /// True when some range intersects the inclusive span `start..=end`.
    #[inline]
    pub fn overlaps(&self, start: VectorId, end: VectorId) -> bool {
        // The first range ending at or after `start` is the only candidate:
        // every earlier one ends before the span, every later one starts
        // even further right.
        let candidate = self.0.partition_point(|&(_, range_end)| range_end < start);
        self.0
            .get(candidate)
            .is_some_and(|&(range_start, _)| range_start <= end)
    }
}

/// A sorted set of ids held in four bytes each: `u32` offsets from a handful
/// of eight-byte block bases. A new block opens whenever the next id lies
/// more than `u32::MAX` past the current base — for packed patch ids that is
/// once per video — so the per-class postings the metadata store keeps cost
/// half of what the same ids would as a `Vec<u64>`, and a membership test
/// binary-searches a dense `u32` run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IdPosting {
    /// `(base id, index in `offsets` of the block's first entry)`, both
    /// strictly ascending.
    blocks: Vec<(VectorId, usize)>,
    /// Id minus its block's base, ascending within each block.
    offsets: Vec<u32>,
}

impl IdPosting {
    /// Creates an empty posting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an id, which must exceed every id already held. Returns
    /// `false` — leaving the posting unchanged — when it does not.
    #[must_use]
    pub fn push(&mut self, id: VectorId) -> bool {
        let offset = match self.bounds() {
            Some((_, last)) if id <= last => return false,
            Some(_) => self
                .blocks
                .last()
                .and_then(|&(base, _)| u32::try_from(id - base).ok()),
            None => None,
        };
        match offset {
            Some(offset) => self.offsets.push(offset),
            None => {
                self.blocks.push((id, self.offsets.len()));
                self.offsets.push(0);
            }
        }
        true
    }

    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True when no id is held.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Smallest and largest id held, `None` when empty.
    pub fn bounds(&self) -> Option<(VectorId, VectorId)> {
        let &(first, _) = self.blocks.first()?;
        let &(base, _) = self.blocks.last()?;
        let &offset = self.offsets.last()?;
        Some((first, base + VectorId::from(offset)))
    }

    /// Offsets of the block at `index` and where they start in `offsets`.
    fn block(&self, index: usize) -> Option<(VectorId, usize, &[u32])> {
        let &(base, start) = self.blocks.get(index)?;
        let end = self
            .blocks
            .get(index + 1)
            .map_or(self.offsets.len(), |&(_, next)| next);
        Some((base, start, self.offsets.get(start..end)?))
    }

    /// The block whose base is the greatest at or below `id`.
    fn block_of(&self, id: VectorId) -> Option<(VectorId, usize, &[u32])> {
        let after = self.blocks.partition_point(|&(base, _)| base <= id);
        self.block(after.checked_sub(1)?)
    }

    /// Number of held ids below `id` (or, with `inclusive`, at or below it).
    fn rank(&self, id: VectorId, inclusive: bool) -> usize {
        let Some((base, start, run)) = self.block_of(id) else {
            return 0;
        };
        let Ok(offset) = u32::try_from(id - base) else {
            return start + run.len();
        };
        start + run.partition_point(|&held| held < offset || (inclusive && held == offset))
    }

    /// True when the id is held.
    #[inline]
    pub fn contains(&self, id: VectorId) -> bool {
        self.block_of(id).is_some_and(|(base, _, run)| {
            u32::try_from(id - base).is_ok_and(|offset| run.binary_search(&offset).is_ok())
        })
    }

    /// Number of held ids inside the inclusive span `start..=end`.
    pub fn count_in(&self, start: VectorId, end: VectorId) -> usize {
        self.rank(end, true).saturating_sub(self.rank(start, false))
    }

    /// The held ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = VectorId> + '_ {
        (0..self.blocks.len())
            .filter_map(|index| self.block(index))
            .flat_map(|(base, _, run)| run.iter().map(move |&offset| base + VectorId::from(offset)))
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<(VectorId, usize)>()
            + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

impl FromIterator<VectorId> for IdPosting {
    /// Collects ascending ids; an id that does not exceed its predecessor is
    /// skipped.
    fn from_iter<I: IntoIterator<Item = VectorId>>(ids: I) -> Self {
        let mut posting = Self::new();
        for id in ids {
            let _ = posting.push(id);
        }
        posting
    }
}

/// A pushed-down predicate over external vector ids, evaluated inside every
/// index scan so rejected rows never reach candidate selection (and, for the
/// IVF-PQ and graph families, are never fully scored).
///
/// The storage layer compiles metadata predicates (video subsets, time
/// windows, object classes) into one of these before fanning a query out to
/// its segments; see `lovo-store`'s `PushdownFilter` for the zone-map half of
/// the pushdown.
pub enum IdFilter {
    /// Explicit allow-set of ids (what a per-row metadata join produces, and
    /// what callers holding an explicit id list use).
    Set(std::collections::HashSet<VectorId>),
    /// Every id inside sorted, disjoint ranges — what video and time
    /// predicates resolve to from the metadata store's frame directory.
    Ranges {
        /// The accepted ranges.
        ranges: IdRanges,
        /// Number of stored rows the ranges hold.
        matched: usize,
    },
    /// Ids held by any of the (mutually disjoint) postings and, when
    /// `within` is given, inside its ranges — what class predicates resolve
    /// to. The postings are the metadata store's own, shared, not copied.
    Postings {
        /// One sorted posting per requested class.
        postings: Vec<std::sync::Arc<IdPosting>>,
        /// The frame-level part of the predicate, if any.
        within: Option<IdRanges>,
    },
}

impl IdFilter {
    /// Builds an allow-set filter from an id iterator.
    pub fn from_ids(ids: impl IntoIterator<Item = VectorId>) -> Self {
        IdFilter::Set(ids.into_iter().collect())
    }

    /// True when the filter accepts the id.
    #[inline]
    pub fn accepts(&self, id: VectorId) -> bool {
        match self {
            IdFilter::Set(ids) => ids.contains(&id),
            IdFilter::Ranges { ranges, .. } => ranges.contains(id),
            IdFilter::Postings { postings, within } => {
                within.as_ref().map_or(true, |ranges| ranges.contains(id))
                    && postings.iter().any(|posting| posting.contains(id))
            }
        }
    }

    /// Number of stored rows the filter accepts: the size of an allow-set,
    /// the row count recorded with resolved ranges, the posting entries
    /// inside the ranges.
    pub fn matched(&self) -> usize {
        match self {
            IdFilter::Set(ids) => ids.len(),
            IdFilter::Ranges { matched, .. } => *matched,
            IdFilter::Postings { postings, within } => postings
                .iter()
                .map(|posting| match within {
                    None => posting.len(),
                    Some(ranges) => ranges
                        .as_slice()
                        .iter()
                        .map(|&(start, end)| posting.count_in(start, end))
                        .sum(),
                })
                .sum(),
        }
    }

    /// The sorted id ranges every accepted id lies in, when the filter is
    /// made of ranges — the same ranges prune segments by zone map.
    pub fn ranges(&self) -> Option<&IdRanges> {
        match self {
            IdFilter::Ranges { ranges, .. } => Some(ranges),
            IdFilter::Postings { within, .. } => within.as_ref(),
            IdFilter::Set(_) => None,
        }
    }
}

impl std::fmt::Debug for IdFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IdFilter::Set(ids) => write!(f, "IdFilter::Set({} ids)", ids.len()),
            IdFilter::Ranges { ranges, matched } => write!(
                f,
                "IdFilter::Ranges({} ranges, {matched} rows)",
                ranges.as_slice().len()
            ),
            IdFilter::Postings { postings, within } => write!(
                f,
                "IdFilter::Postings({} postings, {} ranges)",
                postings.len(),
                within.as_ref().map_or(0, |ranges| ranges.as_slice().len())
            ),
        }
    }
}

/// One candidate held by a [`TopK`] selector: the score, the external id used
/// for deterministic tie-breaking, and a caller-defined payload carried along
/// (e.g. the rescore-arena row of an IVF candidate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry<P: Copy = ()> {
    /// Similarity score, higher is better.
    pub score: f32,
    /// External id; equal scores rank the smaller id first.
    pub id: VectorId,
    /// Caller payload, ignored by the ordering.
    pub payload: P,
}

impl<P: Copy> TopKEntry<P> {
    /// The crate-wide result order, best first: score descending, then id
    /// ascending. A NaN score ranks after every number, which keeps the
    /// order total — what `select_nth_unstable_by` and `sort_unstable_by`
    /// are entitled to assume — even for a query that scores to NaN.
    #[inline]
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or_else(|| self.score.is_nan().cmp(&other.score.is_nan()))
            .then(self.id.cmp(&other.id))
    }

    /// True when `self` outranks `other` under [`TopKEntry::order`].
    #[inline]
    fn beats(&self, other: &Self) -> bool {
        self.order(other) == std::cmp::Ordering::Less
    }
}

/// Bounded top-k selection: offers are buffered and, whenever `2k` have
/// piled up, cut back to the best `k` with one linear-time
/// `select_nth_unstable_by`; after a cut an offer that does not beat the kept
/// worst is rejected on arrival. That is O(1) amortised per offer whatever
/// `k` is, nothing is ordered until the caller asks for it, and the buffer
/// grows with the offers instead of being sized for `k` up front — a segment
/// that yields 240 candidates for a 1600-entry selector allocates for 240.
///
/// The selected set and its final ordering are identical to a full sort by
/// score descending with ties broken by ascending id — the crate's
/// determinism contract, a total order over distinct ids, so neither the
/// offer order nor where the cuts fall can change the outcome. The property
/// tests here and in `tests/hot_path_properties.rs` assert it against a
/// binary-heap selector and a full sort.
///
/// ```
/// use lovo_index::TopK;
///
/// let mut top = TopK::new(2);
/// for (id, score) in [(4u64, 0.3f32), (3, 0.9), (2, 0.5), (1, 0.9)] {
///     top.push_hit(id, score);
/// }
/// assert_eq!(top.pushes(), 4);
/// let best: Vec<(u64, f32)> = top
///     .into_sorted_results()
///     .into_iter()
///     .map(|hit| (hit.id, hit.score))
///     .collect();
/// // Best-first; the 0.9 tie breaks toward the smaller id.
/// assert_eq!(best, vec![(1, 0.9), (3, 0.9)]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK<P: Copy = ()> {
    k: usize,
    /// At most `2k` entries, of which the best `k` are the selection.
    entries: Vec<TopKEntry<P>>,
    /// The worst entry a cut kept: the bar later offers must beat.
    bar: Option<TopKEntry<P>>,
    pushes: usize,
}

impl<P: Copy> TopK<P> {
    /// Creates a selector keeping the best `k` entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            entries: Vec::new(),
            bar: None,
            pushes: 0,
        }
    }

    /// Offers one candidate. Kept only if fewer than `k` entries are held or
    /// it beats the current worst (score descending, id ascending on ties).
    #[inline]
    pub fn push(&mut self, id: VectorId, score: f32, payload: P) {
        self.pushes += 1;
        let entry = TopKEntry { score, id, payload };
        if self.k == 0 || self.bar.is_some_and(|bar| !entry.beats(&bar)) {
            return;
        }
        self.entries.push(entry);
        if self.entries.len() >= self.k.saturating_mul(2) {
            self.cut();
        }
    }

    /// Cuts the buffer back to its best `k` entries, in no particular order.
    fn cut(&mut self) {
        if self.entries.len() > self.k {
            let (_, kth, _) = self
                .entries
                .select_nth_unstable_by(self.k - 1, TopKEntry::order);
            self.bar = Some(*kth);
            self.entries.truncate(self.k);
        }
    }

    /// Number of entries currently held (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len().min(self.k)
    }

    /// True when no entry has been kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total candidates offered via [`TopK::push`], for `heap_pushes` stats.
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Consumes the selector, returning the kept entries in no particular
    /// order — for a caller that rescores them all and selects again.
    pub fn into_unordered_entries(mut self) -> Vec<TopKEntry<P>> {
        self.cut();
        self.entries
    }

    /// Consumes the selector, returning the kept entries best-first.
    pub fn into_sorted_entries(self) -> Vec<TopKEntry<P>> {
        let mut entries = self.into_unordered_entries();
        entries.sort_unstable_by(TopKEntry::order);
        entries
    }
}

impl TopK<()> {
    /// Payload-free convenience for callers selecting plain search hits.
    #[inline]
    pub fn push_hit(&mut self, id: VectorId, score: f32) {
        self.push(id, score, ());
    }

    /// Consumes the selector, returning the kept hits best-first.
    pub fn into_sorted_results(self) -> Vec<SearchResult> {
        Self::results(self.into_sorted_entries())
    }

    /// Consumes the selector, returning the kept hits in no particular
    /// order — what an index search hands the collection merge, which
    /// orders them once.
    pub fn into_unordered_results(self) -> Vec<SearchResult> {
        Self::results(self.into_unordered_entries())
    }

    fn results(entries: Vec<TopKEntry>) -> Vec<SearchResult> {
        entries
            .into_iter()
            .map(|e| SearchResult {
                id: e.id,
                score: e.score,
            })
            .collect()
    }
}

/// Query side shared by every index family (Flat, IVF-PQ, HNSW). Each
/// family is built by its own constructor — a sealed segment's index by
/// [`create_segment_index_from_rows`] — and only searched afterwards.
pub trait VectorIndex: Send + Sync {
    /// Dimensionality of indexed vectors.
    fn dim(&self) -> usize;

    /// Number of vectors currently stored.
    fn len(&self) -> usize;

    /// True when the index holds no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the `k` most similar vectors to `query` whose ids pass
    /// `filter` (every id when `None`), with the work the search did.
    ///
    /// The `k` best, unordered: the hits come back in no particular order,
    /// and the collection merge, which selects across segments anyway, is
    /// the one place that orders them (score descending, then id
    /// ascending). A caller that reads an index directly and needs the best
    /// hit first sorts them itself.
    ///
    /// Every family evaluates the filter *inside* its scan so rejected
    /// vectors are skipped as early as the layout allows: flat masks rows
    /// during the block scan, IVF-PQ skips non-matching codes before ADC
    /// scoring and rescores only matching candidates, HNSW visits the graph
    /// unfiltered but accepts only matching nodes into the result beam.
    fn search(
        &self,
        query: &[f32],
        k: usize,
        filter: Option<&IdFilter>,
    ) -> Result<(Vec<SearchResult>, SearchStats)>;

    /// Human-readable name of the index family (for reports).
    fn family(&self) -> &'static str;

    /// Approximate memory footprint of the index payload in bytes.
    fn memory_bytes(&self) -> usize;

    /// The row arena the index scans (flat), rescores (IVF-PQ) or walks
    /// (HNSW).
    fn row_store(&self) -> &RowStore;
}

/// Index families the system can be configured with (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexKind {
    /// Exhaustive brute-force search.
    BruteForce,
    /// Quantization-based inverted multi-index (the paper's default).
    IvfPq,
    /// Graph-based index.
    Hnsw,
}

impl IndexKind {
    /// Display name matching the paper's Table V rows.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::BruteForce => "BF",
            IndexKind::IvfPq => "IVF-PQ",
            IndexKind::Hnsw => "HNSW",
        }
    }

    /// All index kinds.
    pub const ALL: [IndexKind; 3] = [IndexKind::BruteForce, IndexKind::IvfPq, IndexKind::Hnsw];
}

/// Minimum number of rows for which training-based families are worth their
/// build cost; segments below this threshold fall back to brute force.
pub const MIN_TRAINED_SEGMENT_ROWS: usize = 256;

/// The IVF-PQ configuration of a trained segment of `rows` vectors: the
/// coarse codebooks shrink to keep at least ~8 vectors per centroid.
fn segment_ivf_config(dim: usize, rows: usize) -> IvfPqConfig {
    let base = IvfPqConfig::for_dim(dim);
    let centroids = (rows / 8).clamp(4, base.coarse_centroids);
    base.with_coarse_centroids(centroids)
}

/// Builds a sealed segment's index over its rows: `ids[i]` owns
/// `rows[i*dim..(i+1)*dim]`. The one constructor of a segment index — seal,
/// compaction and reopen all come through here, so they cannot diverge.
///
/// Training-based families degrade on tiny segments (Lloyd's iteration with
/// more centroids than points, PQ codebooks trained on a handful of
/// samples), so an IVF-PQ segment below [`MIN_TRAINED_SEGMENT_ROWS`] falls
/// back to brute force, which is also faster to build and scan at that
/// size. Every family adopts `rows` as its scan, rescore or graph arena
/// without copying: a clone of a store shares its allocation.
pub fn create_segment_index_from_rows(
    kind: IndexKind,
    dim: usize,
    ids: Vec<VectorId>,
    rows: RowStore,
) -> Result<Box<dyn VectorIndex>> {
    match kind {
        IndexKind::IvfPq if ids.len() >= MIN_TRAINED_SEGMENT_ROWS => {
            let config = segment_ivf_config(dim, ids.len());
            Ok(Box::new(IvfPqIndex::build_from_rows(config, ids, rows)?))
        }
        IndexKind::BruteForce | IndexKind::IvfPq => {
            Ok(Box::new(FlatIndex::from_parts(dim, ids, rows)?))
        }
        IndexKind::Hnsw => Ok(Box::new(HnswIndex::build_from_rows(
            HnswConfig::for_dim(dim),
            ids,
            rows,
        )?)),
    }
}

/// Index hits in the crate-wide order, best first: what a test reading an
/// unordered search result by position sorts it into.
#[cfg(test)]
pub(crate) fn sorted(hits: Vec<SearchResult>) -> Vec<SearchResult> {
    let mut top = TopK::new(hits.len());
    for hit in hits {
        top.push_hit(hit.id, hit.score);
    }
    top.into_sorted_results()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_kind_names_match_table_v() {
        assert_eq!(IndexKind::BruteForce.name(), "BF");
        assert_eq!(IndexKind::IvfPq.name(), "IVF-PQ");
        assert_eq!(IndexKind::Hnsw.name(), "HNSW");
    }

    /// `rows` seeded-random unit vectors of `dim`, row-major.
    fn unit_rows(rows: usize, dim: usize) -> Vec<f32> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        (0..rows)
            .flat_map(|_| {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                metric::normalize(&mut v);
                v
            })
            .collect()
    }

    fn segment_index(kind: IndexKind, dim: usize, rows: usize) -> Box<dyn VectorIndex> {
        let ids = (0..rows as u64).collect();
        create_segment_index_from_rows(kind, dim, ids, unit_rows(rows, dim).into()).unwrap()
    }

    #[test]
    fn create_index_produces_each_family() {
        for kind in IndexKind::ALL {
            let idx = segment_index(kind, 32, MIN_TRAINED_SEGMENT_ROWS);
            assert_eq!(idx.dim(), 32);
            assert_eq!(idx.len(), MIN_TRAINED_SEGMENT_ROWS);
            assert_eq!(idx.family(), kind.name());
        }
    }

    #[test]
    fn search_stats_merge_sums_counters() {
        let mut a = SearchStats {
            vectors_scored: 10,
            cells_probed: 2,
            exact_rescored: 5,
            segments_probed: 1,
            segments_pruned: 4,
            heap_pushes: 11,
            filtered_out: 2,
        };
        a.merge(&SearchStats {
            vectors_scored: 7,
            cells_probed: 3,
            exact_rescored: 4,
            segments_probed: 2,
            segments_pruned: 1,
            heap_pushes: 6,
            filtered_out: 3,
        });
        assert_eq!(a.vectors_scored, 17);
        assert_eq!(a.cells_probed, 5);
        assert_eq!(a.exact_rescored, 9);
        assert_eq!(a.segments_probed, 3);
        assert_eq!(a.segments_pruned, 5);
        assert_eq!(a.heap_pushes, 17);
        assert_eq!(a.filtered_out, 5);
    }

    #[test]
    fn id_filter_set_accepts_its_ids() {
        let set = IdFilter::from_ids([3u64, 5, 9]);
        assert!(set.accepts(5));
        assert!(!set.accepts(4));
        assert_eq!(set.matched(), 3);
        assert!(set.ranges().is_none());
        assert!(format!("{set:?}").contains("3 ids"));
    }

    #[test]
    fn top_k_keeps_best_with_id_tie_break() {
        let mut top = TopK::new(3);
        for (id, score) in [(9u64, 0.5f32), (2, 0.9), (7, 0.5), (1, 0.1), (4, 0.9)] {
            top.push_hit(id, score);
        }
        assert_eq!(top.pushes(), 5);
        assert_eq!(top.len(), 3);
        let hits = top.into_sorted_results();
        // Score descending, ties (0.9, 0.9) and (0.5, 0.5) by ascending id.
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![2, 4, 7],);
        assert_eq!(hits[2].score, 0.5);
    }

    #[test]
    fn top_k_zero_capacity_keeps_nothing() {
        let mut top = TopK::new(0);
        top.push_hit(1, 1.0);
        assert!(top.is_empty());
        assert_eq!(top.pushes(), 1);
        assert!(top.into_sorted_results().is_empty());
    }

    #[test]
    fn top_k_carries_payload() {
        let mut top: TopK<u32> = TopK::new(2);
        top.push(10, 0.3, 100);
        top.push(20, 0.8, 200);
        top.push(30, 0.5, 300);
        let entries = top.into_sorted_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!((entries[0].id, entries[0].payload), (20, 200));
        assert_eq!((entries[1].id, entries[1].payload), (30, 300));
    }

    /// The size-`k` binary heap [`TopK`] was before it buffered and cut:
    /// kept as the reference the selector must equal.
    struct HeapTopK {
        k: usize,
        heap: std::collections::BinaryHeap<Worst>,
        pushes: usize,
    }

    /// Heap wrapper whose `Ord` ranks the *worst* entry greatest, so a
    /// max-heap of `Worst` keeps its peek on the next eviction candidate.
    #[derive(PartialEq)]
    struct Worst(TopKEntry<u32>);

    impl Eq for Worst {}

    impl Ord for Worst {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .score
                .partial_cmp(&self.0.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(self.0.id.cmp(&other.0.id))
        }
    }

    impl PartialOrd for Worst {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl HeapTopK {
        fn push(&mut self, id: VectorId, score: f32, payload: u32) {
            self.pushes += 1;
            let entry = TopKEntry { score, id, payload };
            if self.heap.len() < self.k {
                self.heap.push(Worst(entry));
            } else if let Some(mut worst) = self.heap.peek_mut() {
                let outranks = match entry.score.partial_cmp(&worst.0.score) {
                    Some(std::cmp::Ordering::Greater) => true,
                    Some(std::cmp::Ordering::Less) => false,
                    _ => entry.id < worst.0.id,
                };
                if outranks {
                    *worst = Worst(entry);
                }
            }
        }

        fn into_sorted_entries(self) -> Vec<TopKEntry<u32>> {
            self.heap
                .into_sorted_vec()
                .into_iter()
                .map(|w| w.0)
                .collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        // Coarse scores tie on nearly every case; ids are unique, so the
        // order is total and the heap's answer is the only right one. `k`
        // covers 0, 1, n and beyond n.
        #[test]
        fn top_k_equals_the_heap_it_replaced(
            raw_scores in proptest::prop::collection::vec(0u32..12, 0..300),
            wide_k in 0usize..400,
            tiny in proptest::any::<bool>(),
        ) {
            let k = if tiny { wide_k % 3 } else { wide_k };
            let mut heap = HeapTopK {
                k,
                heap: std::collections::BinaryHeap::new(),
                pushes: 0,
            };
            let mut top: TopK<u32> = TopK::new(k);
            for (i, &raw) in raw_scores.iter().enumerate() {
                // Scatter the ids so arrival order is not id order.
                let id = (i as u64 * 7919) % 1009 + 1009 * (i as u64 / 1009);
                let score = raw as f32 * 0.125 - 0.5;
                heap.push(id, score, i as u32);
                top.push(id, score, i as u32);
                proptest::prop_assert_eq!(top.len(), heap.heap.len());
            }
            proptest::prop_assert_eq!(top.pushes(), heap.pushes);
            let expected = heap.into_sorted_entries();
            let mut unordered = top.clone().into_unordered_entries();
            unordered.sort_by(TopKEntry::order);
            proptest::prop_assert_eq!(&unordered, &expected);
            proptest::prop_assert_eq!(top.into_sorted_entries(), expected);
        }
    }

    #[test]
    fn id_ranges_sort_merge_and_search() {
        let ranges = IdRanges::new(vec![
            (40, 49),
            (10, 19),
            (15, 25),
            (9, 3),
            (26, 30),
            (60, 60),
        ]);
        // Overlapping ranges merge; touching ones ((15,25) and (26,30)) need
        // not; the inverted (9,3) is dropped.
        assert_eq!(ranges.as_slice(), &[(10, 25), (26, 30), (40, 49), (60, 60)]);
        for id in [10u64, 19, 25, 26, 30, 40, 49, 60] {
            assert!(ranges.contains(id), "{id}");
        }
        for id in [0u64, 9, 31, 39, 50, 59, 61, u64::MAX] {
            assert!(!ranges.contains(id), "{id}");
        }
        assert!(ranges.overlaps(0, 10));
        assert!(ranges.overlaps(31, 40));
        assert!(ranges.overlaps(0, u64::MAX));
        assert!(!ranges.overlaps(31, 39));
        assert!(!ranges.overlaps(61, u64::MAX));
        assert!(!IdRanges::default().overlaps(0, u64::MAX));
    }

    #[test]
    fn id_posting_holds_sorted_ids_in_blocks() {
        // Three packed-id "videos" 2^44 apart force three blocks.
        let ids: Vec<u64> = (0..3u64)
            .flat_map(|video| (0..50u64).map(move |i| (video << 44) | (i * 3)))
            .collect();
        let posting: IdPosting = ids.iter().copied().collect();
        assert_eq!(posting.len(), 150);
        assert_eq!(posting.bounds(), Some((0, (2 << 44) | 147)));
        assert_eq!(posting.iter().collect::<Vec<_>>(), ids);
        assert_eq!(posting.memory_bytes(), 3 * 16 + 150 * 4);
        for &id in &ids {
            assert!(posting.contains(id));
            assert!(!posting.contains(id + 1));
        }
        assert!(!posting.contains(u64::MAX));
        assert_eq!(posting.count_in(0, u64::MAX), 150);
        assert_eq!(posting.count_in(3, 9), 3);
        assert_eq!(posting.count_in(4, 5), 0);
        assert_eq!(posting.count_in(148, 1 << 44), 1);
        assert_eq!(posting.count_in(1 << 44, (1 << 44) | 147), 50);
        // Out-of-order and duplicate pushes are refused and change nothing.
        let mut grown = posting.clone();
        assert!(!grown.push(5));
        assert!(!grown.push((2 << 44) | 147));
        assert_eq!(grown, posting);
        assert!(grown.push((2 << 44) | 148));
        assert!(IdPosting::new().bounds().is_none());
        assert!(!IdPosting::new().contains(0));
        assert_eq!(IdPosting::new().count_in(0, u64::MAX), 0);
    }

    #[test]
    fn id_filter_ranges_and_postings_accept_and_count() {
        let ranges = IdFilter::Ranges {
            ranges: IdRanges::new(vec![(10, 19), (40, 49)]),
            matched: 12,
        };
        assert!(ranges.accepts(15) && ranges.accepts(40) && !ranges.accepts(30));
        assert_eq!(ranges.matched(), 12);
        assert_eq!(ranges.ranges().map(|r| r.as_slice().len()), Some(2));
        assert!(format!("{ranges:?}").contains("2 ranges"));

        let even: IdPosting = (0..50u64).map(|i| i * 2).collect();
        let odd: IdPosting = (0..10u64).map(|i| i * 2 + 1).collect();
        let unbounded = IdFilter::Postings {
            postings: vec![std::sync::Arc::new(even.clone()), std::sync::Arc::new(odd)],
            within: None,
        };
        assert!(unbounded.accepts(98) && unbounded.accepts(19) && !unbounded.accepts(21));
        assert_eq!(unbounded.matched(), 60);
        assert!(unbounded.ranges().is_none());
        let bounded = IdFilter::Postings {
            postings: vec![std::sync::Arc::new(even)],
            within: Some(IdRanges::new(vec![(10, 19), (40, 49)])),
        };
        assert!(bounded.accepts(12) && !bounded.accepts(13) && !bounded.accepts(20));
        assert_eq!(bounded.matched(), 10);
        assert!(format!("{bounded:?}").contains("1 postings"));
    }

    #[test]
    fn tiny_ivf_segment_falls_back_to_brute_force() {
        assert_eq!(segment_index(IndexKind::IvfPq, 32, 50).family(), "BF");
        assert_eq!(
            segment_index(IndexKind::IvfPq, 32, 1_000).family(),
            "IVF-PQ"
        );
        assert_eq!(segment_index(IndexKind::Hnsw, 32, 50).family(), "HNSW");
    }

    #[test]
    fn segment_index_round_trips_small_and_large() {
        let dim = 32;
        for rows in [40usize, 600] {
            let idx = segment_index(IndexKind::IvfPq, dim, rows);
            let vectors = unit_rows(rows, dim);
            let hits = sorted(idx.search(&vectors[7 * dim..8 * dim], 3, None).unwrap().0);
            assert_eq!(hits[0].id, 7, "rows={rows}");
            assert!((hits[0].score - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn segment_index_shape_mismatch_is_refused() {
        for kind in IndexKind::ALL {
            let short = RowStore::from(vec![0.5f32; 31]);
            assert!(create_segment_index_from_rows(kind, 32, vec![1], short).is_err());
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = IndexError::DimensionMismatch {
            expected: 8,
            actual: 4,
        };
        assert!(e.to_string().contains("expected 8"));
        assert!(IndexError::InvalidState("x".into())
            .to_string()
            .contains('x'));
    }
}
