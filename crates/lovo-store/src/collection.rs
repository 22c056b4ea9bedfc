//! A named collection of embeddings over a set of storage segments.
//!
//! The collection follows the segmented storage model (see [`crate::segment`]):
//! inserts land in a growing segment that seals into an immutable,
//! ANN-indexed segment every `segment_capacity` rows; searches fan out over
//! all segments and select the collection's top-k from the per-segment
//! top-k, leaving them unordered; and
//! [`SegmentedCollection::compact`] merges undersized sealed segments to
//! bound the fan-out width.

use crate::segment::{Segment, ZoneMap};
use crate::Result;
use lovo_index::{IdFilter, IdRanges, IndexKind, SearchResult, SearchStats, TopK, VectorId};
use serde::{Deserialize, Serialize};

/// Default number of rows after which the growing segment seals.
pub const DEFAULT_SEGMENT_CAPACITY: usize = 4096;

/// Configuration of a vector collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Index family backing sealed segments.
    pub index_kind: IndexKind,
    /// Whether inserted vectors are L2-normalized before being stored
    /// (the paper normalizes everything so dot product = cosine, §V-A).
    pub normalize: bool,
    /// Rows at which the growing segment seals and builds its ANN index.
    /// Bounds per-segment build cost; smaller values seal more eagerly at
    /// the price of a wider search fan-out.
    pub segment_capacity: usize,
}

impl CollectionConfig {
    /// Creates a configuration with the paper's defaults (IVF-PQ, normalized).
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            index_kind: IndexKind::IvfPq,
            normalize: true,
            segment_capacity: DEFAULT_SEGMENT_CAPACITY,
        }
    }

    /// Builder-style index family override (Table V switches this).
    pub fn with_index_kind(mut self, kind: IndexKind) -> Self {
        self.index_kind = kind;
        self
    }

    /// Builder-style segment capacity override.
    pub fn with_segment_capacity(mut self, capacity: usize) -> Self {
        self.segment_capacity = capacity.max(1);
        self
    }
}

/// Size and build statistics of a collection.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CollectionStats {
    /// Number of stored vectors across all segments.
    pub entities: usize,
    /// Approximate index memory footprint in bytes (sealed segments).
    pub index_bytes: usize,
    /// Approximate raw embedding payload in bytes (before compression).
    pub raw_bytes: usize,
    /// Whether every stored row lives in a sealed, index-backed segment.
    pub built: bool,
    /// Number of sealed (immutable, indexed) segments.
    pub sealed_segments: usize,
    /// Rows currently buffered in the growing segment.
    pub growing_rows: usize,
    /// Lifetime count of segment index builds (seals + compaction rebuilds).
    /// Incremental ingest asserts on this: appending a batch must build
    /// exactly one new segment, never rebuild existing ones.
    pub index_builds: usize,
    /// Lifetime count of compaction passes that merged at least one segment.
    pub compactions: usize,
    /// Content generation: bumped on every mutation that can change what a
    /// search returns (row inserts, seals, compactions). Serving layers use
    /// it as a cheap cache-invalidation epoch — a cached result is valid only
    /// while the generation it was computed under is still current.
    pub generation: u64,
}

/// Outcome of one [`SegmentedCollection::compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CompactionResult {
    /// Undersized sealed segments that were merged away.
    pub segments_merged: usize,
    /// Merged segments created (each with a freshly built index).
    pub segments_created: usize,
}

/// A fully compiled pushed-down filter: the per-row id test every segment
/// scan applies, plus the id ranges the filter could accept, which the
/// fan-out checks against segment zone maps to prune whole segments without
/// probing them. A filter made of ranges ([`IdFilter::Ranges`], or postings
/// bounded by ranges) prunes by those same ranges; any other filter prunes
/// only when ranges are attached with [`PushdownFilter::with_ranges`].
#[derive(Debug)]
pub struct PushdownFilter {
    ids: IdFilter,
    ranges: Option<IdRanges>,
}

impl PushdownFilter {
    /// Wraps an id filter, pruning by its own ranges if it has any.
    pub fn new(ids: IdFilter) -> Self {
        Self { ids, ranges: None }
    }

    /// Attaches the inclusive id ranges the filter can accept, in any order
    /// (they are sorted and merged here, so pruning can binary-search them
    /// however many there are). An empty list means the filter is provably
    /// empty: every segment is pruned.
    pub fn with_ranges(mut self, ranges: Vec<(VectorId, VectorId)>) -> Self {
        self.ranges = Some(IdRanges::new(ranges));
        self
    }

    /// The per-row id test.
    pub fn id_filter(&self) -> &IdFilter {
        &self.ids
    }

    /// The ranges segments are pruned by: the attached ones, else the id
    /// filter's own.
    fn pruning_ranges(&self) -> Option<&IdRanges> {
        self.ranges.as_ref().or_else(|| self.ids.ranges())
    }

    /// The candidate id ranges, ascending and disjoint, if any are known.
    pub fn ranges(&self) -> Option<&[(VectorId, VectorId)]> {
        self.pruning_ranges().map(IdRanges::as_slice)
    }

    /// True when a segment with this zone map could hold a matching row.
    #[inline]
    pub fn might_match(&self, zone: &ZoneMap) -> bool {
        self.pruning_ranges()
            .map_or(true, |ranges| ranges.overlaps(zone.min_id, zone.max_id))
    }
}

/// One query of a batched fan-out: the embedding, its `k`, and an optional
/// pushed-down filter.
#[derive(Debug)]
pub struct BatchQuery<'a> {
    /// The (not yet normalized) query embedding.
    pub query: &'a [f32],
    /// Number of hits to return.
    pub k: usize,
    /// Optional pushed-down filter.
    pub filter: Option<&'a PushdownFilter>,
}

/// A named collection of embeddings over sealed segments plus one growing
/// append buffer.
pub struct SegmentedCollection {
    name: String,
    config: CollectionConfig,
    sealed: Vec<Segment>,
    growing: Segment,
    next_segment_id: u64,
    index_builds: usize,
    compactions: usize,
    generation: u64,
}

impl SegmentedCollection {
    /// Creates an empty collection.
    pub fn new(name: impl Into<String>, config: CollectionConfig) -> Result<Self> {
        Ok(Self {
            name: name.into(),
            growing: Segment::new(0, config.dim, config.index_kind),
            config,
            sealed: Vec::new(),
            next_segment_id: 1,
            index_builds: 0,
            compactions: 0,
            generation: 0,
        })
    }

    /// Rebuilds a collection from recovered durable state: `sealed` must
    /// already be sealed (index rebuilt), and `next_segment_id` is the
    /// counter the manifest recorded. The recovered growing segment takes
    /// the id `next_segment_id` itself — every sealed id is strictly below
    /// the recorded counter, so this is the smallest id guaranteed fresh
    /// (the pre-crash growing id may have been leapfrogged by compaction).
    /// Lifetime counters (`index_builds`, `compactions`) restart at zero —
    /// they describe this process, not the collection's whole history.
    pub(crate) fn from_recovered(
        name: impl Into<String>,
        config: CollectionConfig,
        sealed: Vec<Segment>,
        next_segment_id: u64,
    ) -> Self {
        Self {
            name: name.into(),
            growing: Segment::new(next_segment_id, config.dim, config.index_kind),
            config,
            sealed,
            next_segment_id: next_segment_id + 1,
            index_builds: 0,
            compactions: 0,
            generation: 0,
        }
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Collection configuration.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Number of stored vectors across all segments.
    pub fn len(&self) -> usize {
        self.sealed.iter().map(Segment::len).sum::<usize>() + self.growing.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments holding rows (sealed plus a non-empty growing
    /// buffer) — the search fan-out width.
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.growing.is_empty())
    }

    /// Number of sealed segments.
    pub fn sealed_segment_count(&self) -> usize {
        self.sealed.len()
    }

    /// The sealed segments in search order. The durability layer walks these
    /// to reconcile the on-disk segment files with the in-memory state.
    pub fn sealed_segments(&self) -> &[Segment] {
        &self.sealed
    }

    /// Rows currently buffered in the growing segment (covered by the WAL,
    /// not yet by any segment file).
    pub fn growing_len(&self) -> usize {
        self.growing.len()
    }

    /// Next segment id this collection will allocate (persisted in the
    /// manifest so recovery resumes the sequence without collisions).
    pub fn next_segment_id(&self) -> u64 {
        self.next_segment_id
    }

    /// Content generation of this collection: monotonically increasing,
    /// bumped by every mutation that can change search results (inserts,
    /// seals, compactions). Two reads returning the same generation bracket a
    /// window in which no such mutation committed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inserts one embedding into the growing segment, sealing it first if it
    /// is full. Vectors are L2-normalized when the configuration requests it.
    pub fn insert(&mut self, id: VectorId, vector: &[f32]) -> Result<()> {
        self.generation += 1;
        if self.config.normalize {
            let mut owned = vector.to_vec();
            lovo_index::metric::normalize(&mut owned);
            self.growing.insert(id, &owned)?;
        } else {
            self.growing.insert(id, vector)?;
        }
        if self.growing.len() >= self.config.segment_capacity {
            self.seal_growing()?;
        }
        Ok(())
    }

    /// Inserts a batch of `(id, vector)` pairs.
    pub fn insert_batch<'a>(
        &mut self,
        entries: impl IntoIterator<Item = (VectorId, &'a [f32])>,
    ) -> Result<usize> {
        let mut count = 0;
        for (id, vector) in entries {
            self.insert(id, vector)?;
            count += 1;
        }
        Ok(count)
    }

    /// Seals the growing segment (builds its ANN index and retires it to the
    /// sealed set), leaving a fresh empty growing segment. No-op when the
    /// buffer is empty.
    pub fn seal(&mut self) -> Result<()> {
        if self.growing.is_empty() {
            return Ok(());
        }
        self.seal_growing()
    }

    fn seal_growing(&mut self) -> Result<()> {
        // Seal in place first: if the index build fails, the rows stay
        // buffered (and searchable) in the growing segment instead of being
        // dropped with a swapped-out local.
        self.growing.seal()?;
        let segment = std::mem::replace(
            &mut self.growing,
            Segment::new(
                self.next_segment_id,
                self.config.dim,
                self.config.index_kind,
            ),
        );
        self.next_segment_id += 1;
        self.index_builds += 1;
        self.generation += 1;
        self.sealed.push(segment);
        Ok(())
    }

    /// Seals any pending rows. Kept under the historical name: before the
    /// segmented engine, `build` trained the one monolithic index.
    pub fn build(&mut self) -> Result<()> {
        self.seal()
    }

    /// True when every stored row lives in a sealed, index-backed segment.
    pub fn is_built(&self) -> bool {
        !self.sealed.is_empty() && self.growing.is_empty()
    }

    /// Merges undersized sealed segments (fewer than half the segment
    /// capacity) into larger ones, rebuilding one index per merged group.
    /// Bounds the search fan-out width after many small incremental appends.
    /// On failure the collection is unchanged: merged segments replace their
    /// sources only after every new index has built successfully.
    pub fn compact(&mut self) -> Result<CompactionResult> {
        // Greedily pack undersized segments into groups of at most
        // `segment_capacity` rows; singleton groups stay as they are.
        let threshold = self.config.segment_capacity.div_ceil(2);
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut current_rows = 0usize;
        for (position, segment) in self.sealed.iter().enumerate() {
            if segment.len() >= threshold {
                continue;
            }
            if current_rows + segment.len() > self.config.segment_capacity && !current.is_empty() {
                groups.push(std::mem::take(&mut current));
                current_rows = 0;
            }
            current_rows += segment.len();
            current.push(position);
        }
        if !current.is_empty() {
            groups.push(current);
        }
        groups.retain(|group| group.len() >= 2);
        if groups.is_empty() {
            return Ok(CompactionResult::default());
        }

        // Build every merged segment before touching `self.sealed`, so a
        // failed index build loses nothing.
        let mut result = CompactionResult::default();
        let mut merged_segments: Vec<Segment> = Vec::new();
        let mut replaced: std::collections::HashSet<usize> = std::collections::HashSet::new();
        for group in &groups {
            let mut merged = Segment::new(
                self.next_segment_id + merged_segments.len() as u64,
                self.config.dim,
                self.config.index_kind,
            );
            for &position in group {
                for (id, row) in self.sealed[position].raw_rows() {
                    // Rows were normalized on first insert; copy verbatim.
                    merged.insert(id, row)?;
                }
            }
            merged.seal()?;
            result.segments_merged += group.len();
            result.segments_created += 1;
            replaced.extend(group.iter().copied());
            merged_segments.push(merged);
        }

        self.next_segment_id += merged_segments.len() as u64;
        self.index_builds += merged_segments.len();
        self.compactions += 1;
        self.generation += 1;
        let mut position = 0;
        self.sealed.retain(|_| {
            let keep = !replaced.contains(&position);
            position += 1;
            keep
        });
        self.sealed.extend(merged_segments);
        Ok(result)
    }

    /// Answers a batch of (possibly filtered) queries in one fan-out pass:
    /// the segment set is walked once, each segment scanned for every query
    /// it survives pruning for while its rows are hot in cache, so a batch
    /// shares the per-segment access cost that per-query fan-outs would pay
    /// once per query. Each query's filter is pushed into every per-segment
    /// scan, segments whose zone map does not intersect the filter's id
    /// ranges are pruned before they are probed (counted in
    /// [`SearchStats::segments_pruned`]), and the per-segment top-k are merged
    /// into the collection top-k with a bounded [`TopK`] selection. Results
    /// come back in request order, each query's `k` best **unordered**: a
    /// caller that needs them best-first sorts them by
    /// [`SearchResult::order`], and one that reduces them to fewer items
    /// first (the engine groups them into frames) sorts only those.
    ///
    /// The pass runs on the caller's thread. Splitting it over spawned
    /// threads was slower on every corpus it was measured on (2, 11 and 25
    /// segments on a 2-vCPU host; `docs/benchmarks.md`, PR 18) and made a
    /// query's latency depend on when the scheduler ran the helpers.
    pub fn search_batch_with_stats_opts(
        &self,
        requests: &[BatchQuery<'_>],
    ) -> Result<Vec<(Vec<SearchResult>, SearchStats)>> {
        // Normalize every query once, up front.
        let normalized: Vec<Vec<f32>> = requests
            .iter()
            .map(|request| {
                if self.config.normalize {
                    lovo_index::metric::normalized(request.query)
                } else {
                    request.query.to_vec()
                }
            })
            .collect();

        let mut probes: Vec<&Segment> = self.sealed.iter().collect();
        if !self.growing.is_empty() {
            probes.push(&self.growing);
        }

        // One scratch per query, reused across the whole walk: segment hits
        // are appended as each segment finishes instead of being collected
        // into a per-segment result vec.
        let mut scratches: Vec<MergeScratch> =
            requests.iter().map(|_| MergeScratch::default()).collect();
        for segment in &probes {
            for ((request, query), scratch) in requests.iter().zip(&normalized).zip(&mut scratches)
            {
                match (request.filter, segment.zone_map()) {
                    (Some(filter), Some(zone)) if !filter.might_match(&zone) => {
                        scratch.stats.segments_pruned += 1;
                    }
                    _ => scratch.fold(segment.search(
                        query,
                        request.k,
                        request.filter.map(PushdownFilter::id_filter),
                    )?),
                }
            }
        }

        let unique_ids = zones_are_disjoint(&probes);
        Ok(scratches
            .into_iter()
            .zip(requests)
            .map(|(scratch, request)| {
                let MergeScratch {
                    hits,
                    mut stats,
                    probes: probed,
                } = scratch;
                let hits = merge_hits(hits, request.k, unique_ids, &mut stats);
                stats.segments_probed = probed;
                (hits, stats)
            })
            .collect())
    }

    /// Size statistics for the experiment reports (Fig. 11(b)).
    pub fn stats(&self) -> CollectionStats {
        let index_bytes = self.sealed.iter().map(Segment::index_bytes).sum::<usize>();
        CollectionStats {
            entities: self.len(),
            index_bytes,
            raw_bytes: self.len() * self.config.dim * std::mem::size_of::<f32>(),
            built: self.is_built(),
            sealed_segments: self.sealed.len(),
            growing_rows: self.growing.len(),
            index_builds: self.index_builds,
            compactions: self.compactions,
            generation: self.generation,
        }
    }

    /// Name of the index family backing sealed segments.
    pub fn index_family(&self) -> &'static str {
        self.config.index_kind.name()
    }
}

/// True when no two of the segments' zone maps share an id, so no id can
/// come back from two of them.
fn zones_are_disjoint(segments: &[&Segment]) -> bool {
    let mut zones: Vec<(VectorId, VectorId)> = segments
        .iter()
        .filter_map(|segment| segment.zone_map())
        .map(|zone| (zone.min_id, zone.max_id))
        .collect();
    zones.sort_unstable();
    zones.windows(2).all(|pair| pair[0].1 < pair[1].0)
}

/// The collection merge of one query: every probed segment's hits, in any
/// order, become the query's `k` best, still unordered — segment searches
/// return theirs unordered, and nothing here sorts.
///
/// One score is kept per id where a row can have two, then one bounded
/// top-k selection runs. The selector's (score desc, id asc) total order
/// over unique ids makes the selected set independent of the order the
/// hits arrive in, within a segment and across segments. A replaced row still
/// living in an older segment is the only way one id reaches the merge
/// twice, and it takes two segments whose id ranges overlap (`unique_ids`
/// false). Ingest-ordered collections have none.
fn merge_hits(
    mut hits: Vec<SearchResult>,
    k: usize,
    unique_ids: bool,
    stats: &mut SearchStats,
) -> Vec<SearchResult> {
    if !unique_ids {
        keep_best_per_id(&mut hits);
    }
    let mut top = TopK::new(k);
    for hit in hits {
        top.push_hit(hit.id, hit.score);
    }
    stats.heap_pushes += top.pushes();
    top.into_unordered_results()
}

/// Keeps each id's best-scored hit and drops the others, leaving the hits in
/// id order.
fn keep_best_per_id(hits: &mut Vec<SearchResult>) {
    hits.sort_unstable_by(|a, b| a.id.cmp(&b.id).then(b.score.total_cmp(&a.score)));
    hits.dedup_by_key(|hit| hit.id);
}

/// Per-query fan-out scratch: every hit of every segment the query probed,
/// the merged work counters, and the number of segments probed.
#[derive(Debug, Default)]
struct MergeScratch {
    hits: Vec<SearchResult>,
    stats: SearchStats,
    probes: usize,
}

impl MergeScratch {
    /// Folds one segment's top-k (hits, stats) into the scratch.
    fn fold(&mut self, (mut hits, stats): (Vec<SearchResult>, SearchStats)) {
        self.probes += 1;
        self.stats.merge(&stats);
        self.hits.append(&mut hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One (optionally filtered) query through the batched working function.
    fn search_one(
        c: &SegmentedCollection,
        query: &[f32],
        k: usize,
        filter: Option<&PushdownFilter>,
    ) -> (Vec<SearchResult>, SearchStats) {
        c.search_batch_with_stats_opts(&[BatchQuery { query, k, filter }])
            .unwrap()
            .pop()
            .unwrap()
    }

    /// A search's unordered hits, best first.
    fn best_first(mut hits: Vec<SearchResult>) -> Vec<SearchResult> {
        hits.sort_unstable_by(SearchResult::order);
        hits
    }

    fn sample_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        // Seeded-random so every vector is distinct (a modular pattern would
        // repeat and make nearest-neighbour assertions ambiguous).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x00c0ffee);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    #[test]
    fn insert_build_search_round_trip() {
        let mut c = SegmentedCollection::new("patches", CollectionConfig::new(16)).unwrap();
        let vectors = sample_vectors(600, 16);
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v).unwrap();
        }
        assert_eq!(c.len(), 600);
        c.build().unwrap();
        assert!(c.is_built());
        let hits = best_first(search_one(&c, &vectors[42], 5, None).0);
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn growing_buffer_is_searchable_before_seal() {
        // The growing segment answers queries by brute-force scan even for
        // training-based index families — no build step required.
        let mut c = SegmentedCollection::new("patches", CollectionConfig::new(16)).unwrap();
        let vectors = sample_vectors(50, 16);
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v).unwrap();
        }
        assert!(!c.is_built());
        let (hits, stats) = search_one(&c, &vectors[7], 3, None);
        assert_eq!(best_first(hits)[0].id, 7);
        assert_eq!(stats.segments_probed, 1);
        assert_eq!(stats.vectors_scored, 50);
    }

    #[test]
    fn capacity_splits_collection_into_segments() {
        let cfg = CollectionConfig::new(8).with_segment_capacity(100);
        let mut c = SegmentedCollection::new("seg", cfg).unwrap();
        let vectors = sample_vectors(250, 8);
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v).unwrap();
        }
        // 250 rows / capacity 100 -> 2 sealed + 50 growing.
        let stats = c.stats();
        assert_eq!(stats.sealed_segments, 2);
        assert_eq!(stats.growing_rows, 50);
        assert_eq!(stats.index_builds, 2);
        assert_eq!(c.segment_count(), 3);

        // Fan-out search still finds rows in every segment.
        for probe in [5usize, 150, 230] {
            let (hits, stats) = search_one(&c, &vectors[probe], 3, None);
            assert_eq!(hits[0].id, probe as u64, "row {probe}");
            assert_eq!(stats.segments_probed, 3);
        }

        c.seal().unwrap();
        assert_eq!(c.stats().sealed_segments, 3);
        assert_eq!(c.stats().growing_rows, 0);
        assert!(c.is_built());
    }

    #[test]
    fn compaction_merges_undersized_segments() {
        let cfg = CollectionConfig::new(8).with_segment_capacity(100);
        let mut c = SegmentedCollection::new("compact", cfg).unwrap();
        let vectors = sample_vectors(120, 8);
        // Seal four undersized segments of 30 rows each.
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v).unwrap();
            if (i + 1) % 30 == 0 {
                c.seal().unwrap();
            }
        }
        assert_eq!(c.stats().sealed_segments, 4);
        let builds_before = c.stats().index_builds;

        let result = c.compact().unwrap();
        // 4 x 30 rows with capacity 100: three merge into one 90-row segment,
        // the fourth would overflow the group and stays as-is.
        assert_eq!(result.segments_merged, 3);
        assert_eq!(result.segments_created, 1);
        let stats = c.stats();
        assert_eq!(stats.sealed_segments, 2);
        assert_eq!(stats.entities, 120);
        assert_eq!(stats.index_builds, builds_before + 1);
        assert_eq!(stats.compactions, 1);

        // Every row is still retrievable after compaction.
        for probe in [0usize, 45, 119] {
            let (hits, _) = search_one(&c, &vectors[probe], 1, None);
            assert_eq!(hits[0].id, probe as u64, "row {probe}");
        }

        // A second pass has nothing left to merge.
        let again = c.compact().unwrap();
        assert_eq!(again.segments_merged, 0);
        assert_eq!(c.stats().compactions, 1);
    }

    #[test]
    fn compaction_keeps_large_segments_untouched() {
        let cfg = CollectionConfig::new(8).with_segment_capacity(100);
        let mut c = SegmentedCollection::new("keep", cfg).unwrap();
        let vectors = sample_vectors(160, 8);
        // One full segment (100 rows, auto-sealed) + one undersized (60).
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v).unwrap();
        }
        c.seal().unwrap();
        let builds_before = c.stats().index_builds;
        let result = c.compact().unwrap();
        assert_eq!(result.segments_merged, 0);
        assert_eq!(c.stats().sealed_segments, 2);
        assert_eq!(c.stats().index_builds, builds_before);
    }

    #[test]
    fn segmented_results_match_single_segment_brute_force() {
        // With brute-force segments the fan-out + k-way merge must be exactly
        // the global top-k, independent of segmentation.
        let dim = 16;
        let vectors = sample_vectors(300, dim);
        let single_cfg = CollectionConfig::new(dim).with_index_kind(IndexKind::BruteForce);
        let split_cfg = CollectionConfig::new(dim)
            .with_index_kind(IndexKind::BruteForce)
            .with_segment_capacity(37);
        let mut single = SegmentedCollection::new("one", single_cfg).unwrap();
        let mut split = SegmentedCollection::new("many", split_cfg).unwrap();
        for (i, v) in vectors.iter().enumerate() {
            single.insert(i as u64, v).unwrap();
            split.insert(i as u64, v).unwrap();
        }
        single.seal().unwrap();
        split.seal().unwrap();
        assert!(split.stats().sealed_segments > 5);
        for probe in [3usize, 123, 280] {
            let a = best_first(search_one(&single, &vectors[probe], 10, None).0);
            let b = best_first(search_one(&split, &vectors[probe], 10, None).0);
            assert_eq!(a, b, "probe {probe}");
        }
    }

    #[test]
    fn zone_map_pruning_skips_non_matching_segments() {
        // Ids are assigned in segment-contiguous blocks, mimicking the
        // video-ordered patch-id assignment of ingestion.
        let cfg = CollectionConfig::new(8)
            .with_index_kind(IndexKind::BruteForce)
            .with_segment_capacity(50);
        let mut c = SegmentedCollection::new("zones", cfg).unwrap();
        let vectors = sample_vectors(200, 8);
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v).unwrap();
        }
        c.seal().unwrap();
        assert_eq!(c.stats().sealed_segments, 4);

        // Filter allowing only ids 50..100: one segment can match.
        let filter = PushdownFilter::new(IdFilter::from_ids(50..100)).with_ranges(vec![(50, 99)]);
        let (hits, stats) = search_one(&c, &vectors[60], 5, Some(&filter));
        let hits = best_first(hits);
        assert_eq!(hits[0].id, 60);
        assert!(hits.iter().all(|h| (50..100).contains(&h.id)));
        assert_eq!(stats.segments_pruned, 3);
        assert_eq!(stats.segments_probed, 1);
        assert_eq!(stats.vectors_scored, 50);

        // The same filter without ranges probes everything but still masks.
        let no_ranges = PushdownFilter::new(IdFilter::from_ids(50..100));
        let (hits2, stats2) = search_one(&c, &vectors[60], 5, Some(&no_ranges));
        assert_eq!(hits, hits2);
        assert_eq!(stats2.segments_pruned, 0);
        assert_eq!(stats2.segments_probed, 4);
        assert_eq!(stats2.filtered_out, 150);

        // An empty range list is a provably-empty filter: all pruned.
        let empty = PushdownFilter::new(IdFilter::Set(Default::default())).with_ranges(Vec::new());
        let (none, estats) = search_one(&c, &vectors[0], 5, Some(&empty));
        assert!(none.is_empty());
        assert_eq!(estats.segments_pruned, 4);
        assert_eq!(estats.segments_probed, 0);
    }

    /// The merge as it was before it concatenated and selected: one best
    /// score per id in a hash map over every unpruned segment's hits, then a
    /// bounded selection. Kept as the reference the merge must equal.
    fn hash_merge_reference(
        c: &SegmentedCollection,
        query: &[f32],
        k: usize,
        filter: Option<&PushdownFilter>,
    ) -> Vec<SearchResult> {
        let query = lovo_index::metric::normalized(query);
        let mut best: std::collections::HashMap<VectorId, f32> = Default::default();
        for segment in c.sealed.iter().chain(std::iter::once(&c.growing)) {
            let Some(zone) = segment.zone_map() else {
                continue;
            };
            if filter.is_some_and(|f| !f.might_match(&zone)) {
                continue;
            }
            let (hits, _) = segment
                .search(&query, k, filter.map(PushdownFilter::id_filter))
                .unwrap();
            for hit in hits {
                best.entry(hit.id)
                    .and_modify(|score| *score = score.max(hit.score))
                    .or_insert(hit.score);
            }
        }
        let mut top = TopK::new(k);
        for (id, score) in best {
            top.push_hit(id, score);
        }
        top.into_sorted_results()
    }

    /// Score bits of hits, for bit-identity assertions.
    fn bits(hits: &[SearchResult]) -> Vec<(VectorId, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    /// The merge fixtures, for every index family: one segment, several
    /// disjoint ones, and several plus a growing segment that re-inserts
    /// sealed ids with other vectors — the only shape in which one id
    /// reaches the merge twice. Each comes with a label for messages.
    fn merge_fixtures(vectors: &[Vec<f32>]) -> Vec<(String, SegmentedCollection)> {
        let mut fixtures = Vec::new();
        for kind in IndexKind::ALL {
            for (capacity, replaced) in [(4096, false), (300, false), (300, true)] {
                let cfg = CollectionConfig::new(16)
                    .with_index_kind(kind)
                    .with_segment_capacity(capacity);
                let mut c = SegmentedCollection::new("merge", cfg).unwrap();
                for (i, v) in vectors.iter().enumerate() {
                    c.insert(i as u64, v).unwrap();
                }
                c.seal().unwrap();
                if replaced {
                    for i in [7u64, 310, 650] {
                        c.insert(i, &vectors[(i as usize + 450) % 900]).unwrap();
                    }
                    assert!(!zones_are_disjoint(
                        &c.sealed.iter().chain([&c.growing]).collect::<Vec<_>>()
                    ));
                }
                let label = format!("{kind:?} capacity {capacity} replaced {replaced}");
                fixtures.push((label, c));
            }
        }
        fixtures
    }

    /// The filters the merge fixtures are queried under: none, id ranges
    /// and an allow-set.
    fn merge_filters() -> [Option<PushdownFilter>; 3] {
        [
            None,
            Some(PushdownFilter::new(IdFilter::Ranges {
                ranges: IdRanges::new(vec![(0, 49), (280, 420), (640, 700)]),
                matched: 252,
            })),
            Some(PushdownFilter::new(IdFilter::from_ids(
                (0..900).filter(|id| id % 3 != 1),
            ))),
        ]
    }

    #[test]
    fn merge_equals_the_hash_merge_it_replaced() {
        let vectors = sample_vectors(900, 16);
        for (label, c) in merge_fixtures(&vectors) {
            for filter in &merge_filters() {
                for probe in [7usize, 310, 457, 650, 899] {
                    let request = BatchQuery {
                        query: &vectors[probe],
                        k: 25,
                        filter: filter.as_ref(),
                    };
                    let (hits, _) = c
                        .search_batch_with_stats_opts(&[request])
                        .unwrap()
                        .pop()
                        .unwrap();
                    let expected = hash_merge_reference(&c, &vectors[probe], 25, filter.as_ref());
                    assert_eq!(
                        bits(&best_first(hits)),
                        bits(&expected),
                        "{label} filter {filter:?} probe {probe}"
                    );
                }
            }
        }
    }

    /// Fisher–Yates over `rng`.
    fn shuffle(hits: &mut [SearchResult], rng: &mut impl rand::Rng) {
        for i in (1..hits.len()).rev() {
            hits.swap(i, rng.gen_range(0..i + 1));
        }
    }

    #[test]
    fn merge_ignores_the_order_segments_return_hits_in() {
        use rand::SeedableRng;
        let vectors = sample_vectors(900, 16);
        let k = 25;
        for (label, c) in merge_fixtures(&vectors) {
            let mut probes: Vec<&Segment> = c.sealed.iter().collect();
            if !c.growing.is_empty() {
                probes.push(&c.growing);
            }
            let unique_ids = zones_are_disjoint(&probes);
            for filter in &merge_filters() {
                let id_filter = filter.as_ref().map(PushdownFilter::id_filter);
                for probe in [7usize, 310, 457, 650, 899] {
                    let context = format!("{label} filter {filter:?} probe {probe}");
                    let query = lovo_index::metric::normalized(&vectors[probe]);
                    let per_segment: Vec<Vec<SearchResult>> = probes
                        .iter()
                        .map(|segment| segment.search(&query, k, id_filter).unwrap().0)
                        .collect();
                    // Each family's unordered hits, once sorted, are what it
                    // returned best-first: the exact top-k of the segment's
                    // own rows for brute force, the beam order HNSW still
                    // keeps. IVF-PQ's equality with its two-stage reference
                    // is asserted in `lovo-index`.
                    for (segment, hits) in probes.iter().zip(&per_segment) {
                        let sorted = best_first(merge_hits(
                            hits.clone(),
                            k,
                            true,
                            &mut SearchStats::default(),
                        ));
                        match segment.family() {
                            "BF" => {
                                let mut exact = TopK::new(k);
                                for (id, row) in segment.raw_rows() {
                                    if id_filter.map_or(true, |f| f.accepts(id)) {
                                        exact.push_hit(id, lovo_index::metric::dot(&query, row));
                                    }
                                }
                                let exact = exact.into_sorted_results();
                                assert_eq!(bits(&sorted), bits(&exact), "{context}");
                            }
                            "HNSW" => assert_eq!(bits(&sorted), bits(hits), "{context}"),
                            _ => {}
                        }
                    }

                    let expected =
                        best_first(search_one(&c, &vectors[probe], k, filter.as_ref()).0);
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(probe as u64);
                    let reversed: Vec<SearchResult> = per_segment
                        .iter()
                        .flat_map(|hits| hits.iter().rev().copied())
                        .collect();
                    let shuffled: Vec<SearchResult> = per_segment
                        .iter()
                        .flat_map(|hits| {
                            let mut hits = hits.clone();
                            shuffle(&mut hits, &mut rng);
                            hits
                        })
                        .collect();
                    let segments_reversed: Vec<SearchResult> =
                        per_segment.iter().rev().flatten().copied().collect();
                    for arranged in [reversed, shuffled, segments_reversed] {
                        let merged =
                            merge_hits(arranged, k, unique_ids, &mut SearchStats::default());
                        assert_eq!(bits(&best_first(merged)), bits(&expected), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn replaced_row_keeps_only_its_best_scored_copy() {
        let cfg = CollectionConfig::new(4)
            .with_index_kind(IndexKind::BruteForce)
            .with_segment_capacity(2);
        let mut c = SegmentedCollection::new("dup", cfg).unwrap();
        c.insert(1, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        c.insert(2, &[0.0, 1.0, 0.0, 0.0]).unwrap();
        // Id 1 again, now in the growing segment, pointing elsewhere.
        c.insert(1, &[0.0, 0.0, 1.0, 0.0]).unwrap();
        let (hits, stats) = search_one(&c, &[0.9, 0.1, 0.0, 0.0], 5, None);
        let hits = best_first(hits);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 2]);
        assert!(hits[0].score > 0.9);
        // Two unique ids reach the selector, not three hits.
        assert_eq!(stats.heap_pushes, 3 + 2);
    }

    #[test]
    fn batch_search_matches_individual_queries() {
        let cfg = CollectionConfig::new(16).with_segment_capacity(100);
        let mut c = SegmentedCollection::new("batch", cfg).unwrap();
        let vectors = sample_vectors(450, 16);
        for (i, v) in vectors.iter().enumerate() {
            c.insert(i as u64, v).unwrap();
        }
        c.seal().unwrap();
        let filter = PushdownFilter::new(IdFilter::from_ids(0..200)).with_ranges(vec![(0, 199)]);
        let requests = [
            BatchQuery {
                query: vectors[7].as_slice(),
                k: 5,
                filter: None,
            },
            BatchQuery {
                query: vectors[120].as_slice(),
                k: 3,
                filter: Some(&filter),
            },
            BatchQuery {
                query: vectors[400].as_slice(),
                k: 7,
                filter: None,
            },
        ];
        let batched = c.search_batch_with_stats_opts(&requests).unwrap();
        assert_eq!(batched.len(), 3);
        let single_a = search_one(&c, &vectors[7], 5, None);
        let single_b = search_one(&c, &vectors[120], 3, Some(&filter));
        let single_c = search_one(&c, &vectors[400], 7, None);
        assert_eq!(batched[0], single_a);
        assert_eq!(batched[1], single_b);
        assert_eq!(batched[2], single_c);
        assert!(batched[1].0.iter().all(|h| h.id < 200));
        assert!(c.search_batch_with_stats_opts(&[]).unwrap().is_empty());
    }

    #[test]
    fn brute_force_collection_searches_without_build() {
        let cfg = CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce);
        let mut c = SegmentedCollection::new("bf", cfg).unwrap();
        c.insert(1, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
            .unwrap();
        let (hits, _) = search_one(&c, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1, None);
        assert_eq!(hits[0].id, 1);
        assert_eq!(c.index_family(), "BF");
    }

    #[test]
    fn normalization_makes_scale_irrelevant() {
        let cfg = CollectionConfig::new(4).with_index_kind(IndexKind::BruteForce);
        let mut c = SegmentedCollection::new("norm", cfg).unwrap();
        c.insert(1, &[10.0, 0.0, 0.0, 0.0]).unwrap();
        c.insert(2, &[0.0, 0.1, 0.0, 0.0]).unwrap();
        let (hits, _) = search_one(&c, &[0.0, 500.0, 0.0, 0.0], 1, None);
        assert_eq!(hits[0].id, 2);
        assert!((hits[0].score - 1.0).abs() < 1e-5);
    }

    #[test]
    fn stats_reflect_contents() {
        let mut c = SegmentedCollection::new("stats", CollectionConfig::new(8)).unwrap();
        let vectors = sample_vectors(300, 8);
        let refs: Vec<(u64, &[f32])> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, v.as_slice()))
            .collect();
        let inserted = c.insert_batch(refs).unwrap();
        assert_eq!(inserted, 300);
        c.build().unwrap();
        let stats = c.stats();
        assert_eq!(stats.entities, 300);
        assert!(stats.index_bytes > 0);
        assert_eq!(stats.raw_bytes, 300 * 8 * 4);
        assert!(stats.built);
        assert_eq!(stats.sealed_segments, 1);
        assert_eq!(stats.index_builds, 1);
    }

    #[test]
    fn generation_bumps_on_every_content_mutation() {
        let cfg = CollectionConfig::new(8).with_segment_capacity(30);
        let mut c = SegmentedCollection::new("gen", cfg).unwrap();
        assert_eq!(c.generation(), 0);
        let vectors = sample_vectors(90, 8);
        for (i, v) in vectors.iter().enumerate() {
            let before = c.generation();
            c.insert(i as u64, v).unwrap();
            assert!(c.generation() > before, "insert {i} must bump");
        }
        // 90 rows at capacity 30: three auto-seals happened along the way.
        assert_eq!(c.stats().sealed_segments, 3);
        let after_inserts = c.generation();

        // An explicit seal of an empty growing buffer is a no-op: no bump.
        c.seal().unwrap();
        assert_eq!(c.generation(), after_inserts);

        // Seal three more undersized segments, then compact: both bump.
        for (i, v) in vectors.iter().enumerate().take(30) {
            c.insert(1000 + i as u64, v).unwrap();
            if (i + 1) % 10 == 0 {
                c.seal().unwrap();
            }
        }
        let before_compact = c.generation();
        let result = c.compact().unwrap();
        assert!(result.segments_merged >= 2);
        assert!(c.generation() > before_compact);
        assert_eq!(c.stats().generation, c.generation());

        // A compaction pass with nothing to merge leaves the epoch alone.
        let settled = c.generation();
        c.compact().unwrap();
        assert_eq!(c.generation(), settled);
    }

    #[test]
    fn insert_after_build_marks_unbuilt_for_hnsw_and_ok() {
        let cfg = CollectionConfig::new(8).with_index_kind(IndexKind::Hnsw);
        let mut c = SegmentedCollection::new("hnsw", cfg).unwrap();
        for (i, v) in sample_vectors(50, 8).iter().enumerate() {
            c.insert(i as u64, v).unwrap();
        }
        // HNSW needs no explicit build.
        let (hits, _) = search_one(&c, &sample_vectors(50, 8)[10], 3, None);
        assert!(!hits.is_empty());
    }
}
