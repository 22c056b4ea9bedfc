//! Storage segments: the unit of incremental growth of a collection.
//!
//! A collection is not one monolithic index but a set of segments, mirroring
//! the segmented storage model of the vector database the paper deploys LOVO
//! in (Milvus): new rows accumulate in a **growing** segment that answers
//! queries by brute-force scan, and once the segment reaches the collection's
//! capacity it **seals** — its rows are frozen and an ANN index is built over
//! them, bounding per-segment build cost no matter how large the collection
//! becomes. Sealed segments are immutable; appending more data never touches
//! them, which is what makes incremental ingest cheap.
//!
//! Segments retain their raw (normalized) rows after sealing so that
//! compaction can merge undersized sealed segments into one without
//! re-encoding anything upstream. The flat and IVF-PQ indexes scan and
//! rescore those same rows: sealing hands the index a clone of the buffer's
//! [`RowStore`], which shares its allocation rather than copying it.

use crate::{Result, StoreError};
use lovo_index::{
    create_segment_index_from_rows, FlatIndex, IdFilter, IndexKind, RowStore, SearchResult,
    SearchStats, VectorId, VectorIndex,
};

/// Zone map of a segment: the inclusive range of packed patch ids it holds
/// plus its row count, recorded as rows arrive and frozen at seal time.
/// Because ingestion appends videos in order, segments cover contiguous runs
/// of packed ids, so a pushed-down filter that can name its candidate id
/// ranges (e.g. a video-id predicate) prunes whole segments before fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneMap {
    /// Smallest stored id.
    pub min_id: VectorId,
    /// Largest stored id.
    pub max_id: VectorId,
    /// Number of rows covered.
    pub rows: usize,
}

impl ZoneMap {
    /// True when the zone could contain an id in the inclusive range.
    #[inline]
    pub fn overlaps(&self, start: VectorId, end: VectorId) -> bool {
        self.min_id <= end && start <= self.max_id
    }
}

/// Lifecycle state of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentState {
    /// Accepting inserts; searched by brute-force scan over the append buffer.
    Growing,
    /// Frozen; searched through its built ANN index.
    Sealed,
}

/// One storage segment: an append buffer of rows plus, once sealed, a built
/// ANN index over them.
pub struct Segment {
    id: u64,
    dim: usize,
    /// Index family used when the segment seals (the growing phase always
    /// scans the buffer).
    target_kind: IndexKind,
    /// The raw rows, kept after sealing for compaction. A flat index doubles
    /// as the append buffer and the growing phase's exact search; once
    /// sealed, its row store is the index's scan/rescore arena as well.
    buffer: FlatIndex,
    /// Present once the segment is sealed.
    index: Option<Box<dyn VectorIndex>>,
    /// Running id range of the stored rows (`None` while empty).
    zone: Option<ZoneMap>,
}

impl Segment {
    /// Creates an empty growing segment.
    pub fn new(id: u64, dim: usize, target_kind: IndexKind) -> Self {
        Self {
            id,
            dim,
            target_kind,
            buffer: FlatIndex::new(dim),
            index: None,
            zone: None,
        }
    }

    /// Reconstructs a sealed segment from recovered parts: the rows become
    /// the segment's buffer and [`Segment::seal`] builds the index over
    /// them, exactly as it does for a segment filled by inserts. The buffer
    /// and the index share `rows`.
    pub fn restore_sealed(
        id: u64,
        dim: usize,
        target_kind: IndexKind,
        zone: Option<ZoneMap>,
        ids: Vec<VectorId>,
        rows: RowStore,
    ) -> Result<Self> {
        let mut segment = Self {
            id,
            dim,
            target_kind,
            buffer: FlatIndex::from_parts(dim, ids, rows)?,
            index: None,
            zone,
        };
        segment.seal()?;
        Ok(segment)
    }

    /// Segment identifier (unique within its collection).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SegmentState {
        if self.index.is_some() {
            SegmentState::Sealed
        } else {
            SegmentState::Growing
        }
    }

    /// True once [`Segment::seal`] has run.
    pub fn is_sealed(&self) -> bool {
        self.index.is_some()
    }

    /// Family name of the index serving this segment's searches.
    pub fn family(&self) -> &'static str {
        match &self.index {
            Some(index) => index.family(),
            None => "BF",
        }
    }

    /// Appends a row. Errors once the segment is sealed — sealed segments are
    /// immutable by construction.
    pub fn insert(&mut self, id: VectorId, vector: &[f32]) -> Result<()> {
        if self.is_sealed() {
            return Err(StoreError::InvalidOperation(format!(
                "segment {} is sealed and immutable",
                self.id
            )));
        }
        self.buffer.insert(id, vector)?;
        self.zone = Some(match self.zone {
            None => ZoneMap {
                min_id: id,
                max_id: id,
                rows: 1,
            },
            Some(zone) => ZoneMap {
                min_id: zone.min_id.min(id),
                max_id: zone.max_id.max(id),
                rows: zone.rows + 1,
            },
        });
        Ok(())
    }

    /// The segment's zone map (`None` while the segment is empty).
    pub fn zone_map(&self) -> Option<ZoneMap> {
        self.zone
    }

    /// Seals the segment: builds the ANN index over the buffered rows. The
    /// index family and its parameters are chosen for the segment's actual
    /// row count (tiny segments stay brute-force). Idempotent; on failure the
    /// buffered rows are untouched and still searchable.
    pub fn seal(&mut self) -> Result<()> {
        if self.is_sealed() {
            return Ok(());
        }
        let (ids, rows) = self.buffer.parts();
        let index =
            create_segment_index_from_rows(self.target_kind, self.dim, ids.to_vec(), rows.clone())?;
        self.index = Some(index);
        Ok(())
    }

    /// Searches the segment for the `k` rows most similar to `query`,
    /// pushing `filter` into the scan when one is given: through the built
    /// index when sealed, by exact brute-force scan of the append buffer
    /// while growing. The hits come back unordered, as from any
    /// [`VectorIndex::search`]; the collection merge orders them.
    ///
    /// Graph escape hatch: HNSW's filtered-accept beam loses recall as
    /// selectivity drops (few accepted nodes ever enter the result beam), so
    /// when a sealed graph segment faces a filter matching far fewer rows than
    /// it holds, the search answers from the retained raw rows instead — an
    /// exact filtered scan whose cost is one id test per row plus one dot
    /// per *matching* row, which at that selectivity is both cheaper and
    /// exact.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        filter: Option<&IdFilter>,
    ) -> Result<(Vec<SearchResult>, SearchStats)> {
        let index: &dyn VectorIndex = match &self.index {
            Some(_)
                if self.target_kind == IndexKind::Hnsw
                    && filter.is_some_and(|filter| selective_allow_set(filter, self.len())) =>
            {
                &self.buffer
            }
            Some(index) => index.as_ref(),
            None => &self.buffer,
        };
        Ok(index.search(query, k, filter)?)
    }

    /// Iterator over the raw rows, used by compaction to rebuild a merged
    /// segment without touching the encoder layer.
    pub fn raw_rows(&self) -> impl Iterator<Item = (VectorId, &[f32])> {
        self.buffer.rows()
    }

    /// Approximate memory footprint of the built index payload in bytes.
    pub fn index_bytes(&self) -> usize {
        self.index.as_ref().map_or(0, |index| index.memory_bytes())
    }
}

/// True when the filter matches few enough rows (under a tenth of the
/// segment) that a graph beam would mostly visit rejected nodes.
fn selective_allow_set(filter: &IdFilter, rows: usize) -> bool {
    filter.matched().saturating_mul(10) < rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Segment hits in the crate-wide order, best first (score descending,
    /// then id ascending): a segment search returns its hits unordered.
    fn sorted(hits: Vec<SearchResult>) -> Vec<SearchResult> {
        let mut top = lovo_index::TopK::new(hits.len());
        for hit in hits {
            top.push_hit(hit.id, hit.score);
        }
        top.into_sorted_results()
    }

    fn unit(i: usize, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim)
            .map(|d| ((i * 31 + d * 7) % 97) as f32 / 97.0 - 0.5)
            .collect();
        lovo_index::metric::normalize(&mut v);
        v
    }

    #[test]
    fn growing_segment_scans_without_seal() {
        let mut seg = Segment::new(0, 8, IndexKind::IvfPq);
        for i in 0..20 {
            seg.insert(i as u64, &unit(i, 8)).unwrap();
        }
        assert_eq!(seg.state(), SegmentState::Growing);
        assert_eq!(seg.family(), "BF");
        let (hits, stats) = seg.search(&unit(3, 8), 2, None).unwrap();
        let hits = sorted(hits);
        assert_eq!(hits[0].id, 3);
        assert_eq!(stats.vectors_scored, 20);
    }

    #[test]
    fn sealing_freezes_the_segment() {
        let mut seg = Segment::new(1, 8, IndexKind::IvfPq);
        for i in 0..50 {
            seg.insert(i as u64, &unit(i, 8)).unwrap();
        }
        seg.seal().unwrap();
        assert_eq!(seg.state(), SegmentState::Sealed);
        assert!(seg.insert(99, &unit(99, 8)).is_err());
        let (hits, _) = seg.search(&unit(10, 8), 1, None).unwrap();
        assert_eq!(hits[0].id, 10);
        // Sealing again is a no-op.
        seg.seal().unwrap();
        assert_eq!(seg.len(), 50);
    }

    #[test]
    fn tiny_sealed_segment_uses_brute_force_family() {
        let mut seg = Segment::new(2, 8, IndexKind::IvfPq);
        for i in 0..10 {
            seg.insert(i as u64, &unit(i, 8)).unwrap();
        }
        seg.seal().unwrap();
        assert_eq!(seg.family(), "BF");
    }

    #[test]
    fn raw_rows_survive_sealing_for_compaction() {
        let mut seg = Segment::new(3, 4, IndexKind::BruteForce);
        seg.insert(7, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        seg.seal().unwrap();
        let rows: Vec<_> = seg.raw_rows().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, 7);
        assert_eq!(rows[0].1, &[1.0, 0.0, 0.0, 0.0]);
    }

    /// True when the sealed index scans or rescores the very allocation
    /// the segment retains its rows in.
    fn index_shares_the_retained_rows(seg: &Segment) -> bool {
        let retained = seg.buffer.parts().1.as_slice();
        seg.index
            .as_ref()
            .is_some_and(|index| std::ptr::eq(index.row_store().as_slice(), retained))
    }

    #[test]
    fn sealed_rows_and_index_arena_are_one_allocation() {
        let cases = [
            (IndexKind::IvfPq, 300, "IVF-PQ"),
            (IndexKind::BruteForce, 300, "BF"),
            (IndexKind::IvfPq, 40, "BF"),
            (IndexKind::Hnsw, 300, "HNSW"),
        ];
        for (kind, rows, family) in cases {
            let mut seg = Segment::new(0, 8, kind);
            for i in 0..rows {
                seg.insert(i as u64, &unit(i, 8)).unwrap();
            }
            seg.seal().unwrap();
            assert_eq!(seg.family(), family);
            assert!(index_shares_the_retained_rows(&seg), "{kind:?} x {rows}");

            let (ids, stored) = seg.buffer.parts();
            let restored =
                Segment::restore_sealed(1, 8, kind, seg.zone_map(), ids.to_vec(), stored.clone())
                    .unwrap();
            assert!(
                index_shares_the_retained_rows(&restored),
                "{kind:?} x {rows}"
            );
            let query = unit(7, 8);
            assert_eq!(
                restored.search(&query, 5, None).unwrap(),
                seg.search(&query, 5, None).unwrap()
            );
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut seg = Segment::new(4, 4, IndexKind::BruteForce);
        assert!(seg.insert(0, &[1.0, 2.0]).is_err());
        seg.insert(0, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(seg.search(&[1.0, 0.0], 1, None).is_err());
    }

    #[test]
    fn zone_map_tracks_id_range_through_seal() {
        let mut seg = Segment::new(5, 8, IndexKind::BruteForce);
        assert!(seg.zone_map().is_none());
        for i in [40u64, 12, 77, 30] {
            seg.insert(i, &unit(i as usize, 8)).unwrap();
        }
        let zone = seg.zone_map().unwrap();
        assert_eq!((zone.min_id, zone.max_id, zone.rows), (12, 77, 4));
        assert!(zone.overlaps(0, 12));
        assert!(zone.overlaps(77, 100));
        assert!(zone.overlaps(20, 25));
        assert!(!zone.overlaps(78, 200));
        assert!(!zone.overlaps(0, 11));
        seg.seal().unwrap();
        assert_eq!(seg.zone_map().unwrap(), zone);
    }

    #[test]
    fn selective_allow_set_on_hnsw_segment_answers_exactly_from_raw_rows() {
        // A graph beam would find few (possibly zero) of a 5-id allow-set in
        // a 600-row segment; the escape hatch must return the exact filtered
        // top-k instead.
        let mut seg = Segment::new(9, 8, IndexKind::Hnsw);
        for i in 0..600u64 {
            seg.insert(i, &unit(i as usize, 8)).unwrap();
        }
        seg.seal().unwrap();
        assert_eq!(seg.family(), "HNSW");
        let allowed: std::collections::HashSet<u64> = [3u64, 99, 250, 400, 577].into();
        let filter = IdFilter::Set(allowed.clone());
        let (hits, stats) = seg.search(&unit(42, 8), 5, Some(&filter)).unwrap();
        // Exhaustive over the allow-set: every allowed id comes back.
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| allowed.contains(&h.id)));
        assert_eq!(stats.vectors_scored, 5);
        assert_eq!(stats.filtered_out, 595);
        // An allow-set above a tenth of the segment stays on the graph path:
        // beam stats, not those of the exhaustive scan over the raw rows.
        let wide = IdFilter::from_ids((0..600u64).step_by(2));
        let (_, wide_stats) = seg.search(&unit(42, 8), 5, Some(&wide)).unwrap();
        let (_, scan_stats) = seg.buffer.search(&unit(42, 8), 5, Some(&wide)).unwrap();
        assert_eq!(scan_stats.vectors_scored + scan_stats.filtered_out, 600);
        assert_ne!(wide_stats, scan_stats);
        assert!(wide_stats.vectors_scored < 600);
    }

    #[test]
    fn filtered_segment_search_masks_ids_in_both_states() {
        let mut seg = Segment::new(6, 8, IndexKind::IvfPq);
        for i in 0..60u64 {
            seg.insert(i, &unit(i as usize, 8)).unwrap();
        }
        let filter = IdFilter::from_ids(30..60u64);
        for sealed in [false, true] {
            if sealed {
                seg.seal().unwrap();
            }
            let (hits, stats) = seg.search(&unit(10, 8), 5, Some(&filter)).unwrap();
            assert!(!hits.is_empty(), "sealed={sealed}");
            assert!(hits.iter().all(|h| h.id >= 30), "sealed={sealed}");
            assert!(stats.filtered_out > 0, "sealed={sealed}");
        }
    }
}
