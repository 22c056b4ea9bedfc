//! Exhaustive (brute-force) index: the accuracy upper bound in Table V.

// A scan kernel: it runs inside every query, on `QueryService` workers and
// submitting threads, where a panic is a lost request.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::metric::dot_batch;
use crate::store::RowStore;
use crate::{IdFilter, IndexError, Result, SearchResult, SearchStats, TopK, VectorId, VectorIndex};

/// Rows scored per batch-kernel pass: 256 rows of ≤128-dim f32 keep the
/// score buffer and the active slice of the arena inside L1/L2 while the
/// `TopK` pushes run on still-hot scores.
const SCAN_BLOCK_ROWS: usize = 256;

/// A flat index that stores every vector and scans all of them per query.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    ids: Vec<VectorId>,
    /// All vectors concatenated row-major; `ids[i]` owns
    /// `data[i*dim..(i+1)*dim]`. Shared with the sealed segment that owns
    /// the rows.
    data: RowStore,
}

impl FlatIndex {
    /// Creates an empty flat index for `dim`-dimensional vectors, scored by
    /// inner product.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            ids: Vec::new(),
            data: RowStore::new(),
        }
    }

    /// Reconstructs a flat index from already-stored rows (the segment
    /// restore path): `ids[i]` owns `data[i*dim..(i+1)*dim]`. Scores are
    /// bit-identical to inserting the same rows in order.
    pub fn from_parts(dim: usize, ids: Vec<VectorId>, data: RowStore) -> Result<Self> {
        if dim == 0 || data.len() != ids.len() * dim {
            return Err(IndexError::InvalidState(format!(
                "flat restore shape mismatch: {} values for {} rows of dim {dim}",
                data.len(),
                ids.len()
            )));
        }
        Ok(Self { dim, ids, data })
    }

    /// Appends a row (the growing segment's append path).
    pub fn insert(&mut self, id: VectorId, vector: &[f32]) -> Result<()> {
        if vector.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                actual: vector.len(),
            });
        }
        self.ids.push(id);
        self.data.to_mut().extend_from_slice(vector);
        Ok(())
    }

    /// The ids and the rows they own, the shape [`FlatIndex::from_parts`]
    /// takes: `ids[i]` owns `rows[i*dim..(i+1)*dim]`.
    pub fn parts(&self) -> (&[VectorId], &RowStore) {
        (&self.ids, &self.data)
    }

    /// Borrow the stored vector for an id, if present (linear scan; test helper).
    pub fn vector(&self, id: VectorId) -> Option<&[f32]> {
        self.ids
            .iter()
            .position(|&i| i == id)
            .map(|pos| &self.data.as_slice()[pos * self.dim..(pos + 1) * self.dim])
    }

    /// Iterator over the stored `(id, vector)` rows in insertion order. The
    /// segmented storage layer uses a flat index as its append buffer and
    /// reads the raw rows back when compacting or persisting a segment.
    pub fn rows(&self) -> impl Iterator<Item = (VectorId, &[f32])> {
        let data = self.data.as_slice();
        self.ids
            .iter()
            .enumerate()
            .map(move |(pos, &id)| (id, &data[pos * self.dim..(pos + 1) * self.dim]))
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Block scan. A filter masks rows *before* they are scored, so at low
    /// selectivity the scan skips most of its dot products instead of
    /// discarding them afterwards. A block whose rows all pass streams
    /// through the batch kernel in place, and the passing rows of a mixed
    /// block are gathered into one contiguous run first ([`dot_batch`]
    /// delegates to the per-row kernel, so both score bit-identically).
    fn search(
        &self,
        query: &[f32],
        k: usize,
        filter: Option<&IdFilter>,
    ) -> Result<(Vec<SearchResult>, SearchStats)> {
        if query.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                actual: query.len(),
            });
        }
        let mut top = TopK::new(k);
        let mut scores: Vec<f32> = Vec::with_capacity(SCAN_BLOCK_ROWS.min(self.ids.len()));
        let mut mask: Vec<bool> = Vec::new();
        let mut gathered: Vec<f32> = Vec::new();
        let mut gathered_ids: Vec<VectorId> = Vec::new();
        let mut scored = 0usize;
        let mut filtered_out = 0usize;
        let data = self.data.as_slice();
        if !data.is_empty() {
            let mut base_row = 0usize;
            for block in data.chunks(SCAN_BLOCK_ROWS * self.dim) {
                let rows = block.len() / self.dim;
                let ids = &self.ids[base_row..base_row + rows];
                base_row += rows;
                let pass = match filter {
                    None => rows,
                    Some(filter) => {
                        mask.clear();
                        mask.extend(ids.iter().map(|&id| filter.accepts(id)));
                        mask.iter().filter(|&&keep| keep).count()
                    }
                };
                filtered_out += rows - pass;
                scored += pass;
                let (block, ids) = if pass == rows {
                    (block, ids)
                } else if pass > 0 {
                    gathered.clear();
                    gathered_ids.clear();
                    for ((row, &id), _) in block
                        .chunks_exact(self.dim)
                        .zip(ids)
                        .zip(&mask)
                        .filter(|(_, &keep)| keep)
                    {
                        gathered.extend_from_slice(row);
                        gathered_ids.push(id);
                    }
                    (gathered.as_slice(), gathered_ids.as_slice())
                } else {
                    continue;
                };
                scores.clear();
                dot_batch(query, block, self.dim, &mut scores);
                for (&id, &score) in ids.iter().zip(&scores) {
                    top.push_hit(id, score);
                }
            }
        }
        let stats = SearchStats {
            vectors_scored: scored,
            cells_probed: 1,
            exact_rescored: top.len(),
            heap_pushes: top.pushes(),
            filtered_out,
            ..SearchStats::default()
        };
        Ok((top.into_unordered_results(), stats))
    }

    fn family(&self) -> &'static str {
        "BF"
    }

    fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
            + self.ids.len() * std::mem::size_of::<VectorId>()
    }

    fn row_store(&self) -> &RowStore {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::normalized;
    use crate::sorted;

    fn unit(v: &[f32]) -> Vec<f32> {
        normalized(v)
    }

    #[test]
    fn exact_top_k_ordering() {
        let mut idx = FlatIndex::new(3);
        idx.insert(1, &unit(&[1.0, 0.0, 0.0])).unwrap();
        idx.insert(2, &unit(&[0.0, 1.0, 0.0])).unwrap();
        idx.insert(3, &unit(&[0.9, 0.1, 0.0])).unwrap();
        let hits = sorted(idx.search(&unit(&[1.0, 0.0, 0.0]), 2, None).unwrap().0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 3);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn k_larger_than_len_returns_everything() {
        let mut idx = FlatIndex::new(2);
        idx.insert(7, &[1.0, 0.0]).unwrap();
        let (hits, _) = idx.search(&[1.0, 0.0], 10, None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut idx = FlatIndex::new(4);
        assert!(idx.insert(1, &[1.0, 2.0]).is_err());
        idx.insert(1, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!(idx.search(&[1.0, 0.0], 1, None).is_err());
    }

    #[test]
    fn stats_count_all_vectors() {
        let mut idx = FlatIndex::new(2);
        for i in 0..50 {
            idx.insert(i, &unit(&[i as f32 + 1.0, 1.0])).unwrap();
        }
        let (_, stats) = idx.search(&unit(&[1.0, 1.0]), 5, None).unwrap();
        assert_eq!(stats.vectors_scored, 50);
        assert_eq!(stats.exact_rescored, 5);
    }

    #[test]
    fn memory_grows_with_inserts() {
        let mut idx = FlatIndex::new(8);
        let before = idx.memory_bytes();
        idx.insert(1, &[0.5; 8]).unwrap();
        assert!(idx.memory_bytes() > before);
    }

    #[test]
    fn vector_lookup_round_trips() {
        let mut idx = FlatIndex::new(3);
        let v = unit(&[0.2, 0.5, 0.8]);
        idx.insert(42, &v).unwrap();
        assert_eq!(idx.vector(42).unwrap(), v.as_slice());
        assert!(idx.vector(43).is_none());
    }

    #[test]
    fn filtered_scan_masks_rows_and_counts_them() {
        let mut idx = FlatIndex::new(2);
        for i in 0..40u64 {
            idx.insert(i, &unit(&[i as f32 + 1.0, 1.0])).unwrap();
        }
        let filter = IdFilter::from_ids((0..40u64).filter(|id| id % 4 == 0));
        let (hits, stats) = idx.search(&unit(&[50.0, 1.0]), 5, Some(&filter)).unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.id % 4 == 0));
        assert_eq!(stats.vectors_scored, 10);
        assert_eq!(stats.filtered_out, 30);

        // An all-pass filter is score-identical to the unfiltered scan.
        let all = IdFilter::from_ids(0..40u64);
        let q = unit(&[3.0, 2.0]);
        let (filtered, fstats) = idx.search(&q, 7, Some(&all)).unwrap();
        let (plain, _) = idx.search(&q, 7, None).unwrap();
        assert_eq!(filtered, plain);
        assert_eq!(fstats.filtered_out, 0);
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let mut idx = FlatIndex::new(2);
        idx.insert(9, &[1.0, 0.0]).unwrap();
        idx.insert(3, &[1.0, 0.0]).unwrap();
        let hits = sorted(idx.search(&[1.0, 0.0], 2, None).unwrap().0);
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[1].id, 9);
    }
}
