//! Int8 scalar quantization of row storage (the "SQ8" tier).
//!
//! A 100k-row flat scan at dim 64 streams 25 MiB of f32 per query — far past
//! L2, so PR 3's batch kernels are memory-bandwidth-bound. Storing rows as
//! one i8 code per dimension with a per-row affine `(scale, offset)` cuts the
//! scanned bytes 4x; the approximate inner product
//!
//! ```text
//! dot(q, v̂) = scale_r · Σ_i q_i·code_i  +  offset_r · Σ_i q_i
//! ```
//!
//! needs one f32×i8 kernel pass plus two fused multiplies per row (`Σ q_i`
//! is precomputed once per query). Result quality is governed by exact-f32
//! re-scoring of the top `k × overfetch` candidates, so the knob trades
//! rescore work against recall along a *measured* curve (the
//! `int8_overfetch_curve` emitted by `fastscan_bench`), never by silent
//! truncation.

use crate::metric::{dot, Metric};
use crate::store::RowStore;
use crate::{IdFilter, IndexError, Result, SearchResult, SearchStats, TopK, VectorId, VectorIndex};

/// Default exact-rescore overfetch: the int8 scan keeps `k * overfetch`
/// candidates for f32 re-scoring. 4 holds recall@10 within noise of f32 on
/// unit-vector workloads (see `docs/benchmarks.md`).
pub const DEFAULT_OVERFETCH: usize = 4;

/// Per-row affine dequantization parameters: `v ≈ scale * code + offset`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowParams {
    /// Multiplier applied to the i8 code.
    pub scale: f32,
    /// Additive offset (the row's value-range midpoint).
    pub offset: f32,
}

/// Quantizes one row to i8 codes in [-127, 127], appending to `codes`.
///
/// The offset is the midpoint of the row's value range and the scale maps
/// that range onto 254 steps, so the worst-case per-component error is half
/// a step. Degenerate (constant) rows use scale 1 and code 0 everywhere.
pub fn quantize_row(row: &[f32], codes: &mut Vec<i8>) -> RowParams {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in row {
        min = min.min(v);
        max = max.max(v);
    }
    let (scale, offset) = if row.is_empty() || max <= min {
        (1.0, if row.is_empty() { 0.0 } else { min })
    } else {
        ((max - min) / 254.0, (max + min) / 2.0)
    };
    let inv = 1.0 / scale;
    codes.reserve(row.len());
    for &v in row {
        let q = ((v - offset) * inv).round().clamp(-127.0, 127.0);
        codes.push(q as i8);
    }
    RowParams { scale, offset }
}

/// Inner product of a f32 query with an i8 code row, 8-lane unrolled with the
/// same fixed reduction order as [`crate::metric::dot`] so results are
/// deterministic for a given length.
#[inline]
pub fn dot_i8(query: &[f32], codes: &[i8]) -> f32 {
    debug_assert_eq!(query.len(), codes.len());
    let mut lanes = [0.0f32; 8];
    let q_chunks = query.chunks_exact(8);
    let c_chunks = codes.chunks_exact(8);
    let q_rem = q_chunks.remainder();
    let c_rem = c_chunks.remainder();
    for (cq, cc) in q_chunks.zip(c_chunks) {
        lanes[0] += cq[0] * cc[0] as f32;
        lanes[1] += cq[1] * cc[1] as f32;
        lanes[2] += cq[2] * cc[2] as f32;
        lanes[3] += cq[3] * cc[3] as f32;
        lanes[4] += cq[4] * cc[4] as f32;
        lanes[5] += cq[5] * cc[5] as f32;
        lanes[6] += cq[6] * cc[6] as f32;
        lanes[7] += cq[7] * cc[7] as f32;
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for (x, y) in q_rem.iter().zip(c_rem) {
        acc += x * *y as f32;
    }
    acc
}

/// A row-major arena of int8-quantized vectors with per-row affine params.
/// Used both by [`QuantizedFlatIndex`] and as the optional IVF rescore tier.
#[derive(Debug, Clone, Default)]
pub struct Int8Arena {
    dim: usize,
    codes: Vec<i8>,
    params: Vec<RowParams>,
}

impl Int8Arena {
    /// Creates an empty arena for `dim`-dimensional rows.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            codes: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no row is stored.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Quantizes and appends one row, returning its row number.
    pub fn push(&mut self, row: &[f32]) -> Result<u32> {
        if row.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                actual: row.len(),
            });
        }
        let params = quantize_row(row, &mut self.codes);
        self.params.push(params);
        Ok((self.params.len() - 1) as u32)
    }

    /// Re-quantizes an existing row in place (id-overwrite semantics of the
    /// IVF insert path).
    pub fn overwrite(&mut self, row: u32, values: &[f32]) -> Result<()> {
        let row = row as usize;
        if values.len() != self.dim || row >= self.params.len() {
            return Err(IndexError::InvalidState(
                "int8 arena overwrite out of bounds".into(),
            ));
        }
        let mut fresh = Vec::with_capacity(self.dim);
        let params = quantize_row(values, &mut fresh);
        self.codes[row * self.dim..(row + 1) * self.dim].copy_from_slice(&fresh);
        self.params[row] = params;
        Ok(())
    }

    /// Approximate inner product of `query` against row `row`, given the
    /// precomputed component sum of the query (`Σ q_i`).
    #[inline]
    pub fn score_row(&self, query: &[f32], query_sum: f32, row: usize) -> f32 {
        let p = self.params[row];
        let codes = &self.codes[row * self.dim..(row + 1) * self.dim];
        p.scale * dot_i8(query, codes) + p.offset * query_sum
    }

    /// Bytes held by the quantized payload.
    pub fn memory_bytes(&self) -> usize {
        self.codes.len() + self.params.len() * std::mem::size_of::<RowParams>()
    }
}

/// A flat index that scans int8-quantized rows and exactly re-scores the top
/// `k * overfetch` candidates from a retained f32 copy.
///
/// Supports the inner-product metric only (the system normalizes every
/// embedding, so this is the deployed configuration); the affine decomposition
/// above has no equally cheap L2 form.
#[derive(Debug, Clone)]
pub struct QuantizedFlatIndex {
    dim: usize,
    overfetch: usize,
    ids: Vec<VectorId>,
    arena: Int8Arena,
    /// Exact rows for final re-scoring, row-major (same layout as
    /// [`crate::FlatIndex`]'s arena). A zero-copy view into the segment
    /// file on the mmap restore path; the int8 scan codes above are always
    /// heap-derived from it.
    exact: RowStore,
}

impl QuantizedFlatIndex {
    /// Creates an empty quantized flat index with the default overfetch.
    pub fn new(dim: usize) -> Self {
        Self::with_overfetch(dim, DEFAULT_OVERFETCH)
    }

    /// Creates an empty quantized flat index keeping `k * overfetch`
    /// candidates for exact re-scoring (minimum 1).
    pub fn with_overfetch(dim: usize, overfetch: usize) -> Self {
        Self {
            dim,
            overfetch: overfetch.max(1),
            ids: Vec::new(),
            arena: Int8Arena::new(dim),
            exact: RowStore::new(),
        }
    }

    /// Reconstructs a quantized flat index from already-stored rows (the
    /// segment restore path). Each row of `exact` is quantized into the
    /// int8 arena in order — the exact sequence [`VectorIndex::insert`]
    /// performs — so scan order, codes, and scores are bit-identical to the
    /// index originally sealed from these rows.
    pub fn from_parts(dim: usize, ids: Vec<VectorId>, exact: RowStore) -> Result<Self> {
        if dim == 0 || exact.len() != ids.len() * dim {
            return Err(IndexError::InvalidState(format!(
                "quantized flat restore shape mismatch: {} values for {} rows of dim {dim}",
                exact.len(),
                ids.len()
            )));
        }
        let mut arena = Int8Arena::new(dim);
        for row in exact.as_slice().chunks_exact(dim) {
            arena.push(row)?;
        }
        Ok(Self {
            dim,
            overfetch: DEFAULT_OVERFETCH,
            ids,
            arena,
            exact,
        })
    }

    /// True when the exact-rescore rows are a zero-copy view into a mapped
    /// file.
    pub fn is_mapped(&self) -> bool {
        self.exact.is_mapped()
    }

    fn search_impl(
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
        let mut stats = SearchStats {
            cells_probed: 1,
            ..SearchStats::default()
        };
        let query_sum: f32 = query.iter().sum();
        let keep = k.saturating_mul(self.overfetch).max(k);
        let mut approx: TopK<u32> = TopK::new(keep);
        for (row, &id) in self.ids.iter().enumerate() {
            if let Some(f) = filter {
                if !f.accepts(id) {
                    stats.filtered_out += 1;
                    continue;
                }
            }
            stats.vectors_scored += 1;
            approx.push(id, self.arena.score_row(query, query_sum, row), row as u32);
        }
        stats.heap_pushes += approx.pushes();
        let mut top = TopK::new(k);
        let exact_rows = self.exact.as_slice();
        for entry in approx.into_unordered_entries() {
            let row = entry.payload as usize;
            let exact = dot(query, &exact_rows[row * self.dim..(row + 1) * self.dim]);
            stats.exact_rescored += 1;
            top.push_hit(entry.id, exact);
        }
        stats.heap_pushes += top.pushes();
        Ok((top.into_sorted_results(), stats))
    }
}

impl VectorIndex for QuantizedFlatIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn insert(&mut self, id: VectorId, vector: &[f32]) -> Result<()> {
        if vector.len() != self.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.dim,
                actual: vector.len(),
            });
        }
        self.arena.push(vector)?;
        self.ids.push(id);
        self.exact.to_mut().extend_from_slice(vector);
        Ok(())
    }

    fn build(&mut self) -> Result<()> {
        Ok(())
    }

    fn search_with_stats(
        &self,
        query: &[f32],
        k: usize,
    ) -> Result<(Vec<SearchResult>, SearchStats)> {
        self.search_impl(query, k, None)
    }

    fn search_filtered_with_stats(
        &self,
        query: &[f32],
        k: usize,
        filter: &IdFilter,
    ) -> Result<(Vec<SearchResult>, SearchStats)> {
        self.search_impl(query, k, Some(filter))
    }

    fn family(&self) -> &'static str {
        "BF-SQ8"
    }

    fn memory_bytes(&self) -> usize {
        // The f32 copy is rescore storage, not scan storage; it is counted so
        // capacity planning sees the true footprint (0 when mapped — the
        // rescore rows are then file-backed page cache, not heap).
        self.arena.memory_bytes()
            + self.exact.heap_bytes()
            + self.ids.len() * std::mem::size_of::<VectorId>()
    }
}

/// The inner-product metric the quantized scan implements; exposed so the
/// seal path can assert compatibility before choosing this family.
pub const QUANTIZED_METRIC: Metric = Metric::InnerProduct;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::normalize;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_unit(dim: usize, rng: &mut SmallRng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut v);
        v
    }

    #[test]
    fn quantize_round_trips_within_half_step() {
        let row = [0.5f32, -0.25, 0.125, 0.9, -0.9];
        let mut codes = Vec::new();
        let p = quantize_row(&row, &mut codes);
        for (&v, &c) in row.iter().zip(&codes) {
            let back = p.scale * c as f32 + p.offset;
            assert!((back - v).abs() <= p.scale / 2.0 + 1e-6, "{back} vs {v}");
        }
    }

    #[test]
    fn degenerate_rows_are_stable() {
        let mut codes = Vec::new();
        let p = quantize_row(&[0.7, 0.7, 0.7], &mut codes);
        assert_eq!(codes, vec![0, 0, 0]);
        assert!((p.scale * codes[0] as f32 + p.offset - 0.7).abs() < 1e-6);
        codes.clear();
        let p = quantize_row(&[], &mut codes);
        assert!(codes.is_empty());
        assert_eq!(p.scale, 1.0);
    }

    #[test]
    fn dot_i8_matches_naive() {
        let q: Vec<f32> = (0..13).map(|i| (i as f32 * 0.31).sin()).collect();
        let c: Vec<i8> = (0..13).map(|i| (i * 17 % 255) as i8).collect();
        let naive: f32 = q.iter().zip(&c).map(|(x, &y)| x * y as f32).sum();
        assert!((dot_i8(&q, &c) - naive).abs() < 1e-3);
    }

    #[test]
    fn arena_score_approximates_exact_dot() {
        let dim = 32;
        let mut rng = SmallRng::seed_from_u64(0x5c8);
        let mut arena = Int8Arena::new(dim);
        let rows: Vec<Vec<f32>> = (0..50).map(|_| random_unit(dim, &mut rng)).collect();
        for r in &rows {
            arena.push(r).unwrap();
        }
        let q = random_unit(dim, &mut rng);
        let q_sum: f32 = q.iter().sum();
        for (i, r) in rows.iter().enumerate() {
            let approx = arena.score_row(&q, q_sum, i);
            let exact = dot(&q, r);
            assert!(
                (approx - exact).abs() < 0.05,
                "row {i}: {approx} vs {exact}"
            );
        }
        assert_eq!(arena.len(), 50);
        assert!(arena.memory_bytes() < 50 * dim * 4);
    }

    #[test]
    fn arena_overwrite_refreshes_row() {
        let mut arena = Int8Arena::new(4);
        arena.push(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        arena.overwrite(0, &[0.0, 1.0, 0.0, 0.0]).unwrap();
        let q = [0.0f32, 1.0, 0.0, 0.0];
        let s = arena.score_row(&q, 1.0, 0);
        assert!(s > 0.9, "overwritten row should score ~1, got {s}");
        assert!(arena.overwrite(5, &[0.0; 4]).is_err());
        assert!(arena.overwrite(0, &[0.0; 3]).is_err());
    }

    #[test]
    fn quantized_flat_finds_exact_neighbors() {
        let dim = 32;
        let mut rng = SmallRng::seed_from_u64(42);
        let rows: Vec<Vec<f32>> = (0..500).map(|_| random_unit(dim, &mut rng)).collect();
        let mut idx = QuantizedFlatIndex::new(dim);
        for (i, r) in rows.iter().enumerate() {
            idx.insert(i as u64, r).unwrap();
        }
        idx.build().unwrap();
        assert_eq!(idx.family(), "BF-SQ8");
        assert_eq!(idx.dim(), dim);
        assert_eq!(idx.len(), 500);
        for probe in [0usize, 123, 499] {
            let hits = idx.search(&rows[probe], 1).unwrap();
            assert_eq!(hits[0].id, probe as u64);
            assert!((hits[0].score - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn rescore_returns_exact_scores() {
        // Final scores come from the f32 rows, so they must equal the exact
        // flat index's scores for the ids both return.
        let dim = 16;
        let mut rng = SmallRng::seed_from_u64(7);
        let rows: Vec<Vec<f32>> = (0..300).map(|_| random_unit(dim, &mut rng)).collect();
        let mut q8 = QuantizedFlatIndex::new(dim);
        let mut exact = crate::FlatIndex::new(dim);
        for (i, r) in rows.iter().enumerate() {
            q8.insert(i as u64, r).unwrap();
            exact.insert(i as u64, r).unwrap();
        }
        let q = random_unit(dim, &mut rng);
        let approx_hits = q8.search(&q, 10).unwrap();
        let exact_hits = exact.search(&q, 10).unwrap();
        for h in &approx_hits {
            if let Some(e) = exact_hits.iter().find(|e| e.id == h.id) {
                assert_eq!(h.score, e.score, "rescored score must be exact");
            }
        }
    }

    #[test]
    fn filtered_scan_counts_and_masks() {
        let dim = 8;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut idx = QuantizedFlatIndex::new(dim);
        for i in 0..40u64 {
            idx.insert(i, &random_unit(dim, &mut rng)).unwrap();
        }
        let filter = IdFilter::from_predicate(|id| id % 4 == 0);
        let (hits, stats) = idx
            .search_filtered_with_stats(&random_unit(dim, &mut rng), 5, &filter)
            .unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|h| h.id % 4 == 0));
        assert_eq!(stats.vectors_scored, 10);
        assert_eq!(stats.filtered_out, 30);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let mut idx = QuantizedFlatIndex::new(8);
        assert!(idx.insert(0, &[0.0; 4]).is_err());
        idx.insert(0, &[0.1; 8]).unwrap();
        assert!(idx.search(&[0.0; 4], 1).is_err());
        assert!(idx.memory_bytes() > 0);
        assert_eq!(QUANTIZED_METRIC, Metric::InnerProduct);
    }
}
