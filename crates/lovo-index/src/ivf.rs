//! Inverted multi-index with product-quantized residuals, and the
//! approximate nearest-neighbour search of Algorithm 1 (§V-B, §V-C).
//!
//! Structure (mirroring the paper):
//!
//! * The **coarse level** is an inverted *multi*-index: the embedding space is
//!   split into `P` coarse subspaces, each with its own codebook of `M`
//!   centroids trained by Lloyd's iteration. A cell of the index is an element
//!   of the Cartesian product `C = C_1 × … × C_P`; every stored vector belongs
//!   to the cell given by its nearest centroid in each subspace. A cell holds
//!   its vectors' external ids (LOVO's patch ids, used to join the relational
//!   metadata store) and their rows in the exact-rescore arena.
//! * The **residual level** stores each vector as a product-quantized
//!   residual (vector minus its concatenated coarse centroid). Only the ADC
//!   stage reads it, so it is built lazily: the first search that takes the
//!   two-stage branch trains the residual quantizer and encodes every row,
//!   and every later search reuses them. The build is a fixed function of the
//!   index's rows, so codes, ADC scores and hits are the same whenever it
//!   happens. Sealing, compaction and reopen train the coarse level only.
//! * **Search** follows Algorithm 1: score the query's sub-vectors against
//!   every coarse centroid, keep the Top-A centroids per subspace, visit the
//!   cells in the product of those lists, compute
//!   approximate scores as `coarse score + ADC(residual)` using the
//!   precomputed lookup table, keep the best `k·refine` candidates, exactly
//!   re-score them against the stored original vectors, and return the top-k.
//!   **Exact-first cutover:** when the probed cells hold at most `k·refine`
//!   rows that pass the filter, the approximate stage would keep every one
//!   of them, so the search skips it — no ADC table, no approximate
//!   selection, no residual level — and scores those rows exactly, straight
//!   into the top-k. The answer is bit-identical to the two-stage search's:
//!   the same candidates, the same exact `dot`, the same total order. At the
//!   reproduction's segment sizes this is the common case, so a segment's
//!   residual level is normally never built.
//!   Algorithm 1's patch-id majority vote (line 16) has nothing to decide
//!   here: a cell entry is one whole stored vector carrying its own patch
//!   id, so every candidate names exactly one id, and the top-k is selected
//!   by exact score with ties broken toward the smaller id.

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

use crate::kmeans::{lloyd, BlockedCentroids, KMeansConfig};
use crate::metric::dot;
use crate::pq::{PqConfig, ProductQuantizer};
use crate::store::RowStore;
use crate::{
    IdBuildHasher, IdFilter, IndexError, Result, SearchResult, SearchStats, TopK, TopKEntry,
    VectorId, VectorIndex,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Most coarse subspaces a cell key can hold: one byte-wide centroid code
/// per subspace, packed into a `u64` by [`IvfPqIndex::pack_cell_key`].
const MAX_COARSE_SUBSPACES: usize = 8;

/// Configuration of the inverted multi-index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IvfPqConfig {
    /// Vector dimensionality `D'`.
    pub dim: usize,
    /// Number of coarse subspaces `P` of the multi-index (2 in the classic
    /// inverted multi-index construction).
    pub coarse_subspaces: usize,
    /// Centroids per coarse subspace `M`; the index has `M^P` cells.
    pub coarse_centroids: usize,
    /// Number of best clusters probed per subspace at query time (the `A` of
    /// Algorithm 1, i.e. `nprobe`).
    pub nprobe: usize,
    /// Residual product-quantizer parameters.
    pub pq: PqConfig,
    /// The search exactly re-scores `k * refine_factor` candidates.
    pub refine_factor: usize,
    /// Maximum number of vectors sampled for codebook training.
    pub max_training_sample: usize,
    /// Seed for codebook training.
    pub seed: u64,
}

impl IvfPqConfig {
    /// A default configuration sized for the reproduction's workloads
    /// (tens of thousands to a few million vectors of dimension 32–128).
    pub fn for_dim(dim: usize) -> Self {
        Self {
            dim,
            coarse_subspaces: 2,
            coarse_centroids: 32,
            nprobe: 6,
            pq: PqConfig::for_dim(dim),
            refine_factor: 4,
            max_training_sample: 20_000,
            seed: 0x1f5a,
        }
    }

    /// Builder-style override of the number of probed clusters per subspace.
    pub fn with_nprobe(mut self, nprobe: usize) -> Self {
        self.nprobe = nprobe.max(1);
        self
    }

    /// Builder-style override of the coarse codebook size.
    pub fn with_coarse_centroids(mut self, m: usize) -> Self {
        self.coarse_centroids = m.max(1);
        self
    }

    /// Builder-style override of the refine factor.
    pub fn with_refine_factor(mut self, refine: usize) -> Self {
        self.refine_factor = refine.max(1);
        self
    }

    /// Dimension of each coarse subspace.
    pub fn coarse_subspace_dim(&self) -> usize {
        self.dim / self.coarse_subspaces.max(1)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(IndexError::InvalidConfig("dim must be positive".into()));
        }
        if self.coarse_subspaces == 0 || self.dim % self.coarse_subspaces != 0 {
            return Err(IndexError::InvalidConfig(format!(
                "dim {} must be divisible by coarse_subspaces {}",
                self.dim, self.coarse_subspaces
            )));
        }
        if self.coarse_subspaces > MAX_COARSE_SUBSPACES {
            return Err(IndexError::InvalidConfig(format!(
                "coarse_subspaces {} exceeds {MAX_COARSE_SUBSPACES}: a cell key packs one \
                 8-bit centroid code per subspace into a u64, so more subspaces would make \
                 distinct cells collide",
                self.coarse_subspaces
            )));
        }
        if self.coarse_centroids == 0 || self.coarse_centroids > 256 {
            return Err(IndexError::InvalidConfig(
                "coarse_centroids must be in 1..=256".into(),
            ));
        }
        if self.nprobe == 0 {
            return Err(IndexError::InvalidConfig("nprobe must be positive".into()));
        }
        if self.pq.dim != self.dim {
            return Err(IndexError::InvalidConfig(
                "residual PQ dim must equal index dim".into(),
            ));
        }
        self.pq.validate()
    }
}

/// One cell of the inverted multi-index, in structure-of-arrays layout:
/// entry `i` is (`ids[i]`, `rows[i]`). Its PQ codes, once a search has
/// needed them, are the cell's list in [`Residual::codes`], in the same
/// entry order.
#[derive(Debug, Clone, Default)]
struct Cell {
    ids: Vec<VectorId>,
    /// Row of each entry in the rescore arena.
    rows: Vec<u32>,
}

impl Cell {
    fn len(&self) -> usize {
        self.ids.len()
    }
}

/// The residual level of the index: what only Algorithm 1's ADC stage
/// (lines 10–12) reads, built by [`IvfPqIndex::residual`] when a search
/// first needs it.
struct Residual {
    /// Residual product quantizer.
    pq: ProductQuantizer,
    /// Each cell's PQ codes, keyed like [`IvfPqIndex::cells`]: entry `i`'s
    /// code is `codes[i*P..(i+1)*P]`, where `P` is the quantizer's subspace
    /// count. Keeping every code of a list in one contiguous byte buffer
    /// (instead of one heap-allocated `PqCode` per entry) lets an ADC pass
    /// score the whole list with a single sequential stream.
    codes: HashMap<u64, Vec<u8>, IdBuildHasher>,
}

/// The deterministic stride sample both codebook trainings draw from: at
/// most `max_training_sample` of the rows in `data`, evenly spaced.
fn training_sample<'a>(config: &IvfPqConfig, data: &'a [f32]) -> Vec<&'a [f32]> {
    let rows = data.len() / config.dim;
    let sample_len = rows.min(config.max_training_sample);
    let stride = (rows / sample_len.max(1)).max(1);
    data.chunks_exact(config.dim)
        .step_by(stride)
        .take(sample_len)
        .collect()
}

/// Nearest coarse centroid of each `sub_dim`-long subvector of `vector`.
fn coarse_codes(blocked: &[BlockedCentroids], vector: &[f32], sub_dim: usize) -> Vec<usize> {
    vector
        .chunks_exact(sub_dim)
        .zip(blocked)
        .map(|(sub, codebook)| codebook.nearest(sub))
        .collect()
}

/// Nearest coarse centroid of each `sub_dim`-long subvector of `vector`,
/// and `vector` minus the concatenation of those centroids.
fn assign(
    codebooks: &[Vec<Vec<f32>>],
    blocked: &[BlockedCentroids],
    vector: &[f32],
    sub_dim: usize,
) -> (Vec<usize>, Vec<f32>) {
    let codes = coarse_codes(blocked, vector, sub_dim);
    let mut residual = Vec::with_capacity(vector.len());
    for ((sub, codebook), &code) in vector.chunks_exact(sub_dim).zip(codebooks).zip(&codes) {
        if let Some(c) = codebook.get(code) {
            residual.extend(sub.iter().zip(c).map(|(a, b)| a - b));
        }
    }
    (codes, residual)
}

/// The inverted multi-index with PQ-compressed residuals, trained over the
/// rows it is built from and searched thereafter.
pub struct IvfPqIndex {
    config: IvfPqConfig,
    /// `coarse_codebooks[p][m]` is centroid `m` of coarse subspace `p`.
    coarse_codebooks: Vec<Vec<Vec<f32>>>,
    /// Cells keyed by the packed per-subspace centroid codes.
    cells: HashMap<u64, Cell, IdBuildHasher>,
    /// Row-major arena of the original vectors for exact re-scoring: row
    /// `r` is `arena[r * dim..(r + 1) * dim]`. Candidates carry their arena
    /// row, so the rescore loop streams contiguous memory with no
    /// per-candidate lookup. It is the store the index was built from —
    /// the sealed segment's own rows, not a copy.
    arena: RowStore,
    /// The residual level, or the error its build failed with: empty until
    /// the first two-stage search, then set once and for all.
    residual: OnceLock<Result<Residual>>,
}

impl IvfPqIndex {
    /// The index configuration.
    pub fn config(&self) -> &IvfPqConfig {
        &self.config
    }

    /// Number of non-empty cells (diagnostic).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Algorithm 1, lines 2–7: per-subspace centroid scores, and the Top-A
    /// centroids of each subspace with their scores, in no particular order
    /// (every cell of their product is probed, and the search's selections
    /// are order-independent).
    ///
    /// Each subspace's centroids are scored into one scratch buffer reused
    /// across subspaces, and one `select_nth_unstable_by` under the
    /// selectors' total order picks the best `nprobe` — the set a
    /// [`TopK`] of `nprobe` keeps, the centroid index breaking ties toward
    /// the smaller index. Every centroid counts as one selector offer in
    /// `heap_pushes`, as it did when a `TopK` did the picking.
    fn top_per_subspace(&self, query: &[f32], stats: &mut SearchStats) -> Vec<Vec<(usize, f32)>> {
        let sub_dim = self.config.coarse_subspace_dim();
        let mut scored: Vec<TopKEntry> = Vec::new();
        self.coarse_codebooks
            .iter()
            .enumerate()
            .map(|(p, codebook)| {
                let q_sub = &query[p * sub_dim..(p + 1) * sub_dim];
                scored.clear();
                scored.extend(codebook.iter().enumerate().map(|(m, c)| TopKEntry {
                    score: dot(q_sub, c),
                    id: m as VectorId,
                    payload: (),
                }));
                stats.heap_pushes += scored.len();
                let keep = self.config.nprobe.min(scored.len());
                if keep > 0 && keep < scored.len() {
                    scored.select_nth_unstable_by(keep - 1, TopKEntry::order);
                }
                scored
                    .iter()
                    .take(keep)
                    .map(|e| (e.id as usize, e.score))
                    .collect()
            })
            .collect()
    }

    fn pack_cell_key(codes: &[usize]) -> u64 {
        let mut key = 0u64;
        for &c in codes {
            key = (key << 8) | (c as u64 & 0xff);
        }
        key
    }

    /// Trains the coarse codebooks over `rows` and assigns every row to its
    /// cell: `ids[i]` owns `rows[i*dim..(i+1)*dim]`, and the store itself,
    /// shared with its caller, becomes the exact-rescore arena.
    ///
    /// Training is deterministic in the rows and their order: a stride
    /// sample of at most `max_training_sample` rows trains one k-means
    /// codebook per coarse subspace (seeded per subspace), so the same rows
    /// always build the same index. The residual PQ is not trained here:
    /// the first search that needs the ADC stage trains it over the same
    /// sample and encodes every row.
    pub fn build_from_rows(
        config: IvfPqConfig,
        ids: Vec<VectorId>,
        rows: RowStore,
    ) -> Result<Self> {
        config.validate()?;
        let dim = config.dim;
        if rows.len() != ids.len() * dim {
            return Err(IndexError::InvalidState(format!(
                "IVF build shape mismatch: {} values for {} rows of dim {dim}",
                rows.len(),
                ids.len()
            )));
        }
        if ids.is_empty() {
            return Err(IndexError::InvalidState(
                "cannot build an IVF-PQ index with no vectors".into(),
            ));
        }

        // --- Coarse training over a deterministic stride sample. ---
        let data = rows.as_slice();
        let sub_dim = config.coarse_subspace_dim();
        let sample = training_sample(&config, data);
        let mut coarse_codebooks = Vec::with_capacity(config.coarse_subspaces);
        for p in 0..config.coarse_subspaces {
            let sub_points: Vec<Vec<f32>> = sample
                .iter()
                .map(|v| v[p * sub_dim..(p + 1) * sub_dim].to_vec())
                .collect();
            let km = lloyd(
                &sub_points,
                sub_dim,
                &KMeansConfig::new(config.coarse_centroids)
                    .with_seed(config.seed ^ (p as u64 + 1).wrapping_mul(0xABCD)),
            )?;
            coarse_codebooks.push(km.centroids);
        }
        let blocked: Vec<BlockedCentroids> = coarse_codebooks
            .iter()
            .map(|c| BlockedCentroids::new(c))
            .collect();

        // --- Cell assignment: every row, in order, into its cell. ---
        let mut cells: HashMap<u64, Cell, IdBuildHasher> = HashMap::default();
        for (row, (&id, vector)) in ids.iter().zip(data.chunks_exact(dim)).enumerate() {
            let key = Self::pack_cell_key(&coarse_codes(&blocked, vector, sub_dim));
            let cell = cells.entry(key).or_default();
            cell.ids.push(id);
            cell.rows.push(row as u32);
        }
        Ok(Self {
            config,
            coarse_codebooks,
            cells,
            arena: rows,
            residual: OnceLock::new(),
        })
    }

    /// The residual level, built by the first caller and shared by every
    /// later one. Concurrent first callers wait on the one build; a failed
    /// build is kept and every caller gets a clone of its error.
    ///
    /// The build trains the residual PQ and encodes every row of the index.
    /// The first search of a segment that takes the two-stage branch pays
    /// it: ≈ 60–90 ms for a full 4 096-row segment of dim 32 on a 2-vCPU
    /// host (≈ 70 ms on the benchmark's embeddings, ≈ 90 ms on uniform
    /// random rows). Exact-first searches never call this.
    fn residual(&self) -> Result<&Residual> {
        self.residual
            .get_or_init(|| self.build_residual())
            .as_ref()
            .map_err(IndexError::clone)
    }

    /// Trains the residual PQ over the residuals of the coarse training's
    /// stride sample, then encodes every row in arena order, so each cell's
    /// codes come out in its entry order. A fixed function of the rows and
    /// the coarse codebooks: the same index builds the same residual level
    /// whenever this runs.
    fn build_residual(&self) -> Result<Residual> {
        let data = self.arena.as_slice();
        let sub_dim = self.config.coarse_subspace_dim();
        let blocked: Vec<BlockedCentroids> = self
            .coarse_codebooks
            .iter()
            .map(|c| BlockedCentroids::new(c))
            .collect();
        let residual_sample: Vec<Vec<f32>> = training_sample(&self.config, data)
            .into_iter()
            .map(|v| assign(&self.coarse_codebooks, &blocked, v, sub_dim).1)
            .collect();
        let pq = ProductQuantizer::train(self.config.pq, &residual_sample)?;
        let code_bytes = pq.code_bytes();
        let mut codes: HashMap<u64, Vec<u8>, IdBuildHasher> = self
            .cells
            .iter()
            .map(|(&key, cell)| (key, Vec::with_capacity(cell.len() * code_bytes)))
            .collect();
        for vector in data.chunks_exact(self.config.dim) {
            let (cell, residual) = assign(&self.coarse_codebooks, &blocked, vector, sub_dim);
            let code = pq.encode(&residual)?;
            codes
                .entry(Self::pack_cell_key(&cell))
                .or_default()
                .extend_from_slice(&code.0);
        }
        Ok(Residual { pq, codes })
    }
}

impl VectorIndex for IvfPqIndex {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn len(&self) -> usize {
        self.arena.len() / self.config.dim
    }

    /// Algorithm 1 with optional predicate pushdown, exact-first.
    ///
    /// The Top-A step picks the probed cells; they are collected once, and
    /// each of their rows is tested against the filter once. Then, with
    /// `keep = k · refine_factor`:
    ///
    /// * **Exact-first.** When at most `keep` probed rows pass the filter,
    ///   each is scored with `dot(query, arena row)` straight into the final
    ///   top-k, and no ADC table is built. The two-stage search would hand
    ///   its exact stage this very set — its approximate top-`keep` keeps
    ///   every offer when it gets at most `keep` — and would score it with
    ///   the same `dot` and select under the same total order (score
    ///   descending, then id ascending). So the hits are bit-identical, and
    ///   so are `vectors_scored`, `exact_rescored`, `cells_probed` and
    ///   `filtered_out`; only `heap_pushes` drops.
    /// * **Two-stage.** Otherwise the passing rows are ADC-scored
    ///   (`coarse score + ADC(residual)`), the best `keep` are kept, and
    ///   those are exactly rescored. Under a filter, a cell's passing codes
    ///   are first compacted into one contiguous run, so the list kernel
    ///   still streams sequentially. The first such search of an index
    ///   builds its residual level.
    ///
    /// Either way only passing rows are scored, and the hits come back
    /// unordered ([`VectorIndex::search`]).
    fn search(
        &self,
        query: &[f32],
        k: usize,
        filter: Option<&IdFilter>,
    ) -> Result<(Vec<SearchResult>, SearchStats)> {
        if query.len() != self.config.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dim,
                actual: query.len(),
            });
        }
        if k == 0 {
            return Ok((Vec::new(), SearchStats::default()));
        }
        let mut stats = SearchStats::default();
        let top_per_subspace = self.top_per_subspace(query, &mut stats);

        // --- Algorithm 1, lines 8–9: the probed cells, collected once. ---
        // Every cell in the Cartesian product of the Top-A lists is probed
        // and both selections below are order-independent, so the cells need
        // no best-first sort.
        let mut probed: Vec<(u64, &Cell, f32)> = Vec::new();
        enumerate_cells(&top_per_subspace, &mut |codes, coarse_score| {
            let key = Self::pack_cell_key(codes);
            if let Some(cell) = self.cells.get(&key) {
                probed.push((key, cell, coarse_score));
            }
        });
        stats.cells_probed = probed.len();
        let probed_rows: usize = probed.iter().map(|(_, cell, _)| cell.len()).sum();
        // Each probed row's filter verdict, cell after cell.
        let passes: Option<Vec<bool>> = filter.map(|filter| {
            probed
                .iter()
                .flat_map(|(_, cell, _)| cell.ids.iter().map(|&id| filter.accepts(id)))
                .collect()
        });
        let candidates = passes.as_ref().map_or(probed_rows, |passes| {
            passes.iter().filter(|&&pass| pass).count()
        });
        stats.filtered_out = probed_rows - candidates;
        stats.vectors_scored = candidates;
        // The verdicts of the cell whose rows start at `offset`.
        let verdicts = |offset: usize, cell: &Cell| {
            passes
                .as_ref()
                .map(|passes| &passes[offset..offset + cell.len()])
        };

        let dim = self.config.dim;
        let arena = self.arena.as_slice();
        let exact = |row: u32| {
            let row = row as usize;
            dot(query, &arena[row * dim..(row + 1) * dim])
        };
        let keep = k.saturating_mul(self.config.refine_factor).max(k);
        let mut top = TopK::new(k);
        if candidates <= keep {
            // --- Exact-first: every candidate would survive the ADC cut. ---
            let mut offset = 0;
            for (_, cell, _) in &probed {
                let verdicts = verdicts(offset, cell);
                offset += cell.len();
                for (entry, (&id, &row)) in cell.ids.iter().zip(&cell.rows).enumerate() {
                    if verdicts.map_or(true, |verdicts| verdicts[entry]) {
                        top.push_hit(id, exact(row));
                    }
                }
            }
            stats.exact_rescored = candidates;
        } else {
            // --- Algorithm 1, lines 10–12: approximate scores via ADC. ---
            // Candidates carry their rescore-arena row through the bounded
            // selector.
            let residual = self.residual()?;
            let adc = residual.pq.adc_table(query)?;
            let stride = self.config.pq.num_subspaces;
            let mut approx: TopK<u32> = TopK::new(keep);
            let mut list_scores: Vec<f32> = Vec::new();
            // Scratch for a filtered cell: its passing subset, compacted.
            let mut kept_ids: Vec<VectorId> = Vec::new();
            let mut kept_rows: Vec<u32> = Vec::new();
            let mut kept_codes: Vec<u8> = Vec::new();
            let mut offset = 0;
            for &(key, cell, coarse_score) in &probed {
                let verdicts = verdicts(offset, cell);
                offset += cell.len();
                let cell_codes = residual.codes.get(&key).ok_or_else(|| {
                    IndexError::InvalidState(format!("IVF cell {key:#x} has no PQ codes"))
                })?;
                let (ids, rows, codes) = match verdicts {
                    None => (&cell.ids[..], &cell.rows[..], &cell_codes[..]),
                    Some(verdicts) => {
                        kept_ids.clear();
                        kept_rows.clear();
                        kept_codes.clear();
                        for (entry, (&id, &row)) in cell.ids.iter().zip(&cell.rows).enumerate() {
                            if verdicts[entry] {
                                kept_ids.push(id);
                                kept_rows.push(row);
                                kept_codes.extend_from_slice(
                                    &cell_codes[entry * stride..(entry + 1) * stride],
                                );
                            }
                        }
                        (&kept_ids[..], &kept_rows[..], &kept_codes[..])
                    }
                };
                list_scores.clear();
                adc.score_list(codes, stride, &mut list_scores);
                for ((&id, &row), &adc_score) in ids.iter().zip(rows).zip(&list_scores) {
                    approx.push(id, coarse_score + adc_score, row);
                }
            }
            stats.heap_pushes += approx.pushes();

            // --- Algorithm 1, lines 13–17: exact re-scoring. ---
            // The kept candidates' rows stream straight out of the
            // row-major arena, with no lookup per candidate.
            for entry in approx.into_unordered_entries() {
                stats.exact_rescored += 1;
                top.push_hit(entry.id, exact(entry.payload));
            }
        }
        stats.heap_pushes += top.pushes();
        Ok((top.into_unordered_results(), stats))
    }

    fn family(&self) -> &'static str {
        "IVF-PQ"
    }

    /// The cells' ids and arena rows, the coarse centroids, and — once a
    /// search has built the residual level — every row's PQ code.
    fn memory_bytes(&self) -> usize {
        let entry_bytes: usize = self
            .cells
            .values()
            .map(|c| {
                c.ids.len() * std::mem::size_of::<VectorId>()
                    + c.rows.len() * std::mem::size_of::<u32>()
            })
            .sum();
        let code_bytes: usize = match self.residual.get() {
            Some(Ok(residual)) => residual.codes.values().map(Vec::len).sum(),
            _ => 0,
        };
        let centroid_bytes = self.config.coarse_subspaces
            * self.config.coarse_centroids
            * self.config.coarse_subspace_dim()
            * std::mem::size_of::<f32>();
        // The originals kept for exact re-scoring are the storage layer's
        // rows; they are counted there so experiments can report the
        // compressed index size the way the paper does.
        entry_bytes + code_bytes + centroid_bytes
    }

    fn row_store(&self) -> &RowStore {
        &self.arena
    }
}

/// Recursively enumerates the Cartesian product of per-subspace Top-A lists,
/// invoking `visit(codes, combined_score)` for every combination.
fn enumerate_cells(top_per_subspace: &[Vec<(usize, f32)>], visit: &mut impl FnMut(&[usize], f32)) {
    fn rec(
        lists: &[Vec<(usize, f32)>],
        depth: usize,
        codes: &mut Vec<usize>,
        score: f32,
        visit: &mut impl FnMut(&[usize], f32),
    ) {
        if depth == lists.len() {
            visit(codes, score);
            return;
        }
        for &(code, s) in &lists[depth] {
            codes.push(code);
            rec(lists, depth + 1, codes, score + s, visit);
            codes.pop();
        }
    }
    let mut codes = Vec::with_capacity(top_per_subspace.len());
    rec(top_per_subspace, 0, &mut codes, 0.0, visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metric::normalize;
    use crate::{sorted, IdPosting, IdRanges};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn random_unit(dim: usize, rng: &mut SmallRng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut v);
        v
    }

    /// Builds over `vectors` with ids `0..n`.
    fn build(config: IvfPqConfig, vectors: &[Vec<f32>]) -> Result<IvfPqIndex> {
        let ids = (0..vectors.len() as u64).collect();
        IvfPqIndex::build_from_rows(config, ids, vectors.concat().into())
    }

    fn flat_over(vectors: &[Vec<f32>]) -> FlatIndex {
        let mut flat = FlatIndex::new(vectors[0].len());
        for (i, v) in vectors.iter().enumerate() {
            flat.insert(i as u64, v).unwrap();
        }
        flat
    }

    fn build_index(n: usize, dim: usize, seed: u64) -> (IvfPqIndex, FlatIndex, Vec<Vec<f32>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vectors: Vec<Vec<f32>> = (0..n).map(|_| random_unit(dim, &mut rng)).collect();
        let ivf = build(IvfPqConfig::for_dim(dim), &vectors).unwrap();
        (ivf, flat_over(&vectors), vectors)
    }

    #[test]
    fn config_validation_catches_mistakes() {
        let mut cfg = IvfPqConfig::for_dim(32);
        assert!(cfg.validate().is_ok());
        cfg.coarse_subspaces = 5;
        assert!(cfg.validate().is_err());
        let mut cfg2 = IvfPqConfig::for_dim(32);
        cfg2.nprobe = 0;
        assert!(cfg2.validate().is_err());
        let mut cfg3 = IvfPqConfig::for_dim(32);
        cfg3.pq.dim = 16;
        assert!(cfg3.validate().is_err());
    }

    #[test]
    fn build_with_no_vectors_fails() {
        assert!(build(IvfPqConfig::for_dim(16), &[]).is_err());
    }

    #[test]
    fn self_query_returns_itself() {
        let (ivf, _, vectors) = build_index(2_000, 32, 42);
        for probe in [0usize, 500, 1500] {
            let hits = ivf.search(&vectors[probe], 1, None).unwrap().0;
            assert_eq!(hits[0].id, probe as u64, "self-query missed for {probe}");
            assert!(hits[0].score > 0.999);
        }
    }

    /// Clustered data resembling real embedding distributions (the encoders
    /// place semantically similar patches near shared attribute directions).
    fn clustered_unit_vectors(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..clusters).map(|_| random_unit(dim, &mut rng)).collect();
        (0..n)
            .map(|i| {
                let center = &centers[i % clusters];
                let mut v: Vec<f32> = center
                    .iter()
                    .map(|c| c + rng.gen_range(-0.15f32..0.15))
                    .collect();
                normalize(&mut v);
                v
            })
            .collect()
    }

    #[test]
    fn recall_against_brute_force_is_high() {
        // Embeddings produced by the encoders are clustered by attribute, so
        // measure recall on clustered data rather than uniform noise (the
        // worst case for any inverted index).
        let dim = 32;
        let vectors = clustered_unit_vectors(3_000, dim, 40, 7);
        let ivf = build(IvfPqConfig::for_dim(dim), &vectors).unwrap();
        let flat = flat_over(&vectors);
        let mut rng = SmallRng::seed_from_u64(99);
        let mut recall_hits = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q = &vectors[rng.gen_range(0..vectors.len())];
            let exact: Vec<u64> = flat
                .search(q, 10, None)
                .unwrap()
                .0
                .iter()
                .map(|r| r.id)
                .collect();
            let approx: Vec<u64> = ivf
                .search(q, 10, None)
                .unwrap()
                .0
                .iter()
                .map(|r| r.id)
                .collect();
            total += exact.len();
            recall_hits += exact.iter().filter(|id| approx.contains(id)).count();
        }
        let recall = recall_hits as f32 / total as f32;
        assert!(recall > 0.7, "recall@10 too low: {recall}");
    }

    #[test]
    fn search_probes_fewer_vectors_than_brute_force() {
        let (ivf, flat, vectors) = build_index(4_000, 32, 3);
        let (_, ivf_stats) = ivf.search(&vectors[17], 10, None).unwrap();
        let (_, flat_stats) = flat.search(&vectors[17], 10, None).unwrap();
        assert!(
            ivf_stats.vectors_scored < flat_stats.vectors_scored / 2,
            "IVF probed {} of {}",
            ivf_stats.vectors_scored,
            flat_stats.vectors_scored
        );
        assert!(ivf_stats.cells_probed >= 1);
    }

    #[test]
    fn nprobe_one_is_faster_but_coarser_than_nprobe_many() {
        let dim = 32;
        let mut rng = SmallRng::seed_from_u64(21);
        let vectors: Vec<Vec<f32>> = (0..3_000).map(|_| random_unit(dim, &mut rng)).collect();
        let narrow = build(IvfPqConfig::for_dim(dim).with_nprobe(1), &vectors).unwrap();
        let wide = build(IvfPqConfig::for_dim(dim).with_nprobe(16), &vectors).unwrap();
        let (_, narrow_stats) = narrow.search(&vectors[5], 10, None).unwrap();
        let (_, wide_stats) = wide.search(&vectors[5], 10, None).unwrap();
        assert!(narrow_stats.vectors_scored <= wide_stats.vectors_scored);
        assert!(narrow_stats.cells_probed <= wide_stats.cells_probed);
    }

    #[test]
    fn memory_is_far_smaller_than_raw_vectors() {
        let (ivf, flat, _) = build_index(5_000, 32, 13);
        assert!(
            ivf.memory_bytes() < flat.memory_bytes() / 2,
            "IVF-PQ {} bytes vs flat {} bytes",
            ivf.memory_bytes(),
            flat.memory_bytes()
        );
        assert!(ivf.cell_count() > 1);
    }

    #[test]
    fn dimension_mismatch_checked_on_build_and_search() {
        let ragged =
            IvfPqIndex::build_from_rows(IvfPqConfig::for_dim(32), vec![0], vec![0.0; 16].into());
        assert!(ragged.is_err());
        let (built, _, _) = build_index(500, 32, 17);
        assert!(built.search(&[0.0; 16], 5, None).is_err());
    }

    #[test]
    fn zero_k_returns_empty() {
        let (ivf, _, vectors) = build_index(500, 32, 19);
        assert!(ivf.search(&vectors[0], 0, None).unwrap().0.is_empty());
    }

    fn build_with_config(
        n: usize,
        dim: usize,
        seed: u64,
        config: IvfPqConfig,
    ) -> (IvfPqIndex, Vec<Vec<f32>>) {
        let vectors = clustered_unit_vectors(n, dim, 30, seed);
        (build(config, &vectors).unwrap(), vectors)
    }

    #[test]
    fn top_a_equals_a_topk_selection() {
        let (mut ivf, vectors) = build_with_config(800, 16, 3, IvfPqConfig::for_dim(16));
        let centroids = ivf.config.coarse_centroids;
        // Duplicate centroids tie with their original for every query; the
        // zero query ties every centroid at 0.
        for codebook in &mut ivf.coarse_codebooks {
            for m in (4..centroids).step_by(4) {
                codebook[m] = codebook[m % 8].clone();
            }
        }
        let queries = [vectors[5].clone(), vectors[400].clone(), vec![0.0; 16]];
        let sub_dim = ivf.config.coarse_subspace_dim();
        for nprobe in [1, 6, centroids] {
            ivf.config.nprobe = nprobe;
            for (q, query) in queries.iter().enumerate() {
                let mut stats = SearchStats::default();
                let lists = ivf.top_per_subspace(query, &mut stats);
                assert_eq!(stats.heap_pushes, ivf.coarse_codebooks.len() * centroids);
                for (p, (list, codebook)) in lists.iter().zip(&ivf.coarse_codebooks).enumerate() {
                    let q_sub = &query[p * sub_dim..(p + 1) * sub_dim];
                    let mut top = TopK::new(nprobe);
                    for (m, c) in codebook.iter().enumerate() {
                        top.push_hit(m as u64, dot(q_sub, c));
                    }
                    let expected: Vec<(usize, u32)> = top
                        .into_sorted_results()
                        .iter()
                        .map(|hit| (hit.id as usize, hit.score.to_bits()))
                        .collect();
                    let mut found: Vec<SearchResult> = list
                        .iter()
                        .map(|&(m, score)| SearchResult {
                            id: m as u64,
                            score,
                        })
                        .collect();
                    found.sort_unstable_by(SearchResult::order);
                    let found: Vec<(usize, u32)> = found
                        .iter()
                        .map(|hit| (hit.id as usize, hit.score.to_bits()))
                        .collect();
                    assert_eq!(found, expected, "nprobe {nprobe} query {q} subspace {p}");
                }
            }
        }
    }

    #[test]
    fn cell_keys_hold_at_most_eight_coarse_subspaces() {
        // Eight byte-wide codes fill the u64 cell key exactly, so every
        // probed combination is its own list. Two centroids probed two at a
        // time visit all 2^8 combinations: each cell once, each row once.
        let mut eight = IvfPqConfig::for_dim(16)
            .with_coarse_centroids(2)
            .with_nprobe(2);
        eight.coarse_subspaces = 8;
        assert!(eight.validate().is_ok());
        let (ivf, vectors) = build_with_config(600, 16, 5, eight);
        let (hits, stats) = ivf.search(&vectors[3], 50, None).unwrap();
        let hits = sorted(hits);
        assert_eq!(hits[0].id, 3);
        let distinct: HashSet<VectorId> = hits.iter().map(|h| h.id).collect();
        assert_eq!(distinct.len(), 50, "an id came back twice");
        assert_eq!(stats.cells_probed, ivf.cell_count(), "{stats:?}");
        assert_eq!(stats.vectors_scored, 600, "{stats:?}");

        // A ninth code would shift the first one out of the key.
        let mut nine = IvfPqConfig::for_dim(18);
        nine.coarse_subspaces = 9;
        let refused = nine.validate().unwrap_err().to_string();
        assert!(
            refused.contains("coarse_subspaces 9 exceeds 8"),
            "{refused}"
        );
        assert!(build(nine, &clustered_unit_vectors(300, 18, 3, 1)).is_err());
    }

    #[test]
    fn filtered_search_skips_codes_and_matches_all_pass() {
        let (ivf, _, vectors) = build_index(2_000, 32, 55);
        let filter = IdFilter::from_ids(0..500u64);
        let (hits, stats) = ivf.search(&vectors[123], 10, Some(&filter)).unwrap();
        let hits = sorted(hits);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id < 500));
        assert_eq!(hits[0].id, 123);
        assert!(stats.filtered_out > 0, "{stats:?}");
        // Only matching candidates are scored and rescored.
        let (_, unfiltered_stats) = ivf.search(&vectors[123], 10, None).unwrap();
        assert_eq!(
            stats.vectors_scored + stats.filtered_out,
            unfiltered_stats.vectors_scored
        );
        assert!(stats.exact_rescored <= unfiltered_stats.exact_rescored);

        // An all-pass filter goes through the compaction path yet must stay
        // bit-identical to the unfiltered search.
        let all = IdFilter::from_ids(0..2_000u64);
        let (filtered, fstats) = ivf.search(&vectors[7], 10, Some(&all)).unwrap();
        let (plain, _) = ivf.search(&vectors[7], 10, None).unwrap();
        assert_eq!(filtered, plain);
        assert_eq!(fstats.filtered_out, 0);
    }

    /// The search before the exact-first cutover: always ADC-score the
    /// passing rows of the probed cells, keep the best `k · refine_factor`,
    /// rescore those exactly. Kept as the reference the exact-first search
    /// must equal, hits sorted best-first.
    fn two_stage_reference(
        ivf: &IvfPqIndex,
        query: &[f32],
        k: usize,
        filter: Option<&IdFilter>,
    ) -> (Vec<SearchResult>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 {
            return (Vec::new(), stats);
        }
        let top_per_subspace = ivf.top_per_subspace(query, &mut stats);
        let residual = ivf.residual().unwrap();
        let adc = residual.pq.adc_table(query).unwrap();
        let stride = ivf.config.pq.num_subspaces;
        let keep = k.saturating_mul(ivf.config.refine_factor).max(k);
        let mut approx: TopK<u32> = TopK::new(keep);
        let mut list_scores: Vec<f32> = Vec::new();
        let mut kept_ids: Vec<VectorId> = Vec::new();
        let mut kept_rows: Vec<u32> = Vec::new();
        let mut kept_codes: Vec<u8> = Vec::new();
        enumerate_cells(&top_per_subspace, &mut |codes, coarse_score| {
            let key = IvfPqIndex::pack_cell_key(codes);
            let Some(cell) = ivf.cells.get(&key) else {
                return;
            };
            let cell_codes = &residual.codes[&key];
            stats.cells_probed += 1;
            kept_ids.clear();
            kept_rows.clear();
            kept_codes.clear();
            for (entry, (&id, &row)) in cell.ids.iter().zip(&cell.rows).enumerate() {
                if filter.map_or(true, |filter| filter.accepts(id)) {
                    kept_ids.push(id);
                    kept_rows.push(row);
                    kept_codes.extend_from_slice(&cell_codes[entry * stride..(entry + 1) * stride]);
                }
            }
            stats.filtered_out += cell.len() - kept_ids.len();
            stats.vectors_scored += kept_ids.len();
            list_scores.clear();
            adc.score_list(&kept_codes, stride, &mut list_scores);
            for ((&id, &row), &adc_score) in kept_ids.iter().zip(&kept_rows).zip(&list_scores) {
                approx.push(id, coarse_score + adc_score, row);
            }
        });
        stats.heap_pushes += approx.pushes();
        let dim = ivf.config.dim;
        let arena = ivf.arena.as_slice();
        let mut top = TopK::new(k);
        for entry in approx.into_unordered_entries() {
            let row = entry.payload as usize;
            stats.exact_rescored += 1;
            top.push_hit(entry.id, dot(query, &arena[row * dim..(row + 1) * dim]));
        }
        stats.heap_pushes += top.pushes();
        (top.into_sorted_results(), stats)
    }

    /// `build_from_rows` as it was before the residual level became lazy:
    /// one pass trains the coarse codebooks and the residual PQ over the
    /// stride sample, then assigns and encodes every row. Kept as the
    /// reference the lazily built residual level must equal byte for byte;
    /// the index it returns starts with its residual level built.
    fn eager_reference(config: IvfPqConfig, vectors: &[Vec<f32>]) -> IvfPqIndex {
        let ids: Vec<VectorId> = (0..vectors.len() as u64).collect();
        let rows = RowStore::from(vectors.concat());
        let dim = config.dim;
        let data = rows.as_slice();
        let sub_dim = config.coarse_subspace_dim();
        let sample_len = ids.len().min(config.max_training_sample);
        let stride = (ids.len() / sample_len).max(1);
        let sample: Vec<&[f32]> = data
            .chunks_exact(dim)
            .step_by(stride)
            .take(sample_len)
            .collect();
        let mut coarse_codebooks = Vec::with_capacity(config.coarse_subspaces);
        for p in 0..config.coarse_subspaces {
            let sub_points: Vec<Vec<f32>> = sample
                .iter()
                .map(|v| v[p * sub_dim..(p + 1) * sub_dim].to_vec())
                .collect();
            let km = lloyd(
                &sub_points,
                sub_dim,
                &KMeansConfig::new(config.coarse_centroids)
                    .with_seed(config.seed ^ (p as u64 + 1).wrapping_mul(0xABCD)),
            )
            .unwrap();
            coarse_codebooks.push(km.centroids);
        }
        let blocked: Vec<BlockedCentroids> = coarse_codebooks
            .iter()
            .map(|c| BlockedCentroids::new(c))
            .collect();
        let residual_sample: Vec<Vec<f32>> = sample
            .iter()
            .map(|v| assign(&coarse_codebooks, &blocked, v, sub_dim).1)
            .collect();
        let pq = ProductQuantizer::train(config.pq, &residual_sample).unwrap();
        let mut cells: HashMap<u64, Cell, IdBuildHasher> = HashMap::default();
        let mut codes: HashMap<u64, Vec<u8>, IdBuildHasher> = HashMap::default();
        for (row, (&id, vector)) in ids.iter().zip(data.chunks_exact(dim)).enumerate() {
            let (cell_codes, residual) = assign(&coarse_codebooks, &blocked, vector, sub_dim);
            let key = IvfPqIndex::pack_cell_key(&cell_codes);
            let cell = cells.entry(key).or_default();
            cell.ids.push(id);
            cell.rows.push(row as u32);
            let code = pq.encode(&residual).unwrap();
            codes.entry(key).or_default().extend_from_slice(&code.0);
        }
        IvfPqIndex {
            config,
            coarse_codebooks,
            cells,
            arena: rows,
            residual: OnceLock::from(Ok(Residual { pq, codes })),
        }
    }

    /// One index of the exact-first sweep: the lazily built index, the
    /// eager reference over the same rows, and the rows.
    struct Fixture {
        ivf: IvfPqIndex,
        eager: IvfPqIndex,
        vectors: Vec<Vec<f32>>,
    }

    /// Indexes whose probed rows fall below and above `k · refine_factor`
    /// for every `k` the equality is checked at: 300 and 2 000 rows under
    /// the segment configuration, and 4 000 rows under [`wide_config`].
    /// Built once per test binary.
    fn exact_first_fixtures() -> &'static [Fixture] {
        static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
        FIXTURES.get_or_init(|| {
            let dim = 16;
            let segment = |rows: usize| {
                IvfPqConfig::for_dim(dim).with_coarse_centroids((rows / 8).clamp(4, 32))
            };
            [
                (300, segment(300)),
                (2_000, segment(2_000)),
                (4_000, wide_config(dim)),
            ]
            .into_iter()
            .map(|(rows, config)| {
                let (ivf, vectors) = build_with_config(rows, dim, rows as u64, config);
                let eager = eager_reference(config, &vectors);
                Fixture {
                    ivf,
                    eager,
                    vectors,
                }
            })
            .collect()
        })
    }

    /// Four coarse centroids probed three at a time: a search probes
    /// ≈ 9/16 of the rows, past the 1 600-row budget of `k = 400`, so that
    /// `k` takes the two-stage branch.
    fn wide_config(dim: usize) -> IvfPqConfig {
        IvfPqConfig::for_dim(dim)
            .with_coarse_centroids(4)
            .with_nprobe(3)
    }

    /// The three filter shapes an engine query pushes down — none, frame
    /// ranges, class postings within ranges — drawn from `seed` over the ids
    /// `0..rows`, each rejecting a share of every probed cell.
    fn exact_first_filter(shape: usize, seed: u64, rows: usize) -> Option<IdFilter> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows = rows as u64;
        let spans: Vec<(VectorId, VectorId)> = (0..rng.gen_range(1..12))
            .map(|_| {
                let start = rng.gen_range(0..rows);
                (start, start + rng.gen_range(0..rows / 4))
            })
            .collect();
        let ranges = IdRanges::new(spans);
        match shape % 3 {
            0 => None,
            1 => {
                let matched = (0..rows).filter(|&id| ranges.contains(id)).count();
                Some(IdFilter::Ranges { ranges, matched })
            }
            _ => {
                let step = rng.gen_range(2..5u64);
                let posting: IdPosting = (0..rows).filter(|id| id % step != 1).collect();
                let within = rng.gen_bool(0.5).then_some(ranges);
                Some(IdFilter::Postings {
                    postings: vec![std::sync::Arc::new(posting)],
                    within,
                })
            }
        }
    }

    /// Ids and score bits of `hits`, in their order.
    fn hit_bits(hits: Vec<SearchResult>) -> Vec<(VectorId, u32)> {
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
    }

    /// Asserts the exact-first search, sorted, equals the two-stage
    /// reference bit for bit and in every work counter but `heap_pushes`.
    /// Returns whether the probed candidates exceeded the refine budget.
    fn assert_exact_first_equals_reference(
        ivf: &IvfPqIndex,
        query: &[f32],
        k: usize,
        filter: Option<&IdFilter>,
    ) -> bool {
        let (hits, stats) = ivf.search(query, k, filter).unwrap();
        let (expected, reference) = two_stage_reference(ivf, query, k, filter);
        assert_eq!(
            hit_bits(sorted(hits)),
            hit_bits(expected),
            "k={k} {filter:?}"
        );
        let counters = |s: &SearchStats| {
            (
                s.vectors_scored,
                s.exact_rescored,
                s.cells_probed,
                s.filtered_out,
            )
        };
        assert_eq!(counters(&stats), counters(&reference), "k={k} {filter:?}");
        assert!(stats.heap_pushes <= reference.heap_pushes);
        reference.vectors_scored > k * ivf.config.refine_factor
    }

    #[test]
    fn exact_first_equals_two_stage_on_both_sides_of_the_budget() {
        // Every filter shape must meet both branches, or the equality
        // below would not cover the cutover.
        let mut exact_first = [0usize; 3];
        let mut two_stage = [0usize; 3];
        for (fixture, Fixture { ivf, vectors, .. }) in exact_first_fixtures().iter().enumerate() {
            for k in [1, 10, 400] {
                for shape in 0..3 {
                    for probe in [0usize, 77, 151, 299] {
                        let seed = (fixture * 1_000 + probe) as u64;
                        let filter = exact_first_filter(shape, seed, vectors.len());
                        let over = assert_exact_first_equals_reference(
                            ivf,
                            &vectors[probe],
                            k,
                            filter.as_ref(),
                        );
                        if over {
                            two_stage[shape] += 1;
                        } else {
                            exact_first[shape] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            exact_first.iter().chain(&two_stage).all(|&n| n > 0),
            "exact-first {exact_first:?}, two-stage {two_stage:?}"
        );
    }

    #[test]
    fn lazy_residual_equals_the_eager_build() {
        // The sweep must meet both branches, so the lazy side builds its
        // residual level mid-sweep unless another test already has.
        let (mut exact_first, mut two_stage) = (0usize, 0usize);
        for (
            fixture,
            Fixture {
                ivf,
                eager,
                vectors,
            },
        ) in exact_first_fixtures().iter().enumerate()
        {
            for k in [1, 10, 400] {
                for shape in 0..3 {
                    for probe in [0usize, 77, 151, 299] {
                        let seed = (fixture * 1_000 + probe) as u64;
                        let filter = exact_first_filter(shape, seed, vectors.len());
                        let filter = filter.as_ref();
                        let (hits, stats) = ivf.search(&vectors[probe], k, filter).unwrap();
                        let (expected, reference) =
                            eager.search(&vectors[probe], k, filter).unwrap();
                        let case = format!("fixture {fixture} k={k} {filter:?}");
                        assert_eq!(hit_bits(sorted(hits)), hit_bits(sorted(expected)), "{case}");
                        assert_eq!(stats, reference, "{case}");
                        if stats.vectors_scored > k * ivf.config.refine_factor {
                            two_stage += 1;
                        } else {
                            exact_first += 1;
                        }
                    }
                }
            }
            // Once built, the residual level is the eager one, byte for byte.
            let codebook_bits = |residual: &Residual| -> Vec<u32> {
                residual
                    .pq
                    .codebooks()
                    .iter()
                    .flatten()
                    .flatten()
                    .map(|x| x.to_bits())
                    .collect()
            };
            let (lazy, built) = (ivf.residual().unwrap(), eager.residual().unwrap());
            assert_eq!(
                codebook_bits(lazy),
                codebook_bits(built),
                "fixture {fixture}"
            );
            assert_eq!(lazy.codes, built.codes, "fixture {fixture}");
        }
        assert!(
            exact_first > 0 && two_stage > 0,
            "exact-first {exact_first}, two-stage {two_stage}"
        );
    }

    #[test]
    fn racing_two_stage_searches_share_one_residual_build() {
        let dim = 16;
        let config = wide_config(dim);
        let (ivf, vectors) = build_with_config(4_000, dim, 4_000, config);
        assert!(ivf.residual.get().is_none());
        let start = std::sync::Barrier::new(4);
        let built: Vec<&Residual> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (ivf, vectors, start) = (&ivf, &vectors, &start);
                    scope.spawn(move || {
                        start.wait();
                        let (_, stats) = ivf.search(&vectors[t * 101], 400, None).unwrap();
                        assert!(
                            stats.vectors_scored > 400 * config.refine_factor,
                            "{stats:?}"
                        );
                        ivf.residual().unwrap()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(built.iter().all(|&r| std::ptr::eq(r, built[0])));
    }

    #[test]
    fn segment_sized_indexes_search_without_building_the_residual() {
        // A segment's index probes 36 of up to 1 024 cells, so at the
        // engine's per-segment `k` (`fast_search_k`, 400 by default) and
        // down to 100 the probed rows stay within the `k · refine_factor`
        // budget and every search is exact-first. A `k` whose budget falls
        // below the probed rows (here `k = 50` can: one cluster's cells
        // hold 273 rows) takes the two-stage branch, and only then is the
        // residual level built and counted.
        let dim = 32;
        for rows in [crate::MIN_TRAINED_SEGMENT_ROWS, 4_096] {
            let vectors = clustered_unit_vectors(rows, dim, 30, rows as u64);
            let ivf = build(crate::segment_ivf_config(dim, rows), &vectors).unwrap();
            let before = ivf.memory_bytes();
            for k in [100, 400] {
                for shape in 0..3 {
                    for probe in [0usize, 77, 151, 255] {
                        let filter = exact_first_filter(shape, probe as u64, rows);
                        let (_, stats) = ivf.search(&vectors[probe], k, filter.as_ref()).unwrap();
                        assert_eq!(stats.exact_rescored, stats.vectors_scored, "{stats:?}");
                    }
                }
            }
            assert!(ivf.residual.get().is_none(), "{rows} rows built it");
            assert_eq!(ivf.memory_bytes(), before);

            let (_, stats) = ivf.search(&vectors[0], 1, None).unwrap();
            assert!(stats.exact_rescored < stats.vectors_scored, "{stats:?}");
            let code_bytes = ivf.residual().unwrap().pq.code_bytes();
            assert_eq!(ivf.memory_bytes(), before + rows * code_bytes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        // Random queries (stored rows and off-data directions) and random
        // filters over every fixture and every `k` of the budget sweep.
        #[test]
        fn exact_first_equals_two_stage_reference(
            fixture in 0usize..3,
            k_pick in 0usize..3,
            shape in 0usize..3,
            seed in 0u64..u64::MAX,
            stored in proptest::any::<bool>(),
        ) {
            let k = [1, 10, 400][k_pick];
            let Fixture { ivf, vectors, .. } = &exact_first_fixtures()[fixture];
            let mut rng = SmallRng::seed_from_u64(seed);
            let query = if stored {
                vectors[rng.gen_range(0..vectors.len())].clone()
            } else {
                random_unit(ivf.config.dim, &mut rng)
            };
            let filter = exact_first_filter(shape, seed, vectors.len());
            assert_exact_first_equals_reference(ivf, &query, k, filter.as_ref());
        }
    }
}
