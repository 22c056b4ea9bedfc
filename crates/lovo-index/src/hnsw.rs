//! Hierarchical Navigable Small World (HNSW) graph index.
//!
//! The Table V "graph-based indexing" variant of LOVO. The implementation is
//! the standard construction: each element receives a random level from a
//! geometric distribution; links are built greedily layer by layer, searching
//! with an `ef_construction` beam and keeping the closest `m` neighbours;
//! queries descend from the entry point with a beam of 1 until layer 0, where
//! an `ef_search` beam produces the candidate set. Scores are inner products
//! of unit vectors (higher is better), consistent with the rest of the crate.
//!
//! The graph holds only ids and links; the rows live in one [`RowStore`],
//! which [`HnswIndex::build_from_rows`] adopts without copying, so a sealed
//! segment's retained rows and its graph read one allocation.

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

use crate::metric::dot;
use crate::store::RowStore;
use crate::{IdFilter, IndexError, Result, SearchResult, SearchStats, VectorId, VectorIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Configuration of the HNSW index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Maximum number of neighbours per node on layers above 0 (layer 0 keeps `2 m`).
    pub m: usize,
    /// Beam width used while inserting.
    pub ef_construction: usize,
    /// Beam width used while searching.
    pub ef_search: usize,
    /// Seed of the level generator.
    pub seed: u64,
}

impl HnswConfig {
    /// Default parameters sized for the reproduction's workloads.
    pub fn for_dim(dim: usize) -> Self {
        Self {
            dim,
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 0x45f1,
        }
    }

    /// Builder-style override of the search beam width.
    pub fn with_ef_search(mut self, ef: usize) -> Self {
        self.ef_search = ef.max(1);
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(IndexError::InvalidConfig("dim must be positive".into()));
        }
        if self.m < 2 {
            return Err(IndexError::InvalidConfig("m must be at least 2".into()));
        }
        if self.ef_construction == 0 || self.ef_search == 0 {
            return Err(IndexError::InvalidConfig(
                "ef_construction and ef_search must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Internal node: its external id and per-layer adjacency. Node `i`'s row is
/// row `i` of the index's [`RowStore`].
#[derive(Debug, Clone)]
struct Node {
    id: VectorId,
    /// `neighbors[layer]` lists the node's links on that layer.
    neighbors: Vec<Vec<u32>>,
}

/// Max-heap entry ordered by score.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    node: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then(other.node.cmp(&self.node))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap adapter (reverse ordering) used for the result frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MinScored(Scored);

impl Eq for MinScored {}

impl Ord for MinScored {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

impl PartialOrd for MinScored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable per-search scratch: the visited set, both beam heaps, and the
/// best-first output buffer survive across the layers of one search (and the
/// descent hops plus connection beams of one insert), so each query pays one
/// set of allocations instead of one per layer visit.
#[derive(Debug, Default)]
struct SearchScratch {
    visited: HashSet<u32>,
    candidates: BinaryHeap<Scored>,
    results: BinaryHeap<MinScored>,
    /// Best-first output of the last [`HnswIndex::search_layer`] call.
    out: Vec<Scored>,
    /// Work counters accumulated across the layer visits of one search.
    stats: SearchStats,
}

/// The HNSW index.
pub struct HnswIndex {
    config: HnswConfig,
    /// All rows concatenated row-major; node `i` owns
    /// `rows[i*dim..(i+1)*dim]`.
    rows: RowStore,
    nodes: Vec<Node>,
    entry_point: Option<u32>,
    max_level: usize,
    rng: SmallRng,
    /// Scratch reused by [`HnswIndex::link`]'s neighbour pruning.
    prune_scratch: Vec<(u32, f32)>,
}

impl HnswIndex {
    /// Creates an empty index.
    pub fn new(config: HnswConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            rows: RowStore::new(),
            nodes: Vec::new(),
            entry_point: None,
            max_level: 0,
            prune_scratch: Vec::new(),
        })
    }

    /// The index configuration.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// Builds the graph over already-stored rows: `ids[i]` owns
    /// `rows[i*dim..(i+1)*dim]`. The index adopts `rows` without copying (a
    /// clone of a store shares its allocation), and links them in order, so
    /// the graph is the one [`HnswIndex::insert`]ing the same rows in order
    /// would build.
    pub fn build_from_rows(config: HnswConfig, ids: Vec<VectorId>, rows: RowStore) -> Result<Self> {
        let mut index = Self::new(config)?;
        let dim = config.dim;
        if rows.len() != ids.len() * dim {
            return Err(IndexError::InvalidState(format!(
                "HNSW build shape mismatch: {} values for {} rows of dim {dim}",
                rows.len(),
                ids.len()
            )));
        }
        index.rows = rows.clone();
        for (&id, row) in ids.iter().zip(rows.as_slice().chunks_exact(dim)) {
            index.link_new(id, row);
        }
        Ok(index)
    }

    /// Adds a vector, linking it into the graph on every layer up to its
    /// randomly drawn level (the graph is built incrementally by inserts).
    pub fn insert(&mut self, id: VectorId, vector: &[f32]) -> Result<()> {
        if vector.len() != self.config.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dim,
                actual: vector.len(),
            });
        }
        self.rows.to_mut().extend_from_slice(vector);
        self.link_new(id, vector);
        Ok(())
    }

    /// Links the next node into the graph. Its row, `vector`, must already
    /// be row `nodes.len()` of the store.
    fn link_new(&mut self, id: VectorId, vector: &[f32]) {
        let level = self.random_level();
        let new_index = self.nodes.len() as u32;
        self.nodes.push(Node {
            id,
            neighbors: vec![Vec::new(); level + 1],
        });

        let Some(mut current) = self.entry_point else {
            self.entry_point = Some(new_index);
            self.max_level = level;
            return;
        };

        let mut scratch = SearchScratch::default();
        // Descend through the layers above the new node's level greedily.
        for layer in (level + 1..=self.max_level).rev() {
            loop {
                self.search_layer(vector, current, 1, layer, &mut scratch, None);
                let best = scratch.out[0];
                if best.node == current {
                    break;
                }
                if best.score > self.score(vector, current) {
                    current = best.node;
                } else {
                    break;
                }
            }
        }
        // Connect on every layer from min(level, max_level) down to 0. The
        // chosen neighbours are copied out of the scratch so `link` can take
        // `&mut self` while the next layer reuses the same buffers.
        let mut selected: Vec<u32> = Vec::with_capacity(self.config.m);
        for layer in (0..=level.min(self.max_level)).rev() {
            self.search_layer(
                vector,
                current,
                self.config.ef_construction,
                layer,
                &mut scratch,
                None,
            );
            current = scratch.out.first().map(|s| s.node).unwrap_or(current);
            selected.clear();
            selected.extend(scratch.out.iter().take(self.config.m).map(|s| s.node));
            for &neighbor in &selected {
                self.link(new_index, neighbor, layer);
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry_point = Some(new_index);
        }
    }

    fn random_level(&mut self) -> usize {
        // Geometric distribution with the standard 1/ln(m) normalization.
        let ml = 1.0 / (self.config.m as f64).ln();
        let uniform: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        (-uniform.ln() * ml).floor() as usize
    }

    /// Node `node`'s row.
    fn row(&self, node: u32) -> &[f32] {
        let dim = self.config.dim;
        let start = node as usize * dim;
        &self.rows.as_slice()[start..start + dim]
    }

    fn score(&self, query: &[f32], node: u32) -> f32 {
        dot(query, self.row(node))
    }

    /// Greedy best-first search on one layer, leaving up to `ef` best nodes
    /// (best first) in `scratch.out`. All working state lives in `scratch` so
    /// repeated layer visits of one search reuse the same allocations; work
    /// counters accumulate into `scratch.stats`.
    ///
    /// With a filter the beam is *unfiltered-visit / filtered-accept*: every
    /// scored node may still guide the traversal through the candidate heap
    /// (rejecting them there would disconnect the graph under selective
    /// predicates), but only nodes whose external id passes the filter enter
    /// the `results` beam — so the output is filtered, while connectivity is
    /// not. Recall under a filter is therefore bounded by the beam width, not
    /// exact; highly selective predicates should be answered by the pruned
    /// flat/IVF paths instead.
    fn search_layer(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        scratch: &mut SearchScratch,
        filter: Option<&IdFilter>,
    ) {
        let SearchScratch {
            visited,
            candidates,
            results,
            out,
            stats,
        } = scratch;
        visited.clear();
        candidates.clear();
        results.clear();
        visited.insert(entry);
        let entry_scored = Scored {
            score: self.score(query, entry),
            node: entry,
        };
        stats.vectors_scored += 1;
        candidates.push(entry_scored);
        if filter.map_or(true, |f| f.accepts(self.nodes[entry as usize].id)) {
            results.push(MinScored(entry_scored));
        } else {
            stats.filtered_out += 1;
        }

        while let Some(current) = candidates.pop() {
            let worst = results
                .peek()
                .map(|m| m.0.score)
                .unwrap_or(f32::NEG_INFINITY);
            if current.score < worst && results.len() >= ef {
                break;
            }
            stats.cells_probed += 1;
            let node = &self.nodes[current.node as usize];
            if let Some(links) = node.neighbors.get(layer) {
                for &next in links {
                    if !visited.insert(next) {
                        continue;
                    }
                    let s = Scored {
                        score: self.score(query, next),
                        node: next,
                    };
                    stats.vectors_scored += 1;
                    let worst = results
                        .peek()
                        .map(|m| m.0.score)
                        .unwrap_or(f32::NEG_INFINITY);
                    if results.len() < ef || s.score > worst {
                        candidates.push(s);
                        if filter.map_or(true, |f| f.accepts(self.nodes[next as usize].id)) {
                            results.push(MinScored(s));
                            if results.len() > ef {
                                results.pop();
                            }
                        } else {
                            stats.filtered_out += 1;
                        }
                    }
                }
            }
        }
        out.clear();
        out.extend(results.drain().map(|m| m.0));
        // Unstable sort: `Scored`'s ordering is total (score, then node id),
        // and the beam never holds the same node twice, so no two elements
        // compare equal and stability could not change the result.
        out.sort_unstable_by(|a, b| b.cmp(a));
    }

    fn link(&mut self, a: u32, b: u32, layer: usize) {
        let max_links = if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        };
        for (from, to) in [(a, b), (b, a)] {
            let links = &mut self.nodes[from as usize].neighbors[layer];
            if !links.contains(&to) {
                links.push(to);
            }
            if self.nodes[from as usize].neighbors[layer].len() > max_links {
                // Prune to the closest neighbours of `from`, scoring into the
                // index-level scratch (taken to appease the borrow on nodes).
                let mut scored = std::mem::take(&mut self.prune_scratch);
                scored.clear();
                let from_row = self.row(from);
                scored.extend(
                    self.nodes[from as usize].neighbors[layer]
                        .iter()
                        .map(|&n| (n, dot(from_row, self.row(n)))),
                );
                // Unstable sort: the node-id tie-break makes the comparator a
                // total order over a duplicate-free link list, so no two
                // entries compare equal and stability is irrelevant.
                scored.sort_unstable_by(|x, y| {
                    y.1.partial_cmp(&x.1)
                        .unwrap_or(Ordering::Equal)
                        .then(x.0.cmp(&y.0))
                });
                let links = &mut self.nodes[from as usize].neighbors[layer];
                links.clear();
                links.extend(scored.iter().take(max_links).map(|&(n, _)| n));
                self.prune_scratch = scored;
            }
        }
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Greedy descent: the upper layers are pure navigation and always run
    /// unfiltered; the filter (if any) applies only to the layer-0 beam that
    /// produces the candidate set. The beam is sorted to cut it to `k`, so
    /// the hits happen to come back best-first; callers of
    /// [`VectorIndex::search`] may not rely on that.
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
        let Some(entry) = self.entry_point else {
            return Ok((Vec::new(), SearchStats::default()));
        };
        if k == 0 {
            return Ok((Vec::new(), SearchStats::default()));
        }
        let mut scratch = SearchScratch::default();
        let mut current = entry;
        for layer in (1..=self.max_level).rev() {
            self.search_layer(query, current, 1, layer, &mut scratch, None);
            current = scratch.out[0].node;
        }
        let ef = self.config.ef_search.max(k);
        self.search_layer(query, current, ef, 0, &mut scratch, filter);
        let results: Vec<SearchResult> = scratch
            .out
            .iter()
            .take(k)
            .map(|s| SearchResult {
                id: self.nodes[s.node as usize].id,
                score: s.score,
            })
            .collect();
        let mut stats = scratch.stats;
        stats.exact_rescored = results.len();
        Ok((results, stats))
    }

    fn family(&self) -> &'static str {
        "HNSW"
    }

    /// The graph only: ids and links. The rows are the storage layer's and
    /// are counted there, as for IVF-PQ's rescore arena.
    fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                n.neighbors
                    .iter()
                    .map(|l| l.len() * std::mem::size_of::<u32>())
                    .sum::<usize>()
                    + std::mem::size_of::<VectorId>()
            })
            .sum()
    }

    fn row_store(&self) -> &RowStore {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metric::normalize;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_unit(dim: usize, rng: &mut SmallRng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        normalize(&mut v);
        v
    }

    fn build(n: usize, dim: usize, seed: u64) -> (HnswIndex, FlatIndex, Vec<Vec<f32>>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let vectors: Vec<Vec<f32>> = (0..n).map(|_| random_unit(dim, &mut rng)).collect();
        let mut hnsw = HnswIndex::new(HnswConfig::for_dim(dim)).unwrap();
        let mut flat = FlatIndex::new(dim);
        for (i, v) in vectors.iter().enumerate() {
            hnsw.insert(i as u64, v).unwrap();
            flat.insert(i as u64, v).unwrap();
        }
        (hnsw, flat, vectors)
    }

    #[test]
    fn empty_index_returns_no_results() {
        let idx = HnswIndex::new(HnswConfig::for_dim(8)).unwrap();
        assert!(idx.search(&[0.0; 8], 5, None).unwrap().0.is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn single_element_is_found() {
        let mut idx = HnswIndex::new(HnswConfig::for_dim(4)).unwrap();
        idx.insert(42, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        let hits = idx.search(&[1.0, 0.0, 0.0, 0.0], 3, None).unwrap().0;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn self_queries_hit_themselves() {
        let (hnsw, _, vectors) = build(1_500, 32, 5);
        let mut hit = 0;
        for probe in (0..1_500).step_by(100) {
            let res = hnsw.search(&vectors[probe], 1, None).unwrap().0;
            if res[0].id == probe as u64 {
                hit += 1;
            }
        }
        assert!(hit >= 14, "only {hit}/15 self-queries succeeded");
    }

    #[test]
    fn recall_against_brute_force() {
        let (hnsw, flat, vectors) = build(2_000, 32, 9);
        let mut rng = SmallRng::seed_from_u64(77);
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
            let approx: Vec<u64> = hnsw
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
        assert!(recall > 0.8, "HNSW recall@10 too low: {recall}");
    }

    #[test]
    fn probes_fewer_vectors_than_brute_force() {
        let (hnsw, flat, vectors) = build(4_000, 32, 3);
        let (_, h_stats) = hnsw.search(&vectors[100], 10, None).unwrap();
        let (_, f_stats) = flat.search(&vectors[100], 10, None).unwrap();
        assert!(h_stats.vectors_scored < f_stats.vectors_scored / 2);
    }

    #[test]
    fn larger_ef_search_scores_more_candidates() {
        let mut rng = SmallRng::seed_from_u64(31);
        let vectors: Vec<Vec<f32>> = (0..2_000).map(|_| random_unit(32, &mut rng)).collect();
        let mut small = HnswIndex::new(HnswConfig::for_dim(32).with_ef_search(8)).unwrap();
        let mut large = HnswIndex::new(HnswConfig::for_dim(32).with_ef_search(128)).unwrap();
        for (i, v) in vectors.iter().enumerate() {
            small.insert(i as u64, v).unwrap();
            large.insert(i as u64, v).unwrap();
        }
        let (_, s) = small.search(&vectors[0], 5, None).unwrap();
        let (_, l) = large.search(&vectors[0], 5, None).unwrap();
        assert!(s.vectors_scored < l.vectors_scored);
    }

    #[test]
    fn results_sorted_descending_and_k_respected() {
        let (hnsw, _, vectors) = build(800, 16, 1);
        let hits = hnsw.search(&vectors[3], 7, None).unwrap().0;
        assert_eq!(hits.len(), 7);
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn build_from_rows_links_the_graph_inserts_build() {
        let (inserted, _, vectors) = build(1_000, 16, 21);
        let built = HnswIndex::build_from_rows(
            HnswConfig::for_dim(16),
            (0..vectors.len() as u64).collect(),
            vectors.concat().into(),
        )
        .unwrap();
        assert_eq!(built.memory_bytes(), inserted.memory_bytes());
        for probe in (0..1_000).step_by(50) {
            assert_eq!(
                built.search(&vectors[probe], 10, None).unwrap(),
                inserted.search(&vectors[probe], 10, None).unwrap()
            );
        }
        let ragged =
            HnswIndex::build_from_rows(HnswConfig::for_dim(16), vec![0], vec![0.0; 8].into());
        assert!(ragged.is_err());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut idx = HnswIndex::new(HnswConfig::for_dim(16)).unwrap();
        assert!(idx.insert(0, &[0.0; 8]).is_err());
        idx.insert(0, &[0.1; 16]).unwrap();
        assert!(idx.search(&[0.0; 8], 1, None).is_err());
    }

    #[test]
    fn filtered_beam_accepts_only_matching_nodes() {
        let (hnsw, flat, vectors) = build(2_000, 32, 13);
        let filter = IdFilter::from_ids((0..2_000u64).step_by(2));
        let (hits, stats) = hnsw.search(&vectors[100], 10, Some(&filter)).unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id % 2 == 0));
        assert!(stats.filtered_out > 0);
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // Recall against the exact filtered reference stays reasonable at
        // 50% selectivity.
        let exact: Vec<u64> = flat
            .search(&vectors[100], 10, Some(&filter))
            .unwrap()
            .0
            .iter()
            .map(|r| r.id)
            .collect();
        let overlap = exact
            .iter()
            .filter(|id| hits.iter().any(|h| h.id == **id))
            .count();
        assert!(overlap >= 6, "filtered recall too low: {overlap}/10");

        // An all-pass filter must reproduce the unfiltered search exactly.
        let all = IdFilter::from_ids(0..2_000u64);
        let (filtered, _) = hnsw.search(&vectors[3], 7, Some(&all)).unwrap();
        let (plain, _) = hnsw.search(&vectors[3], 7, None).unwrap();
        assert_eq!(filtered, plain);
    }

    #[test]
    fn config_validation() {
        assert!(HnswConfig::for_dim(0).validate().is_err());
        let mut c = HnswConfig::for_dim(8);
        c.m = 1;
        assert!(c.validate().is_err());
        c = HnswConfig::for_dim(8);
        c.ef_search = 0;
        assert!(c.validate().is_err());
    }
}
