//! Lloyd's k-means (the paper cites Lloyd's iteration for training PQ
//! codebooks, §V-B).
//!
//! The trainer is deterministic given its seed: initialization uses a
//! k-means++-style D² seeding driven by a `SmallRng`, followed by standard
//! assign/update iterations until assignments stop changing or the iteration
//! budget is exhausted. Empty clusters are re-seeded from the point farthest
//! from its centroid so the requested number of centroids is always produced.
//!
//! # The assignment kernel
//!
//! Every nearest-centroid question — Lloyd's assignment step, and the cell
//! and code assignment of [`crate::ivf`] and [`crate::pq`] — goes through
//! `BlockedCentroids::nearest`. The centroids are copied into blocks of
//! eight, each block dimension-major (row `j` holds dimension `j` of the
//! block's eight centroids), so one pass over a point scores eight centroids
//! with every subtraction, square and add working on eight lanes at once;
//! Lloyd rebuilds the copy once per iteration. One kernel serves every shape:
//! there is no fork on `dim` or `k`.
//!
//! The kernel is exact, not approximately equal: each centroid's distance is
//! summed in the order [`squared_l2`] uses — eight accumulators over the full
//! 8-dimension chunks (dimension `8i + l` into accumulator `l`), the fixed
//! pairwise reduction `((a0 + a4) + (a1 + a5)) + ((a2 + a6) + (a3 + a7))`,
//! then the remaining dimensions one by one — so every distance is
//! bit-identical to `squared_l2(point, centroid)`. The argmin then visits
//! centroids in index order with a strict `<`, keeping the first minimum; the
//! padding lanes of the last block are never compared. Centroids,
//! assignments, inertia and iteration counts therefore equal those of the
//! per-centroid form, kept as the `#[cfg(test)]` reference.

// Ingest: the codebook training every seal runs, also on the `QueryService`
// maintenance thread (seal, compaction), where a panic would end maintenance
// for good.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::metric::squared_l2;
use crate::{IndexError, Result};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centroids, `k` rows of `dim` values.
    pub centroids: Vec<Vec<f32>>,
    /// Index of the centroid assigned to each training point.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f32,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

/// Configuration of the trainer.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl KMeansConfig {
    /// Creates a configuration with the default iteration budget (25).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 25,
            seed: 0x5eed,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style iteration budget override.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters.max(1);
        self
    }
}

/// Runs Lloyd's algorithm on `points` (each of dimension `dim`).
///
/// Returns an error when there are no points, the dimension is zero, or `k`
/// is zero. When there are fewer points than clusters, duplicated points seed
/// the surplus centroids (every requested centroid is still produced, which is
/// what the PQ codebook training relies on).
pub fn lloyd(points: &[Vec<f32>], dim: usize, config: &KMeansConfig) -> Result<KMeansResult> {
    if config.k == 0 {
        return Err(IndexError::InvalidConfig("k must be positive".into()));
    }
    if dim == 0 {
        return Err(IndexError::InvalidConfig("dim must be positive".into()));
    }
    if points.is_empty() {
        return Err(IndexError::InvalidState(
            "cannot train k-means on zero points".into(),
        ));
    }
    if let Some(bad) = points.iter().find(|p| p.len() != dim) {
        return Err(IndexError::DimensionMismatch {
            expected: dim,
            actual: bad.len(),
        });
    }

    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut centroids = init_plus_plus(points, config.k, &mut rng);
    let mut assignments = vec![0usize; points.len()];
    let mut blocked = BlockedCentroids::default();
    let mut iterations = 0;

    for iter in 0..config.max_iterations {
        iterations = iter + 1;
        // Assignment step.
        blocked.refill(&centroids);
        let mut changed = false;
        for (p, assigned) in points.iter().zip(assignments.iter_mut()) {
            let best = blocked.nearest(p);
            if *assigned != best {
                *assigned = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums = vec![vec![0.0f32; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (p, &a) in points.iter().zip(assignments.iter()) {
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(p.iter()) {
                *s += v;
            }
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(counts.iter())) {
            if count > 0 {
                for (cv, sv) in c.iter_mut().zip(sum.iter()) {
                    *cv = sv / count as f32;
                }
            }
        }
        // Re-seed empty clusters from the worst-fit point.
        for cluster in 0..centroids.len() {
            if counts[cluster] == 0 {
                if let Some((worst_idx, _)) = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, squared_l2(p, &centroids[assignments[i]])))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                {
                    centroids[cluster] = points[worst_idx].clone();
                    changed = true;
                }
            }
        }
        if !changed && iter > 0 {
            break;
        }
    }

    let inertia = points
        .iter()
        .zip(assignments.iter())
        .map(|(p, &a)| squared_l2(p, &centroids[a]))
        .sum();

    Ok(KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    })
}

/// Centroids scored per kernel pass (the lanes of one block).
const BLOCK: usize = 8;

/// Centroids in the assignment kernel's layout (see the module docs): blocks
/// of eight centroids, each `dim` rows of eight values, row `j` holding
/// dimension `j` of the block's centroids. The last block is zero-padded.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct BlockedCentroids {
    dim: usize,
    len: usize,
    blocks: Vec<f32>,
}

impl BlockedCentroids {
    /// Lays out `centroids` (all of one length) for [`Self::nearest`].
    pub(crate) fn new(centroids: &[Vec<f32>]) -> Self {
        let mut blocked = Self::default();
        blocked.refill(centroids);
        blocked
    }

    /// Re-lays out `centroids`, reusing the buffer.
    fn refill(&mut self, centroids: &[Vec<f32>]) {
        self.dim = centroids.first().map_or(0, Vec::len);
        self.len = centroids.len();
        self.blocks.clear();
        self.blocks
            .resize(self.len.div_ceil(BLOCK) * BLOCK * self.dim, 0.0);
        if self.dim == 0 {
            return;
        }
        for (block, group) in self
            .blocks
            .chunks_exact_mut(BLOCK * self.dim)
            .zip(centroids.chunks(BLOCK))
        {
            for (lane, centroid) in group.iter().enumerate() {
                for (row, &v) in block.chunks_exact_mut(BLOCK).zip(centroid) {
                    if let Some(slot) = row.get_mut(lane) {
                        *slot = v;
                    }
                }
            }
        }
    }

    /// Index of the centroid nearest (in squared L2) to `point`: the first
    /// one at the minimum distance, 0 when no distance is below infinity.
    /// `point` must have the centroids' length.
    pub(crate) fn nearest(&self, point: &[f32]) -> usize {
        debug_assert_eq!(point.len(), self.dim);
        if self.dim == 0 {
            return 0;
        }
        let mut best = 0;
        let mut best_dist = f32::INFINITY;
        for (b, block) in self.blocks.chunks_exact(BLOCK * self.dim).enumerate() {
            // The padding lanes of the last block are never compared.
            let live = self.len - b * BLOCK;
            for (lane, &d) in block_distances(point, block).iter().enumerate().take(live) {
                if d < best_dist {
                    best_dist = d;
                    best = b * BLOCK + lane;
                }
            }
        }
        best
    }
}

/// Squared L2 distances from `point` to the eight centroids of one
/// dimension-major block, each summed in [`squared_l2`]'s order.
#[inline]
fn block_distances(point: &[f32], block: &[f32]) -> [f32; BLOCK] {
    // lanes[l][c]: centroid c's accumulator for dimensions 8i + l.
    let mut lanes = [[0.0f32; BLOCK]; 8];
    let chunks = point.chunks_exact(8);
    let rest = chunks.remainder();
    let mut rows = block.chunks_exact(BLOCK);
    for chunk in chunks {
        for (lane, (&p, row)) in lanes.iter_mut().zip(chunk.iter().zip(rows.by_ref())) {
            for (acc, &c) in lane.iter_mut().zip(row) {
                let d = p - c;
                *acc += d * d;
            }
        }
    }
    let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes;
    let mut dist = [0.0f32; BLOCK];
    for (c, out) in dist.iter_mut().enumerate() {
        *out = ((l0[c] + l4[c]) + (l1[c] + l5[c])) + ((l2[c] + l6[c]) + (l3[c] + l7[c]));
    }
    for (&p, row) in rest.iter().zip(rows) {
        for (acc, &c) in dist.iter_mut().zip(row) {
            let d = p - c;
            *acc += d * d;
        }
    }
    dist
}

/// k-means++ D² seeding.
fn init_plus_plus(points: &[Vec<f32>], k: usize, rng: &mut SmallRng) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut dists: Vec<f32> = points
        .iter()
        .map(|p| squared_l2(p, &centroids[0]))
        .collect();
    while centroids.len() < k {
        let total: f32 = dists.iter().sum();
        let next = if total <= f32::EPSILON {
            // All points coincide with existing centroids; duplicate one.
            points[rng.gen_range(0..points.len())].clone()
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            points[chosen].clone()
        };
        for (d, p) in dists.iter_mut().zip(points.iter()) {
            *d = d.min(squared_l2(p, &next));
        }
        centroids.push(next);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_blobs(n: usize) -> Vec<Vec<f32>> {
        // Two well-separated clusters around (0,0) and (10,10).
        (0..n)
            .map(|i| {
                let offset = if i % 2 == 0 { 0.0 } else { 10.0 };
                let jitter = (i as f32 * 0.37).sin() * 0.3;
                vec![offset + jitter, offset - jitter]
            })
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let points = two_blobs(200);
        let result = lloyd(&points, 2, &KMeansConfig::new(2)).unwrap();
        assert_eq!(result.centroids.len(), 2);
        let mut centers: Vec<f32> = result.centroids.iter().map(|c| c[0]).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(centers[0].abs() < 1.0, "low centroid at {}", centers[0]);
        assert!(
            (centers[1] - 10.0).abs() < 1.0,
            "high centroid at {}",
            centers[1]
        );
        // Points alternate between blobs, so assignments must alternate too.
        assert_ne!(result.assignments[0], result.assignments[1]);
        assert_eq!(result.assignments[0], result.assignments[2]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let points = two_blobs(64);
        let a = lloyd(&points, 2, &KMeansConfig::new(4).with_seed(5)).unwrap();
        let b = lloyd(&points, 2, &KMeansConfig::new(4).with_seed(5)).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn produces_requested_k_even_with_few_points() {
        let points = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let result = lloyd(&points, 2, &KMeansConfig::new(5)).unwrap();
        assert_eq!(result.centroids.len(), 5);
    }

    #[test]
    fn rejects_bad_inputs() {
        let points = vec![vec![1.0, 2.0]];
        assert!(lloyd(&points, 2, &KMeansConfig::new(0)).is_err());
        assert!(lloyd(&[], 2, &KMeansConfig::new(2)).is_err());
        assert!(lloyd(&points, 0, &KMeansConfig::new(2)).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(lloyd(&ragged, 2, &KMeansConfig::new(2)).is_err());
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let points = two_blobs(100);
        let one = lloyd(&points, 2, &KMeansConfig::new(1)).unwrap();
        let four = lloyd(&points, 2, &KMeansConfig::new(4)).unwrap();
        assert!(four.inertia <= one.inertia);
    }

    #[test]
    fn identical_points_do_not_panic() {
        let points = vec![vec![3.0, 3.0]; 20];
        let result = lloyd(&points, 2, &KMeansConfig::new(4)).unwrap();
        assert_eq!(result.centroids.len(), 4);
        assert!(result.inertia < 1e-6);
    }

    #[test]
    fn nearest_centroid_picks_closest() {
        let centroids = BlockedCentroids::new(&[vec![0.0, 0.0], vec![5.0, 5.0]]);
        assert_eq!(centroids.nearest(&[1.0, 1.0]), 0);
        assert_eq!(centroids.nearest(&[4.0, 6.0]), 1);
    }

    #[test]
    fn nearest_keeps_the_first_of_equal_distances_across_blocks() {
        // Centroid 3 and centroid 11 (second block) are the same point.
        let mut centroids: Vec<Vec<f32>> = (0..13).map(|i| vec![i as f32 * 10.0; 3]).collect();
        centroids[11] = centroids[3].clone();
        let blocked = BlockedCentroids::new(&centroids);
        assert_eq!(blocked.nearest(&[30.0; 3]), 3);
        assert_eq!(blocked.nearest(&[120.0; 3]), 12);
        // Nothing below infinity: index 0, as the per-centroid loop did.
        assert_eq!(blocked.nearest(&[f32::NAN; 3]), 0);
        assert_eq!(BlockedCentroids::new(&[]).nearest(&[]), 0);
    }

    /// The per-centroid nearest-centroid loop the blocked kernel replaced.
    fn reference_nearest(point: &[f32], centroids: &[Vec<f32>]) -> usize {
        let mut best = 0;
        let mut best_dist = f32::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = squared_l2(point, c);
            if d < best_dist {
                best_dist = d;
                best = i;
            }
        }
        best
    }

    /// Lloyd's iteration as it was before the blocked assignment step (input
    /// validation aside): the reference `lloyd` must equal bit for bit.
    fn reference_lloyd(points: &[Vec<f32>], dim: usize, config: &KMeansConfig) -> KMeansResult {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut centroids = init_plus_plus(points, config.k, &mut rng);
        let mut assignments = vec![0usize; points.len()];
        let mut iterations = 0;
        for iter in 0..config.max_iterations {
            iterations = iter + 1;
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let best = reference_nearest(p, &centroids);
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            let mut sums = vec![vec![0.0f32; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (p, &a) in points.iter().zip(assignments.iter()) {
                counts[a] += 1;
                for (s, v) in sums[a].iter_mut().zip(p.iter()) {
                    *s += v;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(counts.iter())) {
                if count > 0 {
                    for (cv, sv) in c.iter_mut().zip(sum.iter()) {
                        *cv = sv / count as f32;
                    }
                }
            }
            for cluster in 0..centroids.len() {
                if counts[cluster] == 0 {
                    if let Some((worst_idx, _)) = points
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (i, squared_l2(p, &centroids[assignments[i]])))
                        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    {
                        centroids[cluster] = points[worst_idx].clone();
                        changed = true;
                    }
                }
            }
            if !changed && iter > 0 {
                break;
            }
        }
        let inertia = points
            .iter()
            .zip(assignments.iter())
            .map(|(p, &a)| squared_l2(p, &centroids[a]))
            .sum();
        KMeansResult {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    /// Generated training points: a small integer grid (duplicates and exact
    /// distance ties), a handful of distinct points repeated (many empty
    /// clusters to re-seed), or continuous values.
    fn generated_points(rng: &mut SmallRng, n: usize, dim: usize) -> Vec<Vec<f32>> {
        let distinct: Vec<Vec<f32>> = (0..rng.gen_range(1..5usize))
            .map(|_| (0..dim).map(|_| rng.gen_range(-4.0..4.0f32)).collect())
            .collect();
        let mode = rng.gen_range(0..3u8);
        (0..n)
            .map(|_| match mode {
                0 => (0..dim).map(|_| rng.gen_range(-3..4i32) as f32).collect(),
                1 => distinct[rng.gen_range(0..distinct.len())].clone(),
                _ => (0..dim).map(|_| rng.gen_range(-10.0..10.0f32)).collect(),
            })
            .collect()
    }

    fn bits(v: &[Vec<f32>]) -> Vec<Vec<u32>> {
        v.iter()
            .map(|c| c.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn lloyd_equals_the_per_centroid_reference(
            seed in 0u64..u64::MAX,
            dim in 1usize..41,
            k in 1usize..71,
            wide_n in 1usize..601,
            fewer_points_than_clusters in any::<bool>(),
            budget in 1usize..30,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = if fewer_points_than_clusters { 1 + wide_n % k } else { wide_n };
            let points = generated_points(&mut rng, n, dim);
            let config = KMeansConfig::new(k)
                .with_seed(seed)
                .with_max_iterations(budget);
            let got = lloyd(&points, dim, &config).unwrap();
            let want = reference_lloyd(&points, dim, &config);
            prop_assert_eq!(bits(&got.centroids), bits(&want.centroids), "seed {}", seed);
            prop_assert_eq!(&got.assignments, &want.assignments);
            prop_assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
            prop_assert_eq!(got.iterations, want.iterations);
        }

        #[test]
        fn nearest_equals_the_per_centroid_loop(
            seed in 0u64..u64::MAX,
            dim in 1usize..41,
            k in 1usize..71,
        ) {
            // Includes the values a distance can go wrong on: ±0, ±∞, NaN.
            let mut rng = SmallRng::seed_from_u64(seed);
            let value = |rng: &mut SmallRng| match rng.gen_range(0..24u8) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                4..=11 => rng.gen_range(-2..3i32) as f32,
                _ => rng.gen_range(-5.0..5.0f32),
            };
            let centroids: Vec<Vec<f32>> =
                (0..k).map(|_| (0..dim).map(|_| value(&mut rng)).collect()).collect();
            let blocked = BlockedCentroids::new(&centroids);
            for _ in 0..16 {
                let point: Vec<f32> = (0..dim).map(|_| value(&mut rng)).collect();
                prop_assert_eq!(
                    blocked.nearest(&point),
                    reference_nearest(&point, &centroids),
                    "seed {}", seed
                );
                // Every distance, not just the winner, is squared_l2's. A NaN
                // is compared as "a NaN": which operand's sign and payload an
                // add propagates is the instruction's choice, and no NaN is
                // ever the minimum.
                let bits = |d: f32| if d.is_nan() { f32::NAN.to_bits() } else { d.to_bits() };
                let kernel: Vec<u32> = blocked
                    .blocks
                    .chunks_exact(BLOCK * dim)
                    .flat_map(|block| block_distances(&point, block))
                    .take(k)
                    .map(bits)
                    .collect();
                let direct: Vec<u32> =
                    centroids.iter().map(|c| bits(squared_l2(&point, c))).collect();
                prop_assert_eq!(kernel, direct, "seed {}", seed);
            }
        }
    }
}
