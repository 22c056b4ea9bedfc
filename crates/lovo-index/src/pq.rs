//! Product quantization (§V-B).
//!
//! A `D'`-dimensional embedding is split into `P` subspaces of `m = D'/P`
//! dimensions; each subspace has its own codebook of `M` centroids trained by
//! Lloyd's iteration. A vector is stored as `P` one-byte codes (its nearest
//! centroid per subspace). Query scoring uses asymmetric distance computation
//! (ADC): the query's inner product with every centroid of every subspace is
//! tabulated once, after which scoring any stored code is `P` table lookups —
//! this is the "distance lookup-table" Algorithm 1 references.

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
use crate::{IndexError, Result};
use serde::{Deserialize, Serialize};

/// Configuration of the product quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PqConfig {
    /// Total vector dimensionality `D'`.
    pub dim: usize,
    /// Number of subspaces `P` (`dim` must be divisible by it).
    pub num_subspaces: usize,
    /// Number of centroids per subspace codebook `M` (≤ 256 so codes fit a byte).
    pub centroids_per_subspace: usize,
    /// Seed used for codebook training.
    pub seed: u64,
}

impl PqConfig {
    /// A sensible default: 8 subspaces, 64 centroids each, adjusted down for
    /// very small dimensions.
    pub fn for_dim(dim: usize) -> Self {
        let num_subspaces = if dim % 8 == 0 {
            8
        } else if dim % 4 == 0 {
            4
        } else {
            1
        };
        Self {
            dim,
            num_subspaces,
            centroids_per_subspace: 64,
            seed: 0x90a7,
        }
    }

    /// Dimension of each subspace.
    pub fn subspace_dim(&self) -> usize {
        self.dim / self.num_subspaces.max(1)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.dim == 0 || self.num_subspaces == 0 {
            return Err(IndexError::InvalidConfig(
                "PQ dim and num_subspaces must be positive".into(),
            ));
        }
        if self.dim % self.num_subspaces != 0 {
            return Err(IndexError::InvalidConfig(format!(
                "PQ dim {} not divisible by num_subspaces {}",
                self.dim, self.num_subspaces
            )));
        }
        if self.centroids_per_subspace == 0 || self.centroids_per_subspace > 256 {
            return Err(IndexError::InvalidConfig(
                "PQ centroids_per_subspace must be in 1..=256".into(),
            ));
        }
        Ok(())
    }
}

/// A quantized vector: one centroid code per subspace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PqCode(pub Vec<u8>);

impl PqCode {
    /// Number of subspace codes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the code is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A trained product quantizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProductQuantizer {
    config: PqConfig,
    /// `codebooks[p][m]` is the `m`-th centroid of subspace `p` (length `subspace_dim`).
    codebooks: Vec<Vec<Vec<f32>>>,
    /// The same codebooks in the assignment kernel's layout, laid out once
    /// at training for [`ProductQuantizer::encode`].
    blocked: Vec<BlockedCentroids>,
}

/// ADC lookup table for one query, stored as one contiguous strided buffer:
/// `table[p * M + m]` is the inner product of the query's `p`-th sub-vector
/// with centroid `m` of subspace `p` (`M` = centroids per subspace).
///
/// The flat layout replaces the earlier `Vec<Vec<f32>>`: the whole table for
/// the default configuration (8 × 64 entries) is 2 KiB of consecutive memory,
/// so an ADC scan over a code list never chases an outer-vec pointer.
#[derive(Debug, Clone)]
pub struct AdcTable {
    table: Vec<f32>,
    centroids_per_subspace: usize,
}

impl AdcTable {
    /// Approximate inner product between the tabulated query and a stored code.
    #[inline]
    pub fn score(&self, code: &PqCode) -> f32 {
        self.score_codes(&code.0)
    }

    /// Approximate inner product for one code stored as a raw byte slice
    /// (one byte per subspace), as kept in contiguous inverted-list storage.
    #[inline]
    pub fn score_codes(&self, codes: &[u8]) -> f32 {
        let mut base = 0usize;
        let mut acc = 0.0f32;
        for &c in codes {
            acc += self.table[base + c as usize];
            base += self.centroids_per_subspace;
        }
        acc
    }

    /// Scores a whole inverted list stored as one contiguous code buffer
    /// (`codes.len() / stride` entries of `stride` bytes each), appending one
    /// approximate score per entry to `out`. This is the bulk ADC kernel: the
    /// table stays resident in L1 while the code bytes stream sequentially,
    /// and four entries are scored per pass so their independent accumulator
    /// chains overlap — one entry alone is latency-bound on its serial float
    /// adds. Each entry still accumulates left-to-right across subspaces, so
    /// scores are bit-identical to [`AdcTable::score_codes`].
    pub fn score_list(&self, codes: &[u8], stride: usize, out: &mut Vec<f32>) {
        debug_assert!(stride > 0);
        debug_assert_eq!(codes.len() % stride, 0);
        out.reserve(codes.len() / stride);
        let mut quads = codes.chunks_exact(stride * 4);
        for quad in &mut quads {
            let (c0, rest) = quad.split_at(stride);
            let (c1, rest) = rest.split_at(stride);
            let (c2, c3) = rest.split_at(stride);
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let mut base = 0usize;
            for i in 0..stride {
                s0 += self.table[base + c0[i] as usize];
                s1 += self.table[base + c1[i] as usize];
                s2 += self.table[base + c2[i] as usize];
                s3 += self.table[base + c3[i] as usize];
                base += self.centroids_per_subspace;
            }
            out.extend_from_slice(&[s0, s1, s2, s3]);
        }
        for entry in quads.remainder().chunks_exact(stride) {
            out.push(self.score_codes(entry));
        }
    }

    /// Per-subspace partial score (used by the inverted multi-index search).
    #[inline]
    pub fn subspace_score(&self, subspace: usize, code: u8) -> f32 {
        self.table[subspace * self.centroids_per_subspace + code as usize]
    }
}

impl ProductQuantizer {
    /// Trains the quantizer on the given sample of vectors.
    ///
    /// Training requires at least one vector; if the sample is smaller than
    /// the number of centroids, duplicated points pad the codebooks (the
    /// k-means trainer guarantees the requested codebook size).
    pub fn train(config: PqConfig, sample: &[Vec<f32>]) -> Result<Self> {
        config.validate()?;
        if sample.is_empty() {
            return Err(IndexError::InvalidState(
                "cannot train PQ on an empty sample".into(),
            ));
        }
        let sub_dim = config.subspace_dim();
        let mut codebooks = Vec::with_capacity(config.num_subspaces);
        for p in 0..config.num_subspaces {
            let sub_points: Vec<Vec<f32>> = sample
                .iter()
                .map(|v| {
                    if v.len() != config.dim {
                        Err(IndexError::DimensionMismatch {
                            expected: config.dim,
                            actual: v.len(),
                        })
                    } else {
                        Ok(v[p * sub_dim..(p + 1) * sub_dim].to_vec())
                    }
                })
                .collect::<Result<_>>()?;
            let km = lloyd(
                &sub_points,
                sub_dim,
                &KMeansConfig::new(config.centroids_per_subspace)
                    .with_seed(config.seed ^ (p as u64).wrapping_mul(0x9e37_79b9)),
            )?;
            codebooks.push(km.centroids);
        }
        let blocked = codebooks.iter().map(|c| BlockedCentroids::new(c)).collect();
        Ok(Self {
            config,
            codebooks,
            blocked,
        })
    }

    /// The configuration the quantizer was trained with.
    pub fn config(&self) -> &PqConfig {
        &self.config
    }

    /// Encodes a vector into its per-subspace centroid codes.
    pub fn encode(&self, vector: &[f32]) -> Result<PqCode> {
        if vector.len() != self.config.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dim,
                actual: vector.len(),
            });
        }
        let sub_dim = self.config.subspace_dim();
        let codes = vector
            .chunks_exact(sub_dim)
            .zip(&self.blocked)
            .map(|(sub, codebook)| codebook.nearest(sub) as u8)
            .collect();
        Ok(PqCode(codes))
    }

    /// Reconstructs the approximate vector represented by a code.
    pub fn decode(&self, code: &PqCode) -> Result<Vec<f32>> {
        if code.len() != self.config.num_subspaces {
            return Err(IndexError::InvalidState(format!(
                "code has {} subspaces, quantizer has {}",
                code.len(),
                self.config.num_subspaces
            )));
        }
        let mut out = Vec::with_capacity(self.config.dim);
        for (p, &c) in code.0.iter().enumerate() {
            let centroid = self
                .codebooks
                .get(p)
                .and_then(|cb| cb.get(c as usize))
                .ok_or_else(|| {
                    IndexError::InvalidState("code references missing centroid".into())
                })?;
            out.extend_from_slice(centroid);
        }
        Ok(out)
    }

    /// Builds the ADC inner-product lookup table for a query vector.
    pub fn adc_table(&self, query: &[f32]) -> Result<AdcTable> {
        if query.len() != self.config.dim {
            return Err(IndexError::DimensionMismatch {
                expected: self.config.dim,
                actual: query.len(),
            });
        }
        let sub_dim = self.config.subspace_dim();
        let centroids = self.config.centroids_per_subspace;
        let mut table = Vec::with_capacity(self.config.num_subspaces * centroids);
        for (p, codebook) in self.codebooks.iter().enumerate() {
            let q_sub = &query[p * sub_dim..(p + 1) * sub_dim];
            table.extend(codebook.iter().map(|c| dot(q_sub, c)));
            // Lloyd's trainer guarantees `centroids` rows per codebook, so the
            // stride of the flat layout is uniform.
            debug_assert_eq!(table.len(), (p + 1) * centroids);
        }
        Ok(AdcTable {
            table,
            centroids_per_subspace: centroids,
        })
    }

    /// Mean squared reconstruction error over a sample (a quality diagnostic
    /// used by tests and the micro benchmarks).
    pub fn reconstruction_error(&self, sample: &[Vec<f32>]) -> Result<f32> {
        if sample.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0f32;
        for v in sample {
            let decoded = self.decode(&self.encode(v)?)?;
            total += crate::metric::squared_l2(v, &decoded);
        }
        Ok(total / sample.len() as f32)
    }

    /// Bytes needed to store one encoded vector.
    pub fn code_bytes(&self) -> usize {
        self.config.num_subspaces
    }

    /// The codebooks, `codebooks()[p][m]` being centroid `m` of subspace `p`.
    #[cfg(test)]
    pub(crate) fn codebooks(&self) -> &[Vec<Vec<f32>>] {
        &self.codebooks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_unit_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                crate::metric::normalize(&mut v);
                v
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(PqConfig {
            dim: 64,
            num_subspaces: 8,
            centroids_per_subspace: 16,
            seed: 1
        }
        .validate()
        .is_ok());
        assert!(PqConfig {
            dim: 10,
            num_subspaces: 3,
            centroids_per_subspace: 16,
            seed: 1
        }
        .validate()
        .is_err());
        assert!(PqConfig {
            dim: 8,
            num_subspaces: 2,
            centroids_per_subspace: 300,
            seed: 1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn encode_decode_reduces_but_preserves_direction() {
        let dim = 32;
        let sample = random_unit_vectors(500, dim, 7);
        let pq = ProductQuantizer::train(
            PqConfig {
                dim,
                num_subspaces: 8,
                centroids_per_subspace: 32,
                seed: 3,
            },
            &sample,
        )
        .unwrap();
        let err = pq.reconstruction_error(&sample).unwrap();
        assert!(err < 0.5, "reconstruction error too high: {err}");
        // A decoded vector should be much closer to the original than to an
        // unrelated vector.
        let decoded = pq.decode(&pq.encode(&sample[0]).unwrap()).unwrap();
        let self_sim = dot(&sample[0], &decoded);
        let other_sim = dot(&sample[250], &decoded);
        assert!(self_sim > other_sim);
    }

    #[test]
    fn adc_score_approximates_exact_inner_product() {
        let dim = 32;
        let sample = random_unit_vectors(800, dim, 11);
        let pq = ProductQuantizer::train(
            PqConfig {
                dim,
                num_subspaces: 8,
                centroids_per_subspace: 64,
                seed: 5,
            },
            &sample,
        )
        .unwrap();
        let query = &sample[13];
        let table = pq.adc_table(query).unwrap();
        let mut total_abs_err = 0.0f32;
        for v in sample.iter().take(100) {
            let code = pq.encode(v).unwrap();
            let approx = table.score(&code);
            let exact = dot(query, v);
            total_abs_err += (approx - exact).abs();
        }
        let mean_err = total_abs_err / 100.0;
        assert!(mean_err < 0.15, "mean ADC error too high: {mean_err}");
    }

    #[test]
    fn adc_preserves_ranking_of_clear_winners() {
        let dim = 16;
        // Construct clusters along axes so the nearest neighbour is unambiguous.
        let mut sample = Vec::new();
        for axis in 0..4 {
            for i in 0..50 {
                let mut v = vec![0.02 * (i as f32 % 5.0); dim];
                v[axis * 4] = 1.0;
                crate::metric::normalize(&mut v);
                sample.push(v);
            }
        }
        let pq = ProductQuantizer::train(
            PqConfig {
                dim,
                num_subspaces: 4,
                centroids_per_subspace: 16,
                seed: 2,
            },
            &sample,
        )
        .unwrap();
        let mut query = vec![0.0; dim];
        query[0] = 1.0;
        let table = pq.adc_table(&query).unwrap();
        // Vectors in the first cluster must outrank vectors in other clusters.
        let first = table.score(&pq.encode(&sample[0]).unwrap());
        let other = table.score(&pq.encode(&sample[150]).unwrap());
        assert!(first > other);
    }

    #[test]
    fn code_size_matches_subspaces() {
        let sample = random_unit_vectors(50, 24, 1);
        let pq = ProductQuantizer::train(
            PqConfig {
                dim: 24,
                num_subspaces: 4,
                centroids_per_subspace: 8,
                seed: 1,
            },
            &sample,
        )
        .unwrap();
        let code = pq.encode(&sample[0]).unwrap();
        assert_eq!(code.len(), 4);
        assert_eq!(pq.code_bytes(), 4);
        assert!(!code.is_empty());
    }

    #[test]
    fn dimension_errors_are_reported() {
        let sample = random_unit_vectors(50, 16, 1);
        let pq = ProductQuantizer::train(PqConfig::for_dim(16), &sample).unwrap();
        assert!(pq.encode(&[0.0; 8]).is_err());
        assert!(pq.adc_table(&[0.0; 8]).is_err());
        assert!(pq.decode(&PqCode(vec![0u8; 3])).is_err());
    }

    #[test]
    fn training_on_empty_sample_fails() {
        assert!(ProductQuantizer::train(PqConfig::for_dim(16), &[]).is_err());
    }

    #[test]
    fn for_dim_produces_valid_configs() {
        for dim in [16usize, 24, 32, 64, 96, 128, 7] {
            let cfg = PqConfig::for_dim(dim);
            assert!(
                cfg.validate().is_ok(),
                "invalid default config for dim {dim}"
            );
        }
    }
}
