//! Numeric operations shared by the encoders: activations, normalization,
//! similarity metrics, and small vector helpers.
//!
//! The similarity functions here mirror §V-A of the paper: all embeddings are
//! L2-normalized so the dot product equals cosine similarity, and Euclidean
//! distance relates to similarity by `d = sqrt(2 - 2 * sim)`.

use crate::Matrix;

/// Numerically stable softmax over a slice, in place.
///
/// Subtracts the maximum before exponentiating so large logits do not overflow.
/// An empty slice is left untouched.
pub fn softmax_inplace(values: &mut [f32]) {
    if values.is_empty() {
        return;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in values.iter_mut() {
            *v /= sum;
        }
    } else {
        // All inputs were -inf; fall back to a uniform distribution.
        let uniform = 1.0 / values.len() as f32;
        for v in values.iter_mut() {
            *v = uniform;
        }
    }
}

/// Softmax applied independently to every row of a matrix.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for row in m.as_mut_slice().chunks_exact_mut(cols) {
        softmax_inplace(row);
    }
}

/// Gaussian Error Linear Unit, the activation used inside transformer MLPs.
///
/// Uses the tanh approximation which is accurate to ~1e-3 and branch-free.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// L2 norm of a vector.
#[inline]
pub fn l2_norm(v: &[f32]) -> f32 {
    v.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Normalizes a vector to unit L2 norm in place.
///
/// A zero vector is left unchanged (there is no direction to preserve).
pub fn l2_normalize(v: &mut [f32]) {
    let norm = l2_norm(v);
    if norm > f32::EPSILON {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Dot product of two equal-length vectors.
///
/// Panics in debug builds if lengths differ; in release the shorter length wins,
/// matching `zip` semantics. Callers in this workspace always pass embeddings
/// of the configured dimension.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Cosine similarity between two vectors (0.0 if either is a zero vector).
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Squared Euclidean distance between two vectors.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "squared_euclidean: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two vectors.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    squared_euclidean(a, b).sqrt()
}

/// Converts a cosine similarity between unit vectors into the Euclidean
/// distance between them: `d = sqrt(2 - 2 s)` (§V-A).
#[inline]
pub fn similarity_to_distance(sim: f32) -> f32 {
    (2.0 - 2.0 * sim).max(0.0).sqrt()
}

/// Converts a Euclidean distance between unit vectors into cosine similarity.
#[inline]
pub fn distance_to_similarity(dist: f32) -> f32 {
    1.0 - 0.5 * dist * dist
}

/// Mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Population variance of a slice (0.0 for an empty slice).
pub fn variance(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32
}

/// Returns the indices of the `k` largest values in descending order.
///
/// Ties are broken by the lower index to keep results deterministic.
pub fn top_k_indices(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let mut v = vec![1000.0, 1000.0, 1000.0];
        softmax_inplace(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn softmax_orders_preserved() {
        let mut v = vec![1.0, 3.0, 2.0];
        softmax_inplace(&mut v);
        assert!(v[1] > v[2] && v[2] > v[0]);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut v: Vec<f32> = vec![];
        softmax_inplace(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn softmax_rows_normalizes_each_row() {
        let mut m = Matrix::from_vec(2, 3, vec![0.0, 1.0, 2.0, 5.0, 5.0, 5.0]).unwrap();
        softmax_rows(&mut m);
        for r in 0..2 {
            assert!((m.row(r).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn l2_normalize_gives_unit_norm() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_zero_vector_untouched() {
        let mut v = vec![0.0, 0.0];
        l2_normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similarity_distance_roundtrip_for_unit_vectors() {
        for &s in &[1.0f32, 0.5, 0.0, -0.5, -1.0] {
            let d = similarity_to_distance(s);
            assert!((distance_to_similarity(d) - s).abs() < 1e-5);
        }
    }

    #[test]
    fn dot_and_euclidean_consistent_with_unit_vectors() {
        let mut a = vec![0.3, -0.8, 0.5];
        let mut b = vec![-0.1, 0.9, 0.4];
        l2_normalize(&mut a);
        l2_normalize(&mut b);
        let sim = dot(&a, &b);
        let dist = euclidean(&a, &b);
        assert!((similarity_to_distance(sim) - dist).abs() < 1e-5);
    }

    #[test]
    fn top_k_indices_descending_with_tie_break() {
        let v = vec![0.1, 0.9, 0.9, 0.2];
        assert_eq!(top_k_indices(&v, 3), vec![1, 2, 3]);
        assert_eq!(top_k_indices(&v, 10).len(), 4);
    }

    #[test]
    fn mean_and_variance() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert!((mean(&v) - 2.5).abs() < 1e-6);
        assert!((variance(&v) - 1.25).abs() < 1e-6);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }
}
