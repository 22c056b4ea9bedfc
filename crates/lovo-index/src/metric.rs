//! Similarity metrics (§V-A).
//!
//! LOVO normalizes every embedding to unit L2 norm so that the inner product
//! equals cosine similarity and relates to Euclidean distance by
//! `d = sqrt(2 - 2 s)`. The index implementations score with the inner
//! product (higher = better); the k-means trainer works in distance space.

/// Inner product of two equal-length vectors.
///
/// Unrolled 8-wide with one accumulator per lane: a single running sum chains
/// every add on the previous one, so the loop runs at add-latency speed; eight
/// independent lanes let LLVM keep the whole accumulator in one SIMD register
/// and issue fused multiply-adds back to back. The lane-reduction order is
/// fixed, so results are deterministic for a given input length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let a_chunks = a.chunks_exact(8);
    let b_chunks = b.chunks_exact(8);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        lanes[0] += ca[0] * cb[0];
        lanes[1] += ca[1] * cb[1];
        lanes[2] += ca[2] * cb[2];
        lanes[3] += ca[3] * cb[3];
        lanes[4] += ca[4] * cb[4];
        lanes[5] += ca[5] * cb[5];
        lanes[6] += ca[6] * cb[6];
        lanes[7] += ca[7] * cb[7];
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for (x, y) in a_rem.iter().zip(b_rem) {
        acc += x * y;
    }
    acc
}

/// Scores a contiguous row-major block of `rows.len() / dim` vectors against
/// `query`, appending one inner product per row to `out`.
///
/// This is the bulk kernel behind every flat scan and exact re-score: rows
/// stream through the cache line-by-line with no per-vector pointer chase, and
/// the inlined 8-wide [`dot`] keeps the multiply units busy.
pub fn dot_batch(query: &[f32], rows: &[f32], dim: usize, out: &mut Vec<f32>) {
    debug_assert!(dim > 0);
    debug_assert_eq!(rows.len() % dim, 0);
    debug_assert_eq!(query.len(), dim);
    out.reserve(rows.len() / dim);
    for row in rows.chunks_exact(dim) {
        out.push(dot(query, row));
    }
}

/// Squared Euclidean distance of two equal-length vectors.
///
/// Same 8-lane accumulator scheme as [`dot`]; see there for why the single
/// running sum it replaces could not autovectorize.
#[inline]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let a_chunks = a.chunks_exact(8);
    let b_chunks = b.chunks_exact(8);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    for (ca, cb) in a_chunks.zip(b_chunks) {
        let d0 = ca[0] - cb[0];
        let d1 = ca[1] - cb[1];
        let d2 = ca[2] - cb[2];
        let d3 = ca[3] - cb[3];
        let d4 = ca[4] - cb[4];
        let d5 = ca[5] - cb[5];
        let d6 = ca[6] - cb[6];
        let d7 = ca[7] - cb[7];
        lanes[0] += d0 * d0;
        lanes[1] += d1 * d1;
        lanes[2] += d2 * d2;
        lanes[3] += d3 * d3;
        lanes[4] += d4 * d4;
        lanes[5] += d5 * d5;
        lanes[6] += d6 * d6;
        lanes[7] += d7 * d7;
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    for (x, y) in a_rem.iter().zip(b_rem) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Normalizes a vector to unit L2 norm in place; zero vectors are left alone.
pub fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > f32::EPSILON {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Returns a normalized copy of the vector.
pub fn normalized(v: &[f32]) -> Vec<f32> {
    let mut out = v.to_vec();
    normalize(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive_for_odd_lengths() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.3).collect();
        let b: Vec<f32> = (0..13).map(|i| (13 - i) as f32 * 0.2).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn inner_product_on_unit_vectors_equals_cosine() {
        let a = normalized(&[3.0, 4.0]);
        let b = normalized(&[4.0, 3.0]);
        let ip = dot(&a, &b);
        assert!((ip - 24.0 / 25.0).abs() < 1e-5);
    }

    #[test]
    fn higher_score_means_smaller_distance_for_unit_vectors() {
        let q = normalized(&[1.0, 1.0, 0.0]);
        let close = normalized(&[1.0, 0.9, 0.1]);
        let far = normalized(&[-1.0, 0.2, 0.5]);
        assert!(dot(&q, &close) > dot(&q, &far));
        assert!(squared_l2(&q, &close) < squared_l2(&q, &far));
    }

    #[test]
    fn dot_batch_matches_per_row_dot() {
        for dim in [3usize, 8, 13, 32] {
            let rows_n = 9;
            let rows: Vec<f32> = (0..rows_n * dim).map(|i| (i as f32 * 0.37).sin()).collect();
            let query: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut out = Vec::new();
            dot_batch(&query, &rows, dim, &mut out);
            assert_eq!(out.len(), rows_n);
            for (r, &score) in out.iter().enumerate() {
                assert_eq!(
                    score,
                    dot(&query, &rows[r * dim..(r + 1) * dim]),
                    "dim={dim}"
                );
            }
        }
    }

    #[test]
    fn normalize_handles_zero() {
        let mut v = vec![0.0, 0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
    }
}
