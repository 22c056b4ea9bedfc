//! Property-based tests for the tensor substrate.

use lovo_tensor::ops::{
    cosine_similarity, dot, euclidean, l2_norm, l2_normalize, similarity_to_distance,
    softmax_inplace, top_k_indices,
};
use lovo_tensor::{Linear, Matrix, MultiHeadAttention};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

/// A `rows x cols` matrix filled from `values`, cycled; about one entry in
/// eight is a zero of either sign.
fn matrix_of(rows: usize, cols: usize, values: &[f32]) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| match i % 16 {
            3 => 0.0,
            11 => -0.0,
            _ => values[i % values.len()],
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_is_a_distribution(mut v in prop::collection::vec(-50.0f32..50.0, 1..32)) {
        softmax_inplace(&mut v);
        let sum: f32 = v.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(v.iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
    }

    #[test]
    fn normalization_gives_unit_vectors(mut v in small_vec(16)) {
        let original_norm = l2_norm(&v);
        l2_normalize(&mut v);
        if original_norm > 1e-3 {
            prop_assert!((l2_norm(&v) - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_similarity_is_bounded(a in small_vec(8), b in small_vec(8)) {
        let s = cosine_similarity(&a, &b);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&s));
    }

    #[test]
    fn unit_vector_distance_matches_similarity(mut a in small_vec(8), mut b in small_vec(8)) {
        l2_normalize(&mut a);
        l2_normalize(&mut b);
        if l2_norm(&a) > 0.5 && l2_norm(&b) > 0.5 {
            let sim = dot(&a, &b);
            let dist = euclidean(&a, &b);
            prop_assert!((similarity_to_distance(sim) - dist).abs() < 1e-3);
        }
    }

    #[test]
    fn top_k_is_sorted_descending(v in prop::collection::vec(-100.0f32..100.0, 0..40), k in 0usize..50) {
        let idx = top_k_indices(&v, k);
        prop_assert_eq!(idx.len(), k.min(v.len()));
        for w in idx.windows(2) {
            prop_assert!(v[w[0]] >= v[w[1]]);
        }
    }

    #[test]
    fn matmul_is_associative_enough(
        a in prop::collection::vec(-2.0f32..2.0, 6),
        b in prop::collection::vec(-2.0f32..2.0, 6),
        c in prop::collection::vec(-2.0f32..2.0, 4),
    ) {
        // (A B) C == A (B C) for small matrices, within float tolerance.
        let a = Matrix::from_vec(2, 3, a).unwrap();
        let b = Matrix::from_vec(3, 2, b).unwrap();
        let c = Matrix::from_vec(2, 2, c).unwrap();
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_involution(data in prop::collection::vec(-5.0f32..5.0, 12)) {
        let m = Matrix::from_vec(3, 4, data).unwrap();
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_transposed_agrees_with_naive(
        a in prop::collection::vec(-3.0f32..3.0, 8),
        b in prop::collection::vec(-3.0f32..3.0, 12),
    ) {
        let a = Matrix::from_vec(2, 4, a).unwrap();
        let b = Matrix::from_vec(3, 4, b).unwrap();
        let fast = a.matmul_transposed(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    // The three properties the rerank's hoisting rests on, asserted on bits:
    // CI runs them in debug and in `--release`, where the kernel vectorises.

    #[test]
    fn linear_forward_is_bit_identical_to_the_row_dot_product_form(
        rows in 0usize..6,
        in_features in 1usize..40,
        out_features in 1usize..70,
        values in prop::collection::vec(-2.0f32..2.0, 64),
    ) {
        let weight = matrix_of(out_features, in_features, &values[7..]);
        let bias: Vec<f32> = values.iter().cycle().take(out_features).map(|v| v * 0.01).collect();
        let input = matrix_of(rows, in_features, &values);
        let layer = Linear::from_parts(weight.clone(), bias.clone()).unwrap();
        let expected = input
            .matmul_transposed(&weight)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        let actual = layer.forward(&input).unwrap();
        prop_assert_eq!(actual.shape(), (rows, out_features));
        prop_assert_eq!(bits(&actual), bits(&expected));
    }

    #[test]
    fn cross_attention_is_the_composition_of_its_three_steps(
        queries in 0usize..6,
        context in 0usize..9,
        seed in 0u64..1000,
        values in prop::collection::vec(-1.5f32..1.5, 48),
    ) {
        let attn = MultiHeadAttention::new(16, 4, seed, "prop").unwrap();
        let queries = matrix_of(queries, 16, &values);
        let context = matrix_of(context, 16, &values[5..]);
        let whole = attn.cross_attention(&queries, &context).unwrap();
        let (k, v) = attn.project_context(&context).unwrap();
        let stepped = attn
            .attend(&attn.project_queries(&queries).unwrap(), &k, &v)
            .unwrap();
        prop_assert_eq!(bits(&whole), bits(&stepped));
    }

    #[test]
    fn an_attention_row_depends_on_its_own_query_row_only(
        queries in 1usize..8,
        context in 1usize..7,
        seed in 0u64..1000,
        values in prop::collection::vec(-1.5f32..1.5, 48),
    ) {
        let attn = MultiHeadAttention::new(16, 4, seed, "prop").unwrap();
        let queries = matrix_of(queries, 16, &values);
        let context = matrix_of(context, 16, &values[9..]);
        let whole = attn.cross_attention(&queries, &context).unwrap();
        for r in 0..queries.rows() {
            let alone = attn
                .cross_attention(&Matrix::row_vector(queries.row(r)), &context)
                .unwrap();
            prop_assert_eq!(bits(&alone), bits(&Matrix::row_vector(whole.row(r))));
        }
    }
}
