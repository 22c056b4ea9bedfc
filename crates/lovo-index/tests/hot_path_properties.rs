//! Property tests for the hot-path overhaul: the bounded [`TopK`] selector
//! must be indistinguishable from the full-sort + truncate pattern it
//! replaced (including score ties broken by ascending id), and the flattened
//! strided [`AdcTable`] plus contiguous code-list storage must score
//! bit-identically to a nested per-subspace reference built from public
//! decode output.

use lovo_index::metric::dot;
use lovo_index::pq::{PqCode, PqConfig, ProductQuantizer};
use lovo_index::{SearchResult, TopK};
use proptest::prelude::*;

/// Reference implementation: collect everything, stable-sort by score
/// descending with ties broken by ascending id, truncate to `k`.
fn full_sort_top_k(hits: &[SearchResult], k: usize) -> Vec<SearchResult> {
    let mut sorted = hits.to_vec();
    sorted.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    sorted.truncate(k);
    sorted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Coarse integer scores force heavy ties, so the id tie-break is
    // exercised on nearly every case; ids are the (unique) insertion index.
    #[test]
    // `k` runs from 0 past the number of offers, so the selector is seen
    // rejecting everything, cutting its buffer many times, and never cutting.
    fn top_k_selection_matches_full_sort(
        raw_scores in prop::collection::vec(0u32..12, 1..180),
        wide_k in 0usize..200,
        tiny in any::<bool>(),
    ) {
        let k = if tiny { wide_k % 4 } else { wide_k };
        let hits: Vec<SearchResult> = raw_scores
            .iter()
            .enumerate()
            .map(|(i, &s)| SearchResult {
                id: i as u64,
                score: s as f32 * 0.125,
            })
            .collect();
        let reference = full_sort_top_k(&hits, k);

        let mut top = TopK::new(k);
        for hit in &hits {
            top.push_hit(hit.id, hit.score);
        }
        prop_assert_eq!(top.pushes(), hits.len());
        prop_assert_eq!(top.len(), reference.len());
        // The unordered drain holds the same entries, in some order.
        let mut drained: Vec<SearchResult> = top
            .clone()
            .into_unordered_entries()
            .into_iter()
            .map(|e| SearchResult { id: e.id, score: e.score })
            .collect();
        drained.sort_by_key(|hit| reference.iter().position(|r| r == hit));
        prop_assert_eq!(&drained, &reference);
        prop_assert_eq!(top.into_sorted_results(), reference.clone());

        // Push order must not matter: feed the same hits in reverse.
        let mut reversed = TopK::new(k);
        for hit in hits.iter().rev() {
            reversed.push_hit(hit.id, hit.score);
        }
        prop_assert_eq!(reversed.into_sorted_results(), reference);
    }

    // Payload-carrying selection keeps payloads attached to the right entry.
    #[test]
    fn top_k_payload_follows_its_entry(
        raw_scores in prop::collection::vec(0u32..8, 1..60),
        k in 1usize..8,
    ) {
        let mut top: TopK<u32> = TopK::new(k);
        for (i, &s) in raw_scores.iter().enumerate() {
            top.push(i as u64, s as f32, i as u32 * 10);
        }
        for entry in top.into_sorted_entries() {
            prop_assert_eq!(entry.payload as u64, entry.id * 10);
        }
    }
}

proptest! {
    // Each case trains a PQ (Lloyd's iteration), so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The strided one-vector table must score bit-identically to a nested
    // `table[p][m]` reference reconstructed through the public decode API
    // (decoding a one-hot code yields the raw centroid, and the reference
    // accumulates partial scores in the same subspace order).
    #[test]
    fn flat_adc_table_matches_nested_reference(
        sample in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 16), 20..40),
        query in prop::collection::vec(-1.0f32..1.0, 16),
    ) {
        let dim = 16;
        let config = PqConfig {
            dim,
            num_subspaces: 4,
            centroids_per_subspace: 8,
            seed: 0xadc,
        };
        let sub_dim = dim / config.num_subspaces;
        let pq = ProductQuantizer::train(config, &sample).unwrap();
        let table = pq.adc_table(&query).unwrap();

        // Nested reference: `nested[p][m]` = dot(query sub-vector, centroid).
        let nested: Vec<Vec<f32>> = (0..config.num_subspaces)
            .map(|p| {
                (0..config.centroids_per_subspace)
                    .map(|m| {
                        let mut one_hot = vec![0u8; config.num_subspaces];
                        one_hot[p] = m as u8;
                        let decoded = pq.decode(&PqCode(one_hot)).unwrap();
                        dot(
                            &query[p * sub_dim..(p + 1) * sub_dim],
                            &decoded[p * sub_dim..(p + 1) * sub_dim],
                        )
                    })
                    .collect()
            })
            .collect();

        for (p, row) in nested.iter().enumerate() {
            for (m, &expected) in row.iter().enumerate() {
                prop_assert_eq!(table.subspace_score(p, m as u8), expected);
            }
        }

        // Whole-code scoring: same left-to-right subspace accumulation order
        // as the reference sum, so equality is exact, not approximate.
        for v in &sample {
            let code = pq.encode(v).unwrap();
            let mut reference = 0.0f32;
            for (p, &m) in code.0.iter().enumerate() {
                reference += nested[p][m as usize];
            }
            prop_assert_eq!(table.score(&code), reference);
            prop_assert_eq!(table.score_codes(&code.0), reference);
        }
    }

    // Contiguous code-list storage (one `Vec<u8>`, stride = subspaces) must
    // score bit-identically to per-entry `PqCode` scoring.
    #[test]
    fn contiguous_code_list_matches_per_entry_scores(
        sample in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 16), 24..48),
        query in prop::collection::vec(-1.0f32..1.0, 16),
    ) {
        let config = PqConfig {
            dim: 16,
            num_subspaces: 4,
            centroids_per_subspace: 8,
            seed: 0x11f,
        };
        let pq = ProductQuantizer::train(config, &sample).unwrap();
        let table = pq.adc_table(&query).unwrap();
        let codes: Vec<PqCode> = sample.iter().map(|v| pq.encode(v).unwrap()).collect();
        let contiguous: Vec<u8> = codes
            .iter()
            .flat_map(|code| code.0.iter().copied())
            .collect();

        let mut list_scores = Vec::new();
        table.score_list(&contiguous, config.num_subspaces, &mut list_scores);
        prop_assert_eq!(list_scores.len(), codes.len());
        for (code, &listed) in codes.iter().zip(&list_scores) {
            prop_assert_eq!(listed, table.score(code));
        }
    }
}
