//! Property tests for predicate pushdown: `search(.., Some(filter))` must be
//! indistinguishable from "unfiltered search over everything + post-filter +
//! truncate" — score- and tie-break-identical for the exact paths (Flat, and
//! IVF-PQ when the refine budget covers every probed candidate), and
//! recall-bounded for the beam-limited HNSW path.

use lovo_index::metric::{dot, normalize};
use lovo_index::{
    FlatIndex, HnswConfig, HnswIndex, IdFilter, IdPosting, IdRanges, IvfPqConfig, IvfPqIndex,
    RowStore, SearchResult, TopK, VectorIndex,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Index hits in the crate-wide order, best first (score descending, then
/// id ascending): an index search returns its hits unordered.
fn sorted(hits: Vec<SearchResult>) -> Vec<SearchResult> {
    let mut top = TopK::new(hits.len());
    for hit in hits {
        top.push_hit(hit.id, hit.score);
    }
    top.into_sorted_results()
}

/// Reference implementation: exhaustively retrieve everything unfiltered,
/// drop ids the filter rejects, truncate to `k`.
fn post_filter_reference(
    index: &dyn VectorIndex,
    query: &[f32],
    k: usize,
    filter: &IdFilter,
) -> Vec<SearchResult> {
    sorted(index.search(query, index.len(), None).unwrap().0)
        .into_iter()
        .filter(|hit| filter.accepts(hit.id))
        .take(k)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Flat: the filtered block scan must equal the post-filtered full scan
    // exactly — same ids, same (bit-identical) scores, same id tie-breaks.
    // The mask mixes fully-passing blocks (batch kernel) with mixed blocks
    // (per-row kernel); both kernels share the per-row dot, so equality is
    // exact, not approximate. The same allowed ids are expressed as each
    // filter kind `MetadataStore::resolve` emits — an allow-set, the ids'
    // runs as sorted ranges, the ids as a posting alone and cut down by
    // ranges that happen to cover it — and every kind must report the same
    // hits, the same search stats and the same matched count.
    #[test]
    fn flat_filtered_equals_post_filter(
        rows in prop::collection::vec(prop::collection::vec(-1.0f32..1.0, 8), 20..150),
        mask in prop::collection::vec(any::<bool>(), 150),
        query in prop::collection::vec(-1.0f32..1.0, 8),
        k in 0usize..12,
    ) {
        let mut flat = FlatIndex::new(8);
        for (i, v) in rows.iter().enumerate() {
            flat.insert(i as u64, v).unwrap();
        }
        let ascending: Vec<u64> = (0..rows.len() as u64).filter(|&i| mask[i as usize]).collect();
        let set_filter = IdFilter::from_ids(ascending.iter().copied());
        let reference = post_filter_reference(&flat, &query, k, &set_filter);

        let (set_hits, set_stats) = flat
            .search(&query, k, Some(&set_filter))
            .unwrap();
        let set_hits = sorted(set_hits);
        prop_assert_eq!(&set_hits, &reference);
        prop_assert_eq!(set_stats.vectors_scored, ascending.len());
        prop_assert_eq!(set_stats.filtered_out, rows.len() - ascending.len());
        prop_assert_eq!(set_filter.matched(), ascending.len());

        let runs = IdRanges::new(ascending.iter().map(|&id| (id, id)).collect());
        let posting = Arc::new(ascending.iter().copied().collect::<IdPosting>());
        let resolved = [
            IdFilter::Ranges { ranges: runs.clone(), matched: ascending.len() },
            IdFilter::Postings { postings: vec![posting.clone()], within: None },
            IdFilter::Postings { postings: vec![posting], within: Some(runs) },
        ];
        for filter in &resolved {
            prop_assert_eq!(filter.matched(), set_filter.matched());
            let (hits, stats) = flat.search(&query, k, Some(filter)).unwrap();
            prop_assert_eq!(&sorted(hits), &set_hits);
            prop_assert_eq!(stats, set_stats);
        }
    }
}

/// Clustered unit vectors resembling real embedding distributions.
fn clustered_unit_vectors(n: usize, dim: usize, clusters: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..clusters)
        .map(|_| {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            normalize(&mut v);
            v
        })
        .collect();
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

// IVF-PQ: with a refine budget covering every probed candidate, both the
// filtered and unfiltered searches exactly re-score everything they probe,
// so filtered(k) must equal post-filter(unfiltered(everything)) truncated to
// k — including scores (exact dots) and id tie-breaks. This exercises the
// code-skipping compaction: a wrongly skipped (or wrongly kept) code would
// change the result set.
#[test]
fn ivf_filtered_equals_post_filter_under_full_refine() {
    let dim = 32;
    let n = 1_500;
    let vectors = clustered_unit_vectors(n, dim, 30, 0x1f11);
    let config = IvfPqConfig::for_dim(dim).with_refine_factor(n);
    let ids = (0..n as u64).collect();
    let ivf = IvfPqIndex::build_from_rows(config, ids, RowStore::from(vectors.concat())).unwrap();

    let filters: Vec<IdFilter> = vec![
        IdFilter::from_ids(0..400),
        IdFilter::from_ids((0..n as u64).step_by(3)),
        IdFilter::from_ids((700..900).chain(100..150)),
        IdFilter::Ranges {
            ranges: IdRanges::new(vec![(700, 899), (100, 149), (1_499, 5_000)]),
            matched: 251,
        },
        IdFilter::Postings {
            postings: vec![
                Arc::new((0..500u64).map(|i| i * 3).collect()),
                Arc::new((0..50u64).map(|i| i * 30 + 1).collect()),
            ],
            within: Some(IdRanges::new(vec![(0, 400), (1_000, 1_300)])),
        },
    ];
    for (which, filter) in filters.iter().enumerate() {
        for &probe in &[11usize, 502, 1203] {
            let query = &vectors[probe];
            let reference = post_filter_reference(&ivf, query, 10, filter);
            let (hits, stats) = ivf.search(query, 10, Some(filter)).unwrap();
            let hits = sorted(hits);
            assert_eq!(hits, reference, "filter {which}, probe {probe}");
            assert!(hits.iter().all(|h| filter.accepts(h.id)));
            assert_eq!(
                stats.exact_rescored, stats.vectors_scored,
                "full refine rescores every kept candidate (filter {which}, probe {probe})"
            );
        }
    }
}

// HNSW: the unfiltered-visit/filtered-accept beam cannot promise exactness,
// so the property is bounded: every hit passes the filter, scores are the
// exact inner products of the stored vectors, ordering is the crate-wide
// (score desc, id asc), and recall against the exact filtered reference
// stays high at moderate selectivity with a generous beam.
#[test]
fn hnsw_filtered_is_recall_bounded() {
    let dim = 32;
    let n = 2_000;
    let vectors = clustered_unit_vectors(n, dim, 25, 0x533d);
    let mut hnsw = HnswIndex::new(HnswConfig::for_dim(dim).with_ef_search(128)).unwrap();
    let mut flat = FlatIndex::new(dim);
    for (i, v) in vectors.iter().enumerate() {
        hnsw.insert(i as u64, v).unwrap();
        flat.insert(i as u64, v).unwrap();
    }

    let filter = IdFilter::from_ids((1..n as u64).step_by(2));
    let mut recall_hits = 0usize;
    let mut total = 0usize;
    for &probe in &[3usize, 401, 777, 1200, 1999] {
        let query = &vectors[probe];
        let (hits, _) = hnsw.search(query, 10, Some(&filter)).unwrap();
        for hit in &hits {
            assert_eq!(hit.id % 2, 1, "filtered-out id escaped the beam");
            // Scores are exact inner products of the stored vector.
            let stored = flat.vector(hit.id).unwrap();
            assert_eq!(hit.score, dot(query, stored));
        }
        for pair in hits.windows(2) {
            assert!(
                pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].id < pair[1].id),
                "result order violates (score desc, id asc)"
            );
        }
        let exact = post_filter_reference(&flat, query, 10, &filter);
        total += exact.len();
        recall_hits += exact
            .iter()
            .filter(|e| hits.iter().any(|h| h.id == e.id))
            .count();
    }
    let recall = recall_hits as f64 / total as f64;
    assert!(recall >= 0.7, "filtered recall@10 too low: {recall}");
}
