//! Workspace integration tests: exercise the full pipeline across crates
//! (video substrate -> encoders -> index -> store -> LOVO -> evaluation).

use lovo_baselines::{LovoSystem, ObjectQuerySystem, Vocal, Zelda};
use lovo_core::{Lovo, LovoConfig};
use lovo_eval::experiments::{evaluate_query, ACCURACY_TOP_K};
use lovo_eval::metrics::GroundTruthIndex;
use lovo_eval::queries_for;
use lovo_index::IndexKind;
use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};

fn bellevue(frames: usize) -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_frames_per_video(frames)
            .with_seed(77),
    )
}

/// Generates a collection of the given kind in which `query_id` has at least
/// a handful of ground-truth frames, retrying over seeds: downsized synthetic
/// collections do not always contain every rare target by chance.
fn collection_with_ground_truth(
    kind: DatasetKind,
    frames: usize,
    query_id: &str,
) -> (VideoCollection, lovo_video::query::ObjectQuery) {
    let query = queries_for(kind)
        .into_iter()
        .find(|q| q.id == query_id)
        .expect("query id exists");
    for seed in 0..16u64 {
        let videos = VideoCollection::generate(
            DatasetConfig::for_kind(kind)
                .with_frames_per_video(frames)
                .with_seed(1000 + seed),
        );
        let gt = GroundTruthIndex::build(&videos, &query);
        if gt.positive_frames() >= 5 {
            return (videos, query);
        }
    }
    panic!("no seed produced ground truth for {query_id} on {kind:?}");
}

#[test]
fn lovo_beats_predefined_class_index_on_complex_queries() {
    let (videos, complex) = collection_with_ground_truth(DatasetKind::Bellevue, 700, "Q2.2");
    let complex = &complex;

    let mut vocal = Vocal::new();
    vocal.preprocess(&videos);
    let mut lovo = LovoSystem::default();
    lovo.preprocess(&videos);

    let (vocal_ap, vocal_resp) = evaluate_query(&vocal, &videos, complex, ACCURACY_TOP_K);
    let (lovo_ap, lovo_resp) = evaluate_query(&lovo, &videos, complex, ACCURACY_TOP_K);

    assert!(
        !vocal_resp.supported,
        "VOCAL cannot express relation queries"
    );
    assert!(lovo_resp.supported);
    assert!(
        lovo_ap > vocal_ap,
        "LOVO AveP {lovo_ap} should beat VOCAL {vocal_ap} on the complex query"
    );
    assert!(
        lovo_ap > 0.1,
        "LOVO should retrieve at least some correct frames"
    );
}

#[test]
fn rerank_improves_complex_query_accuracy() {
    let (videos, complex) = collection_with_ground_truth(DatasetKind::Bellevue, 600, "Q2.2");
    let complex = &complex;

    let mut full = LovoSystem::new(LovoConfig::default());
    full.preprocess(&videos);
    let mut no_rerank = LovoSystem::new(LovoConfig::ablation_without_rerank());
    no_rerank.preprocess(&videos);

    let (full_ap, _) = evaluate_query(&full, &videos, complex, ACCURACY_TOP_K);
    let (ablated_ap, _) = evaluate_query(&no_rerank, &videos, complex, ACCURACY_TOP_K);
    assert!(
        full_ap >= ablated_ap,
        "rerank must not hurt complex-query AveP (full {full_ap} vs ablated {ablated_ap})"
    );
}

#[test]
fn all_index_families_answer_queries_consistently() {
    let videos = bellevue(300);
    let query = &queries_for(DatasetKind::Bellevue)[0];
    let ground_truth = GroundTruthIndex::build(&videos, query);
    assert!(!ground_truth.is_empty());

    for kind in [IndexKind::BruteForce, IndexKind::IvfPq, IndexKind::Hnsw] {
        let lovo = Lovo::build(&videos, LovoConfig::default().with_index_kind(kind))
            .unwrap_or_else(|e| panic!("build with {kind:?} failed: {e}"));
        let result = lovo.query(&query.text).unwrap();
        assert!(
            !result.frames.is_empty(),
            "{kind:?} produced no results for {}",
            query.id
        );
    }
}

#[test]
fn zelda_baseline_and_lovo_agree_on_easy_queries() {
    // On a simple, large-object query both the frame-level baseline and LOVO
    // should retrieve relevant frames; this guards the shared attribute space
    // against regressions that would silently break one of the two paths.
    let (videos, simple) = collection_with_ground_truth(DatasetKind::Beach, 500, "Q4.1");
    let simple = &simple;

    let mut zelda = Zelda::new();
    zelda.preprocess(&videos);
    let mut lovo = LovoSystem::default();
    lovo.preprocess(&videos);

    let (zelda_ap, _) = evaluate_query(&zelda, &videos, simple, ACCURACY_TOP_K);
    let (lovo_ap, _) = evaluate_query(&lovo, &videos, simple, ACCURACY_TOP_K);
    assert!(
        zelda_ap > 0.05,
        "ZELDA should find green buses (got {zelda_ap})"
    );
    assert!(
        lovo_ap > 0.05,
        "LOVO should find green buses (got {lovo_ap})"
    );
}

#[test]
fn storage_footprint_reports_are_consistent() {
    let videos = bellevue(300);
    let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
    let stats = lovo
        .database()
        .collection_stats(lovo_core::summary::PATCH_COLLECTION)
        .unwrap();
    assert_eq!(stats.entities, lovo.indexed_patches());
    assert!(
        stats.index_bytes < stats.raw_bytes,
        "PQ index must compress the raw embeddings"
    );
    assert!(lovo.storage_bytes() >= stats.index_bytes);
}

/// One hit of [`QUICKSTART_GOLDEN`]: video, frame, score bits, and the bits
/// of the box's `x, y, w, h`.
type GoldenHit = (u32, u32, u32, [u32; 4]);

/// What `Lovo::query` returned for the three quickstart queries over the
/// default Bellevue collection at commit ecf6f99, before the rerank computed
/// values at the level they depend on and before `Linear` ran its
/// column-order kernel. Both changes are exact, so the encoders, the coarse
/// stage and the rerank must reproduce every bit.
#[rustfmt::skip]
const QUICKSTART_GOLDEN: [(&str, &[GoldenHit]); 3] = [
    (
        "a red car driving in the center of the road",
        &[
            (0, 37, 0x3f49780d, [0x444045e0, 0x43d5ae74, 0x42dc0d40, 0x42805d10]),
            (0, 9, 0x3f497542, [0x4409bec8, 0x43b9388c, 0x42dc0d40, 0x42805d10]),
            (0, 0, 0x3f496e34, [0x43f06fd8, 0x43b012a6, 0x42dc0d40, 0x42805d10]),
            (0, 8, 0x3f496e34, [0x4407cc3e, 0x43b83456, 0x42dc0d40, 0x42805d10]),
            (0, 248, 0x3f217cc2, [0x43c9526f, 0x43b3889d, 0x42df77dc, 0x42825b40]),
            (0, 386, 0x3f217969, [0x4419e8ea, 0x43be4ba0, 0x42d18fc0, 0x42747d08]),
            (0, 414, 0x3f2171a8, [0x43f81650, 0x43c598d8, 0x42d18fc0, 0x42747d08]),
            (0, 69, 0x3f216af4, [0x439e8984, 0x43a67f8a, 0x43025eb0, 0x42981920]),
            (0, 379, 0x3f216990, [0x4421605a, 0x43bc7852, 0x42d18fc0, 0x42747d08]),
            (0, 99, 0x3f2164e7, [0x4327d428, 0x439184d6, 0x43025eb0, 0x42981920]),
            (0, 444, 0x3f2163d0, [0x43b81672, 0x43cd6b94, 0x42d18fbc, 0x42747d08]),
            (0, 63, 0x3f21572b, [0x43ad7634, 0x43aab1ae, 0x43025eb0, 0x42981920]),
            (0, 445, 0x3f214e34, [0x43b5f451, 0x43cdae56, 0x42d18fbc, 0x42747d08]),
            (0, 460, 0x3f214e34, [0x4395f462, 0x43d197b4, 0x42d18fbc, 0x42747d08]),
            (0, 467, 0x3f214e34, [0x4387057b, 0x43d36b02, 0x42d18fbc, 0x42747d08]),
            (0, 488, 0x3f214e34, [0x4334718c, 0x43d8e4ec, 0x42d18fbc, 0x42747d08]),
            (0, 68, 0x3f214bf6, [0x43a1064c, 0x43a73290, 0x43025eb0, 0x42981920]),
            (0, 303, 0x3f214bf6, [0x00000000, 0x439919e5, 0x42b07982, 0x42825b40]),
            (0, 263, 0x3f2144ac, [0x438f363e, 0x43ac5325, 0x42df77dc, 0x42825b40]),
            (0, 272, 0x3f2144ac, [0x4358b10e, 0x43a7ffdd, 0x42df77dc, 0x42825b40]),
        ],
    ),
    (
        "a red car side by side with another car, both positioned in the center of the road",
        &[
            (0, 37, 0x3f1146b3, [0x444045e0, 0x43d5ae74, 0x42dc0d40, 0x42805d10]),
            (0, 9, 0x3f1142d3, [0x4409bec8, 0x43b9388c, 0x42dc0d40, 0x42805d10]),
            (0, 0, 0x3f113a40, [0x43f06fd8, 0x43b012a6, 0x42dc0d40, 0x42805d10]),
            (0, 8, 0x3f113a40, [0x4407cc3e, 0x43b83456, 0x42dc0d40, 0x42805d10]),
            (0, 188, 0x3ed9b976, [0x446e1a91, 0x43a1917d, 0x42cd4418, 0x426f7a18]),
            (0, 218, 0x3ed9b976, [0x44977808, 0x4399fb1b, 0x42887f80, 0x426f7a18]),
            (0, 129, 0x3ed9a443, [0x448e5302, 0x44107710, 0x42da9a40, 0x427f0950]),
            (0, 174, 0x3ed9a2cd, [0x00000000, 0x44083de3, 0x41971ec8, 0x427f5850]),
            (0, 143, 0x3ed9912d, [0x44979458, 0x44158282, 0x4286ba80, 0x427f0950]),
            (0, 139, 0x3ed990c3, [0x4494ef64, 0x44141186, 0x42b109c0, 0x427f0950]),
            (0, 319, 0x3ed9900d, [0x4427d12d, 0x43e69e81, 0x42f30758, 0x428dc444]),
            (0, 329, 0x3ed9900d, [0x4441a67f, 0x43e81a27, 0x42f30758, 0x428dc444]),
            (0, 356, 0x3ed98f80, [0x4483b33a, 0x43ec1b34, 0x42f30750, 0x428dc448]),
            (0, 151, 0x3ed98e45, [0x449cde40, 0x4418647a, 0x41c87000, 0x427f0950]),
            (0, 63, 0x3ed92fa8, [0x4393e226, 0x4422efd8, 0x4309dea0, 0x42888140]),
            (0, 248, 0x3ed79ba6, [0x43c9526f, 0x43b3889d, 0x42df77dc, 0x42825b40]),
            (0, 69, 0x3ed77146, [0x439e8984, 0x43a67f8a, 0x43025eb0, 0x42981920]),
            (0, 263, 0x3ed76e05, [0x438f363e, 0x43ac5325, 0x42df77dc, 0x42825b40]),
            (0, 272, 0x3ed76e05, [0x4358b10e, 0x43a7ffdd, 0x42df77dc, 0x42825b40]),
            (0, 274, 0x3ed76e05, [0x43493212, 0x43a709cd, 0x42df77dc, 0x42825b40]),
        ],
    ),
    (
        "a bus driving on the road with white roof and yellow-green body",
        &[
            (0, 188, 0x3f105803, [0x44422c1e, 0x43fa6dfa, 0x4396d3e4, 0x42ff3f30]),
            (0, 218, 0x3f105803, [0x446ca6a6, 0x4401bfbb, 0x4396d3e4, 0x42ff3f30]),
            (0, 248, 0x3f104fa3, [0x448b9097, 0x44064879, 0x43237b48, 0x42ff3f30]),
            (0, 174, 0x3f104c82, [0x442e5956, 0x43f6329e, 0x4396d3e2, 0x42ff3f30]),
            (0, 386, 0x3f1043e1, [0x444ae53e, 0x4399d8da, 0x43b5931c, 0x4319a3de]),
            (0, 414, 0x3f104371, [0x44882c3a, 0x4394b9fe, 0x433e9e30, 0x4319a3de]),
            (0, 129, 0x3f103dc6, [0x42f3df98, 0x440008f4, 0x43adc9bc, 0x43130d28]),
            (0, 99, 0x3f103da7, [0x43f026d6, 0x43f32b72, 0x43adc9bc, 0x43130d28]),
            (0, 69, 0x3f103c45, [0x4451aae3, 0x43e644fc, 0x43adc9ba, 0x43130d28]),
            (0, 587, 0x3ee9a3c8, [0x439a8f54, 0x43d0960d, 0x435b3c20, 0x42c74dec]),
            (0, 444, 0x3ee99ae8, [0x4444e252, 0x43c27150, 0x43477940, 0x42b556f4]),
            (0, 379, 0x3ee98d5e, [0x43bcee50, 0x43d3fe70, 0x43477940, 0x42b556f8]),
        ],
    ),
];

#[test]
fn quickstart_answers_are_bit_identical_to_the_golden() {
    let videos = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(600),
    );
    let lovo = Lovo::build(&videos, LovoConfig::default()).expect("build LOVO");
    for (query, golden) in QUICKSTART_GOLDEN {
        let result = lovo.query(query).expect("query");
        let answer: Vec<GoldenHit> = result
            .frames
            .iter()
            .map(|hit| {
                let b = hit.bbox;
                (
                    hit.video_id,
                    hit.frame_index,
                    hit.score.to_bits(),
                    [b.x, b.y, b.w, b.h].map(f32::to_bits),
                )
            })
            .collect();
        assert_eq!(answer, golden, "{query}");
    }
}

/// One frame of [`QUICKSTART_SCOPED_GOLDEN`]: video, frame, score bits.
type ScopedHit = (u32, u32, u32);

/// What `Lovo::query_spec` returned at commit 5d46c97 for the bus query over
/// the quickstart collection under the six predicate scopes of the
/// `coarse_large` benchmark workload — `(video, frame, score bits)` per
/// frame — when predicates were still joined against every metadata row.
/// Resolving them from the frame directory is exact, so the coarse stage
/// must hand the rerank the same candidates and every bit must repeat.
#[rustfmt::skip]
const QUICKSTART_SCOPED_GOLDEN: [(&str, &[ScopedHit]); 6] = [
    (
        "any",
        &[
            (0, 188, 0x3f105803),
            (0, 218, 0x3f105803),
            (0, 248, 0x3f104fa3),
            (0, 174, 0x3f104c82),
            (0, 386, 0x3f1043e1),
            (0, 414, 0x3f104371),
            (0, 129, 0x3f103dc6),
            (0, 99, 0x3f103da7),
            (0, 69, 0x3f103c45),
            (0, 587, 0x3ee9a3c8),
            (0, 444, 0x3ee99ae8),
            (0, 379, 0x3ee98d5e),
        ],
    ),
    (
        "one camera",
        &[
            (0, 188, 0x3f105803),
            (0, 218, 0x3f105803),
            (0, 248, 0x3f104fa3),
            (0, 174, 0x3f104c82),
            (0, 386, 0x3f1043e1),
            (0, 414, 0x3f104371),
            (0, 129, 0x3f103dc6),
            (0, 99, 0x3f103da7),
            (0, 69, 0x3f103c45),
            (0, 587, 0x3ee9a3c8),
            (0, 444, 0x3ee99ae8),
            (0, 379, 0x3ee98d5e),
        ],
    ),
    (
        "four cameras",
        &[
            (0, 188, 0x3f105803),
            (0, 218, 0x3f105803),
            (0, 248, 0x3f104fa3),
            (0, 174, 0x3f104c82),
            (0, 386, 0x3f1043e1),
            (0, 414, 0x3f104371),
            (0, 129, 0x3f103dc6),
            (0, 99, 0x3f103da7),
            (0, 69, 0x3f103c45),
            (0, 587, 0x3ee9a3c8),
            (0, 444, 0x3ee99ae8),
            (0, 379, 0x3ee98d5e),
        ],
    ),
    (
        "time window",
        &[
            (0, 188, 0x3f105803),
            (0, 218, 0x3f105803),
            (0, 248, 0x3f104fa3),
            (0, 174, 0x3f104c82),
        ],
    ),
    (
        "class",
        &[
            (0, 188, 0x3f105803),
            (0, 218, 0x3f105803),
            (0, 248, 0x3f104fa3),
            (0, 174, 0x3f104c82),
            (0, 386, 0x3f1043e1),
            (0, 414, 0x3f104371),
            (0, 129, 0x3f103dc6),
            (0, 99, 0x3f103da7),
            (0, 69, 0x3f103c45),
        ],
    ),
    (
        "camera and time",
        &[
            (0, 188, 0x3f105803),
            (0, 218, 0x3f105803),
            (0, 248, 0x3f104fa3),
            (0, 174, 0x3f104c82),
            (0, 129, 0x3f103dc6),
            (0, 99, 0x3f103da7),
            (0, 69, 0x3f103c45),
        ],
    ),
];

#[test]
fn quickstart_scoped_answers_are_bit_identical_to_the_golden() {
    use lovo_core::QuerySpec;
    use lovo_video::{ObjectClass, QueryPredicate};
    let videos = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(600),
    );
    let lovo = Lovo::build(&videos, LovoConfig::default()).expect("build LOVO");
    // One camera of twenty seconds: the scopes `scoped_plans` builds for it.
    let scopes = [
        ("any", QueryPredicate::Any),
        ("one camera", QueryPredicate::videos([0])),
        ("four cameras", QueryPredicate::videos([0])),
        ("time window", QueryPredicate::time_range(5.0, 10.0)),
        ("class", QueryPredicate::class(ObjectClass::Bus)),
        (
            "camera and time",
            QueryPredicate::videos([0]).and(QueryPredicate::time_range(0.0, 10.0)),
        ),
    ];
    for ((scope, predicate), (golden_scope, golden)) in
        scopes.into_iter().zip(QUICKSTART_SCOPED_GOLDEN)
    {
        assert_eq!(scope, golden_scope);
        let spec =
            QuerySpec::new("a bus driving on the road with white roof and yellow-green body")
                .with_predicate(predicate);
        let result = lovo.query_spec(&spec).expect("query");
        let answer: Vec<ScopedHit> = result
            .frames
            .iter()
            .map(|hit| (hit.video_id, hit.frame_index, hit.score.to_bits()))
            .collect();
        assert_eq!(answer, golden, "{scope}");
    }
}
