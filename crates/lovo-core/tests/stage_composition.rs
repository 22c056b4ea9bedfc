//! The public stage functions, composed in the engine's own order, give what
//! `Lovo::query_spec` gives: coarse stage (`coarse_plan`) → group into frames
//! (`group_hits_by_frame`) → rerank budget → rerank (`rerank_plan`) → output
//! (`merge_reranked`), or, rerank off, `assemble_unreranked`. A caller that
//! times a query stage by stage relies on this.
//!
//! The engine itself groups the coarse hits before it sorts or joins them and
//! joins only the frames its budget keeps; the staged path joins every hit
//! and groups the joined, best-first list. The matrix below holds the two
//! equal over predicates, rerank on and off, rerank budgets on both sides of
//! the candidate frame count, several `fast_search_k`, and exact score ties
//! across frames.

use lovo_core::{
    assemble_unreranked, group_hits_by_frame, merge_reranked, Lovo, LovoConfig, QueryResult,
    QuerySpec, RankedObject, SearchStats,
};
use lovo_video::{DatasetConfig, DatasetKind, ObjectClass, QueryPredicate, VideoCollection};
use std::collections::HashSet;

/// What a staged run gives: the frames, the coarse work counters, the coarse
/// candidate count, the number of frames reranked, and the number of
/// distinct frames among the coarse candidates.
struct Staged {
    frames: Vec<RankedObject>,
    stats: SearchStats,
    candidates: usize,
    reranked: usize,
    candidate_frames: usize,
}

fn staged(lovo: &Lovo, spec: &QuerySpec) -> Staged {
    let plan = lovo.plan(spec);
    let (hits, stats) = lovo.coarse_plan(&plan, 0).expect("coarse stage");
    let mut seeds = group_hits_by_frame(&hits);
    let candidate_frames = seeds.len();
    if !plan.enable_rerank {
        let frames = assemble_unreranked(&seeds, plan.output_frames);
        return Staged {
            frames,
            stats,
            candidates: hits.len(),
            reranked: 0,
            candidate_frames,
        };
    }
    seeds.truncate(plan.rerank_frames);
    let ranked = lovo.rerank_plan(&plan, &seeds).expect("rerank stage");
    Staged {
        frames: merge_reranked(vec![ranked], plan.output_frames),
        stats,
        candidates: hits.len(),
        reranked: seeds.len(),
        candidate_frames,
    }
}

fn assert_stages_match(lovo: &Lovo, spec: &QuerySpec) -> (QueryResult, Staged) {
    let direct = lovo.query_spec(spec).expect("query_spec");
    let staged = staged(lovo, spec);
    assert_eq!(staged.frames, direct.frames, "{spec:?}");
    assert_eq!(staged.stats, direct.search_stats, "{spec:?}");
    assert_eq!(staged.candidates, direct.fast_search_candidates, "{spec:?}");
    assert_eq!(staged.reranked, direct.reranked_frames, "{spec:?}");
    (direct, staged)
}

fn videos() -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(3)
            .with_frames_per_video(90)
            .with_seed(7),
    )
}

/// Video 0's content again under two fresh ids, as its own batch: every
/// patch of one copy scores exactly what the same patch of the other does,
/// so frames of the two copies tie on every query.
const COPY_IDS: [u32; 2] = [10, 11];

fn build_with_copies(videos: &VideoCollection, config: LovoConfig) -> Lovo {
    let lovo = Lovo::build(videos, config).expect("build");
    let mut copies = videos.clone();
    copies.videos = COPY_IDS
        .iter()
        .map(|&id| {
            let mut copy = videos.videos[0].clone();
            copy.id = id;
            copy
        })
        .collect();
    lovo.add_videos(&copies).expect("ingest the copies");
    lovo
}

#[test]
fn stage_functions_compose_to_query_spec() {
    let videos = videos();
    let text = "a red car driving in the center of the road";
    let unfiltered = QuerySpec::new(text);
    let filtered = QuerySpec::new(text)
        .with_predicate(QueryPredicate::videos([0, 1]).and(QueryPredicate::time_range(0.0, 1.5)));

    // A rerank budget below the candidate frame count, so the budget cut
    // is part of what the staged run must reproduce.
    let reranked =
        Lovo::build(&videos, LovoConfig::default().with_rerank_frames(4)).expect("build");
    let (answer, _) = assert_stages_match(&reranked, &unfiltered);
    assert_eq!(answer.reranked_frames, 4);
    assert!(!answer.frames.is_empty());
    let (answer, _) = assert_stages_match(&reranked, &filtered);
    assert!(!answer.frames.is_empty());
    assert!(answer
        .frames
        .iter()
        .all(|frame| frame.video_id <= 1 && frame.timestamp <= 1.5));

    let coarse_only = Lovo::build(&videos, LovoConfig::default().with_rerank(false))
        .expect("build without rerank");
    let (answer, _) = assert_stages_match(&coarse_only, &unfiltered);
    assert_eq!(answer.reranked_frames, 0);
    assert!(!answer.frames.is_empty());
}

#[test]
fn the_late_join_equals_the_staged_path_across_the_matrix() {
    let videos = videos();
    let text = "a red car driving in the center of the road";
    let predicates = [
        QueryPredicate::default(),
        QueryPredicate::videos([0, COPY_IDS[0], COPY_IDS[1]]),
        QueryPredicate::time_range(0.0, 1.5),
        QueryPredicate::class(ObjectClass::Car),
        QueryPredicate::videos([1, COPY_IDS[1]]).and(QueryPredicate::time_range(0.5, 2.5)),
    ];
    // Rerank on with a budget below the candidate frame count, on with one
    // no query reaches, and off.
    let below = 4;
    let engines = [
        (
            "budget below",
            LovoConfig::default().with_rerank_frames(below),
        ),
        (
            "budget above",
            LovoConfig::default().with_rerank_frames(100_000),
        ),
        ("rerank off", LovoConfig::default().with_rerank(false)),
    ];
    for (label, config) in engines {
        let lovo = build_with_copies(&videos, config);
        let mut budget_cut = false;
        let mut tie_answered = false;
        for predicate in &predicates {
            for k in [1, 7, 400] {
                let spec = QuerySpec::new(text)
                    .with_predicate(predicate.clone())
                    .with_k(k);
                let (direct, staged) = assert_stages_match(&lovo, &spec);
                assert!(direct.fast_search_candidates <= k, "{label} {spec:?}");
                match label {
                    "budget below" => {
                        assert_eq!(
                            direct.reranked_frames,
                            staged.candidate_frames.min(below),
                            "{label} {spec:?}"
                        );
                        budget_cut |= staged.candidate_frames > below;
                    }
                    "budget above" => {
                        assert_eq!(
                            direct.reranked_frames, staged.candidate_frames,
                            "{label} {spec:?}"
                        );
                    }
                    _ => assert_eq!(direct.reranked_frames, 0, "{label} {spec:?}"),
                }
                // A frame of one copy and the same frame of the other, both
                // in the answer with the same score bits: the tie the
                // output order breaks by video id.
                let copies: HashSet<(u32, u32)> = direct
                    .frames
                    .iter()
                    .filter(|frame| frame.video_id == COPY_IDS[0])
                    .map(|frame| (frame.frame_index, frame.score.to_bits()))
                    .collect();
                tie_answered |= direct.frames.iter().any(|frame| {
                    frame.video_id == COPY_IDS[1]
                        && copies.contains(&(frame.frame_index, frame.score.to_bits()))
                });
            }
        }
        if label == "budget below" {
            assert!(
                budget_cut,
                "no query had more candidate frames than the budget"
            );
        }
        assert!(
            tie_answered,
            "{label}: no answer held a tie between the copies"
        );
    }
}
