//! The public stage functions, composed in the engine's own order, give what
//! `Lovo::query_spec` gives: coarse stage (`coarse_plan`) → group into frames
//! (`group_hits_by_frame`) → rerank budget → rerank (`rerank_plan`) → output
//! (`merge_reranked`), or, rerank off, `assemble_unreranked`. A caller that
//! times a query stage by stage relies on this.

use lovo_core::{
    assemble_unreranked, group_hits_by_frame, merge_reranked, Lovo, LovoConfig, QueryResult,
    QuerySpec, RankedObject, SearchStats,
};
use lovo_video::{DatasetConfig, DatasetKind, QueryPredicate, VideoCollection};

/// What a staged run gives: the frames, the coarse work counters, the coarse
/// candidate count and the number of frames reranked.
type Staged = (Vec<RankedObject>, SearchStats, usize, usize);

fn staged(lovo: &Lovo, spec: &QuerySpec) -> Staged {
    let plan = lovo.plan(spec);
    let (hits, stats) = lovo.coarse_plan(&plan, 0).expect("coarse stage");
    let mut seeds = group_hits_by_frame(&hits);
    if !plan.enable_rerank {
        let frames = assemble_unreranked(&seeds, plan.output_frames);
        return (frames, stats, hits.len(), 0);
    }
    seeds.truncate(plan.rerank_frames);
    let ranked = lovo.rerank_plan(&plan, &seeds).expect("rerank stage");
    let frames = merge_reranked(vec![ranked], plan.output_frames);
    (frames, stats, hits.len(), seeds.len())
}

fn assert_stages_match(lovo: &Lovo, spec: &QuerySpec) -> QueryResult {
    let direct = lovo.query_spec(spec).expect("query_spec");
    let (frames, stats, candidates, reranked) = staged(lovo, spec);
    assert_eq!(frames, direct.frames, "{spec:?}");
    assert_eq!(stats, direct.search_stats, "{spec:?}");
    assert_eq!(candidates, direct.fast_search_candidates, "{spec:?}");
    assert_eq!(reranked, direct.reranked_frames, "{spec:?}");
    direct
}

#[test]
fn stage_functions_compose_to_query_spec() {
    let videos = VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_num_videos(3)
            .with_frames_per_video(90)
            .with_seed(7),
    );
    let text = "a red car driving in the center of the road";
    let unfiltered = QuerySpec::new(text);
    let filtered = QuerySpec::new(text)
        .with_predicate(QueryPredicate::videos([0, 1]).and(QueryPredicate::time_range(0.0, 1.5)));

    // A rerank budget below the candidate frame count, so the budget cut
    // is part of what the staged run must reproduce.
    let reranked =
        Lovo::build(&videos, LovoConfig::default().with_rerank_frames(4)).expect("build");
    let answer = assert_stages_match(&reranked, &unfiltered);
    assert_eq!(answer.reranked_frames, 4);
    assert!(!answer.frames.is_empty());
    let answer = assert_stages_match(&reranked, &filtered);
    assert!(!answer.frames.is_empty());
    assert!(answer
        .frames
        .iter()
        .all(|frame| frame.video_id <= 1 && frame.timestamp <= 1.5));

    let coarse_only = Lovo::build(&videos, LovoConfig::default().with_rerank(false))
        .expect("build without rerank");
    let answer = assert_stages_match(&coarse_only, &unfiltered);
    assert_eq!(answer.reranked_frames, 0);
    assert!(!answer.frames.is_empty());
}
