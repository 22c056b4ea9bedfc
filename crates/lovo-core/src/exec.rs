//! The plan executor: runs [`QueryPlan`]s produced by the
//! [`crate::planner::QueryPlanner`] against a built [`Lovo`] system.
//!
//! Each stage of [`crate::planner::PlanStage`] is written here exactly once,
//! and the executor is a composition of the same three functions:
//!
//! 1. **coarse stage** (batched) — **encode** every text in the batch,
//!    **prune** by resolving each *distinct* compiled predicate once into a
//!    pushed-down filter (video-only predicates compile to an id bit test;
//!    time/class predicates join the metadata table once; provably-empty
//!    plans are never searched), then run the **coarse** search for all
//!    remaining queries in one batched fan-out over the storage segments
//!    (one collection lock acquisition, one segment walk shared by the
//!    batch), each with its own filter. Each query gets its `fast_search_k`
//!    best patch ids and scores, unordered and not yet joined with metadata;
//! 2. **rerank stage** — the cross-modality transformer re-scores a list of
//!    candidate frames against one parsed query;
//! 3. **aggregate** — *groups, then joins the budget*: reduces the raw hits
//!    to one best patch per key frame, keeps the `rerank_frames` frames
//!    whose best patches rank highest (`output_frames` with the rerank off),
//!    joins only those patches' metadata rows for box and timestamp, then
//!    reranks or assembles the fast-search order, and fills in the
//!    [`QueryResult`] with per-stage timings. Nothing is sorted before the
//!    hits are reduced to frames, and at most the budget's rows are read.
//!
//! [`Lovo::query_plans`] is the coarse stage over the batch followed by the
//! aggregation per plan. [`Lovo::coarse_plan`] and [`Lovo::rerank_plan`]
//! expose the coarse stage over a batch of one and the rerank stage, and
//! [`group_hits_by_frame`], [`merge_reranked`] and [`assemble_unreranked`]
//! the pieces of the aggregation, so a caller can run a query stage by stage
//! and time each stage on its own. The staged path joins every coarse hit
//! and groups the joined list; it gives the engine's answer bit for bit,
//! because both group under one rule, `best_per_frame`'s.

// The executor runs every query on `QueryService` workers and submitting
// threads, where a panic is a lost request.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::engine::{Lovo, QueryResult, QueryTimings, RankedObject};
use crate::planner::QueryPlan;
use crate::summary::{split_patch_id, PATCH_COLLECTION};
use crate::Result;
use lovo_encoder::cross_modality::CandidateFrame;
use lovo_encoder::{QueryEmbedding, TextEncoder};
use lovo_index::{IdBuildHasher, SearchResult, SearchStats};
use lovo_store::patchid::frame_of;
use lovo_store::{BatchQuery, PatchRecord, PushdownFilter};
use lovo_video::bbox::BoundingBox;
use lovo_video::QueryConstraints;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

/// One coarse-stage candidate patch: the packed patch id, its fast-search
/// score, the patch's bounding box, and the owning key frame's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoarseHit {
    /// Packed patch id (video / frame / patch, see `lovo_store::patch_id`).
    pub patch_id: u64,
    /// Fast-search similarity score of this patch.
    pub score: f32,
    /// The patch's bounding box.
    pub bbox: BoundingBox,
    /// Timestamp of the owning key frame in seconds. The engine always fills
    /// it, from the patch's stored record; a producer that leaves it `None`
    /// has its frame skipped by [`assemble_unreranked`].
    pub timestamp: Option<f64>,
}

/// One candidate key frame after coarse hits are grouped: the frame key, its
/// best fast-search score and box (the rerank seed), and the frame's
/// timestamp when known. Produced by [`group_hits_by_frame`] and consumed by
/// the rerank stage ([`Lovo::rerank_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameSeed {
    /// Video the frame belongs to.
    pub video_id: u32,
    /// Key-frame index within the video.
    pub frame_index: u32,
    /// Best fast-search score among the frame's candidate patches.
    pub score: f32,
    /// Bounding box of the best-scoring candidate patch (the rerank seed).
    pub bbox: BoundingBox,
    /// Timestamp of the key frame in seconds, when known to the producer.
    pub timestamp: Option<f64>,
}

/// The reranked output order: cross-modality score descending, then frame
/// index, then video id — the exact sort `rerank_with_constraints` applies
/// internally.
fn reranked_order(a: &RankedObject, b: &RankedObject) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.frame_index.cmp(&b.frame_index))
        .then_with(|| a.video_id.cmp(&b.video_id))
}

/// The ablation (rerank-disabled) output order: fast-search score
/// descending, then `(video id, frame index)` ascending.
fn unreranked_order(a: &RankedObject, b: &RankedObject) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| (a.video_id, a.frame_index).cmp(&(b.video_id, b.frame_index)))
}

/// Merges reranked result lists into one output (cross-modality score
/// descending, then frame index, then video id; truncated to
/// `output_frames`). The cross-modality model scores each frame
/// independently, so lists that rerank disjoint frame sets merge into the
/// list one rerank of their union would return.
pub fn merge_reranked(lists: Vec<Vec<RankedObject>>, output_frames: usize) -> Vec<RankedObject> {
    let mut merged: Vec<RankedObject> = lists.into_iter().flatten().collect();
    merged.sort_by(reranked_order);
    merged.truncate(output_frames);
    merged
}

/// The grouping rule, the one both the engine and [`group_hits_by_frame`]
/// apply: each key frame's best hit under [`SearchResult::order`] (score
/// descending, then patch id ascending), for the `limit` frames whose best
/// hits rank highest, best first. `rank` reads a hit's patch id and score.
///
/// The result depends only on the set of hits, not on their order. Frames
/// are keyed by [`frame_of`] in a map under the cheap id hash; only the
/// frames are ordered, and only the `limit` kept ones are sorted. Because
/// the packed id orders `(video, frame)` in its high bits, frames whose best
/// scores tie come out in `(video id, frame index)` order.
pub(crate) fn best_per_frame<T: Copy>(
    hits: &[T],
    limit: usize,
    rank: impl Fn(&T) -> SearchResult,
) -> Vec<T> {
    let mut slot_of: HashMap<u64, usize, IdBuildHasher> =
        HashMap::with_capacity_and_hasher(hits.len(), IdBuildHasher::default());
    let mut best: Vec<T> = Vec::new();
    for hit in hits {
        let ranked = rank(hit);
        match slot_of.entry(frame_of(ranked.id)) {
            Entry::Vacant(slot) => {
                slot.insert(best.len());
                best.push(*hit);
            }
            Entry::Occupied(slot) => {
                if let Some(kept) = best.get_mut(*slot.get()) {
                    if ranked.order(&rank(kept)) == Ordering::Less {
                        *kept = *hit;
                    }
                }
            }
        }
    }
    let by_rank = |a: &T, b: &T| rank(a).order(&rank(b));
    if limit == 0 {
        best.clear();
    } else if limit < best.len() {
        best.select_nth_unstable_by(limit - 1, by_rank);
        best.truncate(limit);
    }
    best.sort_unstable_by(by_rank);
    best
}

/// A coarse hit's patch id and score, as the grouping rule ranks it.
fn rank_of(hit: &CoarseHit) -> SearchResult {
    SearchResult {
        id: hit.patch_id,
        score: hit.score,
    }
}

/// The seed a frame's best hit makes: its score, box and timestamp.
fn seed_of(hit: &CoarseHit) -> FrameSeed {
    let (video_id, frame_index, _) = split_patch_id(hit.patch_id);
    FrameSeed {
        video_id,
        frame_index,
        score: hit.score,
        bbox: hit.bbox,
        timestamp: hit.timestamp,
    }
}

/// A search hit joined with its patch's metadata row.
fn joined(hit: &SearchResult, record: &PatchRecord) -> CoarseHit {
    let (x, y, w, h) = record.bbox;
    CoarseHit {
        patch_id: hit.id,
        score: hit.score,
        bbox: BoundingBox::new(x, y, w, h),
        // Ingest stamps the record with its key frame's timestamp.
        timestamp: Some(record.timestamp),
    }
}

/// Joins search hits with their metadata rows (one read lock for the
/// batch), keeping their order.
fn join(lovo: &Lovo, hits: &[SearchResult]) -> Result<Vec<CoarseHit>> {
    let ids: Vec<u64> = hits.iter().map(|hit| hit.id).collect();
    let records = lovo.database.patches(&ids)?;
    Ok(hits
        .iter()
        .zip(&records)
        .map(|(hit, record)| joined(hit, record))
        .collect())
}

/// Groups coarse candidates into candidate frames: one seed per key frame,
/// listed in order of each frame's best patch's rank, with that patch's
/// score and box. This is the engine's grouping rule (`best_per_frame`):
/// a frame's best patch is its best hit by score descending, then patch id
/// ascending, so on a score tie the smaller patch id's box is kept, and the
/// seeds are the same whatever order the hits come in. On best-first input
/// — what [`Lovo::coarse_plan`] returns — a frame's best patch is its first
/// hit.
///
/// A seed's timestamp is its best patch's; should that be unknown, the
/// first known timestamp among the frame's other hits, in input order.
pub fn group_hits_by_frame(hits: &[CoarseHit]) -> Vec<FrameSeed> {
    best_per_frame(hits, usize::MAX, rank_of)
        .iter()
        .map(|best| {
            let mut seed = seed_of(best);
            if seed.timestamp.is_none() {
                let frame = frame_of(best.patch_id);
                seed.timestamp = hits
                    .iter()
                    .filter(|hit| frame_of(hit.patch_id) == frame)
                    .find_map(|hit| hit.timestamp);
            }
            seed
        })
        .collect()
}

/// Assembles the ablation (rerank-disabled) output from grouped frame seeds:
/// frames whose timestamp is unknown are skipped, the rest are sorted by
/// fast-search score descending, then `(video id, frame index)` ascending,
/// and truncated to `output_frames`.
pub fn assemble_unreranked(seeds: &[FrameSeed], output_frames: usize) -> Vec<RankedObject> {
    let mut ranked: Vec<RankedObject> = seeds
        .iter()
        .filter_map(|seed| {
            seed.timestamp.map(|timestamp| RankedObject {
                video_id: seed.video_id,
                frame_index: seed.frame_index,
                timestamp,
                score: seed.score,
                bbox: seed.bbox,
            })
        })
        .collect();
    ranked.sort_by(unreranked_order);
    ranked.truncate(output_frames);
    ranked
}

/// One plan's coarse-stage output: the parsed query (kept for the rerank
/// stage, so each text is encoded once per query), the candidate patches'
/// ids and scores, unordered and unjoined, the search work counters, and
/// the encode / prune / fast-search timings.
struct CoarseOutput {
    embedding: QueryEmbedding,
    hits: Vec<SearchResult>,
    stats: SearchStats,
    timings: QueryTimings,
}

/// The batched coarse stage (Algorithm 1): encode every text, resolve each
/// *distinct* predicate once, and run one batched fan-out over the storage
/// segments. Outputs come back in plan order, each with its query's raw
/// hits; provably-empty plans get no candidates and are never searched.
fn coarse_stage(lovo: &Lovo, plans: &[QueryPlan]) -> Result<Vec<CoarseOutput>> {
    // --- Encode every query text up front (§VI-A). ---
    let mut outputs: Vec<CoarseOutput> = Vec::with_capacity(plans.len());
    for plan in plans {
        let start = Instant::now();
        let embedding = lovo.text_encoder.encode(&plan.text)?;
        outputs.push(CoarseOutput {
            embedding,
            hits: Vec::new(),
            stats: SearchStats::default(),
            timings: QueryTimings {
                text_encoding_seconds: start.elapsed().as_secs_f64(),
                ..QueryTimings::default()
            },
        });
    }

    // --- Prune: resolve each compiled predicate into a pushed-down filter.
    // Plans sharing one predicate (the common shape of a batch: many texts,
    // one scope) share one resolution — the metadata join runs once per
    // *distinct* predicate, not once per query.
    let mut resolved: Vec<PushdownFilter> = Vec::new();
    // Predicate that first resolved each slot.
    let mut resolved_pred: Vec<&lovo_store::PatchPredicate> = Vec::new();
    let mut plan_filter: Vec<Option<usize>> = Vec::with_capacity(plans.len());
    for (plan, output) in plans.iter().zip(&mut outputs) {
        let start = Instant::now();
        let mut slot = None;
        if !plan.provably_empty && !plan.patch_predicate.is_unconstrained() {
            slot = resolved_pred
                .iter()
                .position(|&first| *first == plan.patch_predicate);
            if slot.is_none() {
                if let Some(filter) = lovo.database.resolve_filter(&plan.patch_predicate) {
                    resolved.push(filter);
                    resolved_pred.push(&plan.patch_predicate);
                    slot = Some(resolved.len() - 1);
                }
            }
        }
        if plan.is_filtered() {
            output.timings.prune_seconds = start.elapsed().as_secs_f64();
        }
        plan_filter.push(slot);
    }

    // --- Coarse filtered search: all searchable plans fan out over the
    // segments together; the batch's wall-clock is attributed evenly since
    // the pass is shared.
    let requests: Vec<BatchQuery<'_>> = plans
        .iter()
        .zip(&outputs)
        .zip(&plan_filter)
        .filter(|((plan, _), _)| !plan.provably_empty)
        .map(|((plan, output), slot)| BatchQuery {
            query: output.embedding.embedding.as_slice(),
            k: plan.fast_search_k,
            filter: slot.and_then(|s| resolved.get(s)),
        })
        .collect();
    if requests.is_empty() {
        return Ok(outputs);
    }
    let search_start = Instant::now();
    let results = lovo
        .database
        .search_batch_unjoined(PATCH_COLLECTION, &requests)?;
    let shared_seconds = search_start.elapsed().as_secs_f64() / requests.len() as f64;

    let searched = outputs
        .iter_mut()
        .zip(plans)
        .filter(|(_, plan)| !plan.provably_empty);
    for ((output, _), (hits, stats)) in searched.zip(results) {
        output.timings.fast_search_seconds = shared_seconds;
        output.stats = stats;
        output.hits = hits;
    }
    Ok(outputs)
}

/// The rerank stage: re-scores the given candidate frames against the
/// parsed query with the cross-modality transformer. Frames whose key frame
/// this engine does not hold are skipped; the list comes back in
/// [`reranked_order`], untruncated.
fn rerank_stage(
    lovo: &Lovo,
    constraints: &QueryConstraints,
    seeds: &[FrameSeed],
) -> Result<Vec<RankedObject>> {
    // Hold the key-frame read lock across the rerank: candidates borrow
    // frames straight from the shared map. Readers never block each other;
    // ingest merges (the only writers) are short.
    let keyframes = lovo.keyframes.read();
    let candidates: Vec<CandidateFrame<'_>> = seeds
        .iter()
        .filter_map(|seed| {
            keyframes
                .get(&(seed.video_id, seed.frame_index))
                .map(|frame| CandidateFrame {
                    video_id: seed.video_id,
                    frame,
                    seed_box: Some(seed.bbox),
                })
        })
        .collect();
    Ok(lovo
        .rerank
        .rerank_with_constraints(constraints, &candidates)?
        .into_iter()
        .map(|r| RankedObject {
            video_id: r.video_id,
            frame_index: r.frame_index as u32,
            timestamp: r.timestamp,
            score: r.score,
            bbox: r.bbox,
        })
        .collect())
}

/// The aggregation stage: groups the raw coarse hits into candidate frames,
/// keeps the strongest of them, joins only those frames' best patches, and
/// either reranks them or — rerank disabled — assembles the fast-search
/// frame order directly. The coarse timings arrive filled in; the rerank
/// time is measured here.
///
/// The staged path ([`Lovo::coarse_plan`], [`group_hits_by_frame`], then the
/// budget cut) gives the same seeds, because:
///
/// * both group under [`best_per_frame`], whose seeds do not depend on the
///   hits' order, and a frame's seed is its best patch's row either way;
/// * the budget keeps the frames whose best patches rank highest, the
///   prefix the staged path cuts from its best-first seeds;
/// * with the rerank off, that order (score descending, then packed patch
///   id, whose high bits are `(video, frame)`) is [`assemble_unreranked`]'s,
///   and every joined timestamp is known, so the first `output_frames` seeds
///   are the ones it outputs.
///
/// Only the kept frames' rows are read, so a hit whose metadata row is
/// missing fails the query only when its frame is one of them.
fn aggregate(lovo: &Lovo, plan: &QueryPlan, coarse: CoarseOutput) -> Result<QueryResult> {
    let CoarseOutput {
        embedding,
        hits,
        stats,
        mut timings,
    } = coarse;
    let budget = if plan.enable_rerank {
        plan.rerank_frames
    } else {
        plan.output_frames
    };
    let best = best_per_frame(&hits, budget, |hit| *hit);
    let seeds: Vec<FrameSeed> = join(lovo, &best)?.iter().map(seed_of).collect();
    let frames = if plan.enable_rerank {
        let start = Instant::now();
        let ranked = rerank_stage(lovo, &embedding.parsed, &seeds)?;
        timings.rerank_seconds = start.elapsed().as_secs_f64();
        merge_reranked(vec![ranked], plan.output_frames)
    } else {
        assemble_unreranked(&seeds, plan.output_frames)
    };
    Ok(QueryResult {
        query: plan.text.clone(),
        frames,
        fast_search_candidates: hits.len(),
        reranked_frames: if plan.enable_rerank { seeds.len() } else { 0 },
        timings,
        search_stats: stats,
    })
}

/// Executes a batch of plans: one shared coarse stage, then rerank +
/// aggregation per plan. Results come back in plan order.
pub(crate) fn execute(lovo: &Lovo, plans: &[QueryPlan]) -> Result<Vec<QueryResult>> {
    coarse_stage(lovo, plans)?
        .into_iter()
        .zip(plans)
        .map(|(coarse, plan)| aggregate(lovo, plan, coarse))
        .collect()
}

/// The two stages a caller can run on its own: both take an already-compiled
/// [`QueryPlan`]; the coarse stage encodes its text, the rerank stage only
/// parses it (both are content-deterministic, so the two agree with what
/// [`Lovo::query_plans`] derives).
impl Lovo {
    /// Runs a plan's encode + prune + coarse stages — the batched coarse
    /// stage over a batch of one — returning every candidate patch joined
    /// with its metadata row, best first (score descending, then patch id
    /// ascending), together with the work counters. Each hit carries its key
    /// frame's timestamp, which [`assemble_unreranked`] needs.
    /// Provably-empty plans return no candidates without searching.
    ///
    /// The trailing `usize` is accepted and ignored. It was a scan-thread
    /// count, and stays only because the stand-alone end-to-end benchmark
    /// package calls this signature; ROADMAP item 2f drops it together with
    /// that package's call.
    pub fn coarse_plan(
        &self,
        plan: &QueryPlan,
        _ignored: usize,
    ) -> Result<(Vec<CoarseHit>, SearchStats)> {
        let Some(CoarseOutput {
            mut hits, stats, ..
        }) = coarse_stage(self, std::slice::from_ref(plan))?.pop()
        else {
            return Ok(Default::default());
        };
        hits.sort_unstable_by(SearchResult::order);
        Ok((join(self, &hits)?, stats))
    }

    /// Runs a plan's rerank stage over the given candidate frames: frames
    /// whose key frame this engine does not hold are skipped, and the
    /// reranked list comes back best-first but *untruncated* —
    /// [`merge_reranked`] applies the output budget.
    pub fn rerank_plan(&self, plan: &QueryPlan, seeds: &[FrameSeed]) -> Result<Vec<RankedObject>> {
        rerank_stage(self, &TextEncoder::parse(&plan.text), seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::patch_id;

    /// The grouping rule as it stood before the engine grouped raw hits: on
    /// best-first input, a frame's first hit seeds it (a later hit replaces
    /// its score and box only when strictly greater), frames are listed in
    /// first-occurrence order, and a missing timestamp is filled from the
    /// frame's first later hit that has one.
    fn first_occurrence_reference(hits: &[CoarseHit]) -> Vec<FrameSeed> {
        let mut seeds: Vec<FrameSeed> = Vec::new();
        for hit in hits {
            let (video_id, frame_index, _) = split_patch_id(hit.patch_id);
            match seeds
                .iter_mut()
                .find(|seed| (seed.video_id, seed.frame_index) == (video_id, frame_index))
            {
                Some(seed) => {
                    if hit.score > seed.score {
                        seed.score = hit.score;
                        seed.bbox = hit.bbox;
                    }
                    if seed.timestamp.is_none() {
                        seed.timestamp = hit.timestamp;
                    }
                }
                None => seeds.push(FrameSeed {
                    video_id,
                    frame_index,
                    score: hit.score,
                    bbox: hit.bbox,
                    timestamp: hit.timestamp,
                }),
            }
        }
        seeds
    }

    /// A xorshift stream, enough to shuffle and draw fixtures reproducibly.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                items.swap(i, self.below(i as u64 + 1) as usize);
            }
        }
    }

    /// Hits over a few frames of a few videos, many per frame, with scores
    /// drawn from four values so patches tie inside a frame and frames tie
    /// on their best score; every patch has its own box, and one hit in
    /// five has no timestamp.
    fn tied_hits(seed: u64, count: usize) -> Vec<CoarseHit> {
        let mut stream = Stream(seed | 1);
        let mut ids: Vec<u64> = Vec::new();
        while ids.len() < count {
            let id = patch_id(
                stream.below(3) as u32,
                stream.below(6) as u32,
                stream.below(40) as u32,
            );
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids.into_iter()
            .map(|patch_id| {
                let (video, frame, patch) = split_patch_id(patch_id);
                CoarseHit {
                    patch_id,
                    score: [0.25, 0.5, 0.75, 1.0][stream.below(4) as usize],
                    bbox: BoundingBox::new(patch as f32, video as f32, 1.0, 1.0),
                    timestamp: (stream.below(5) > 0).then_some(f64::from(frame) / 30.0),
                }
            })
            .collect()
    }

    fn best_first(mut hits: Vec<CoarseHit>) -> Vec<CoarseHit> {
        hits.sort_unstable_by(|a, b| rank_of(a).order(&rank_of(b)));
        hits
    }

    #[test]
    fn grouping_equals_the_first_occurrence_rule_on_best_first_input() {
        for seed in 1..40 {
            let hits = best_first(tied_hits(seed, 60));
            assert_eq!(
                group_hits_by_frame(&hits),
                first_occurrence_reference(&hits),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn grouping_ignores_the_order_hits_arrive_in() {
        for seed in 1..40 {
            let sorted = best_first(tied_hits(seed, 60));
            let expected = best_per_frame(&sorted, usize::MAX, rank_of);
            let mut shuffled = sorted.clone();
            Stream(seed.wrapping_mul(0x9e37_79b9) | 1).shuffle(&mut shuffled);
            let reversed: Vec<CoarseHit> = sorted.iter().rev().copied().collect();
            for arranged in [shuffled, reversed] {
                assert_eq!(
                    best_per_frame(&arranged, usize::MAX, rank_of),
                    expected,
                    "seed {seed}"
                );
                // Every limit keeps the same best-first prefix.
                for limit in [0, 1, 3, 7, 100] {
                    let kept = best_per_frame(&arranged, limit, rank_of);
                    assert_eq!(kept, expected[..limit.min(expected.len())], "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn tied_frames_order_by_video_then_frame_and_tied_patches_by_id() {
        let hit = |video, frame, patch, score| CoarseHit {
            patch_id: patch_id(video, frame, patch),
            score,
            bbox: BoundingBox::new(patch as f32, 0.0, 1.0, 1.0),
            timestamp: Some(1.0),
        };
        let hits = [
            hit(1, 0, 5, 0.5),
            hit(0, 3, 9, 0.5),
            hit(0, 3, 2, 0.5),
            hit(0, 1, 7, 0.5),
            hit(1, 0, 1, 0.25),
        ];
        let seeds = group_hits_by_frame(&hits);
        let keys: Vec<(u32, u32, f32)> = seeds
            .iter()
            .map(|seed| (seed.video_id, seed.frame_index, seed.bbox.x))
            .collect();
        // Equal best scores: `(video, frame)` ascending; inside frame
        // (0, 3) the smaller patch id's box.
        assert_eq!(keys, vec![(0, 1, 7.0), (0, 3, 2.0), (1, 0, 5.0)]);
    }
}
