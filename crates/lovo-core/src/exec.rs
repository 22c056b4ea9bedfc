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
//!    batch), each with its own filter;
//! 2. **rerank stage** — the cross-modality transformer re-scores a list of
//!    candidate frames against one parsed query;
//! 3. **aggregate** — groups the coarse list into candidate frames,
//!    truncates to the rerank budget, reranks, and assembles the
//!    [`QueryResult`] with per-stage timings.
//!
//! [`Lovo::query_plans`] is the coarse stage over the batch followed by the
//! aggregation per plan. [`Lovo::coarse_plan`] and [`Lovo::rerank_plan`]
//! expose the coarse stage over a batch of one and the rerank stage, and
//! [`group_hits_by_frame`], [`merge_reranked`] and [`assemble_unreranked`]
//! the pieces of the aggregation, so a caller can run a query stage by stage
//! and time each stage on its own.

use crate::engine::{Lovo, QueryResult, QueryTimings, RankedObject};
use crate::planner::QueryPlan;
use crate::summary::{split_patch_id, PATCH_COLLECTION};
use crate::Result;
use lovo_encoder::cross_modality::CandidateFrame;
use lovo_encoder::{QueryEmbedding, TextEncoder};
use lovo_index::SearchStats;
use lovo_store::{BatchQuery, PushdownFilter};
use lovo_video::bbox::BoundingBox;
use lovo_video::QueryConstraints;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
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

/// Groups coarse candidates (given best-first) into candidate frames: one
/// seed per key frame, listed in order of each frame's best patch's rank,
/// keeping the best score/box per frame (strictly-greater wins, so on score
/// ties the earlier — smaller-patch-id — box is kept).
pub fn group_hits_by_frame(hits: &[CoarseHit]) -> Vec<FrameSeed> {
    let mut order: Vec<(u32, u32)> = Vec::new();
    let mut best: HashMap<(u32, u32), FrameSeed> = HashMap::new();
    for hit in hits {
        let (video_id, frame_index, _) = split_patch_id(hit.patch_id);
        let key = (video_id, frame_index);
        match best.get_mut(&key) {
            Some(existing) => {
                if hit.score > existing.score {
                    existing.score = hit.score;
                    existing.bbox = hit.bbox;
                }
                if existing.timestamp.is_none() {
                    existing.timestamp = hit.timestamp;
                }
            }
            None => {
                best.insert(
                    key,
                    FrameSeed {
                        video_id,
                        frame_index,
                        score: hit.score,
                        bbox: hit.bbox,
                        timestamp: hit.timestamp,
                    },
                );
                order.push(key);
            }
        }
    }
    order
        .iter()
        .filter_map(|key| best.get(key).copied())
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
/// stage, so each text is encoded once per query), the candidate patches in
/// fast-search order with their key-frame timestamps attached, the search
/// work counters, and the encode / prune / fast-search timings.
struct CoarseOutput {
    embedding: QueryEmbedding,
    hits: Vec<CoarseHit>,
    stats: SearchStats,
    timings: QueryTimings,
}

/// The batched coarse stage (Algorithm 1): encode every text, resolve each
/// *distinct* predicate once, run one batched fan-out over the storage
/// segments, and attach each candidate's key-frame timestamp. Outputs come
/// back in plan order; provably-empty plans get no candidates and are never
/// searched.
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
        .search_batch_with_stats_opts(PATCH_COLLECTION, &requests, 0)?;
    let shared_seconds = search_start.elapsed().as_secs_f64() / requests.len() as f64;

    let searched = outputs
        .iter_mut()
        .zip(plans)
        .filter(|(_, plan)| !plan.provably_empty);
    for ((output, _), (hits, stats)) in searched.zip(results) {
        output.timings.fast_search_seconds = shared_seconds;
        output.stats = stats;
        output.hits = hits
            .iter()
            .map(|hit| {
                let (x, y, w, h) = hit.record.bbox;
                CoarseHit {
                    patch_id: hit.patch_id,
                    score: hit.score,
                    bbox: BoundingBox::new(x, y, w, h),
                    // Ingest stamps the record with its key frame's timestamp.
                    timestamp: Some(hit.record.timestamp),
                }
            })
            .collect();
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

/// The aggregation stage: groups the coarse list into candidate frames and
/// either reranks the strongest `rerank_frames` of them or — rerank disabled
/// — assembles the fast-search frame order directly. The collection's top-k
/// merge already returns the hits best-first (score descending, patch id
/// ascending) and at most `fast_search_k` of them, so they are grouped as
/// they come. The coarse timings arrive filled in; the rerank time is
/// measured here.
fn aggregate(lovo: &Lovo, plan: &QueryPlan, coarse: CoarseOutput) -> Result<QueryResult> {
    let CoarseOutput {
        embedding,
        hits,
        stats,
        mut timings,
    } = coarse;
    let mut seeds = group_hits_by_frame(&hits);
    let frames = if plan.enable_rerank {
        // Bound the expensive stage: `seeds` lists frames in order of their
        // best patch's fast-search rank, so truncation keeps the strongest.
        seeds.truncate(plan.rerank_frames);
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
    /// stage over a batch of one — returning candidate patches in
    /// fast-search order together with the work counters. Each hit carries
    /// its key frame's timestamp, which [`assemble_unreranked`] needs.
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
        let output = coarse_stage(self, std::slice::from_ref(plan))?.pop();
        Ok(output.map(|o| (o.hits, o.stats)).unwrap_or_default())
    }

    /// Runs a plan's rerank stage over the given candidate frames: frames
    /// whose key frame this engine does not hold are skipped, and the
    /// reranked list comes back best-first but *untruncated* —
    /// [`merge_reranked`] applies the output budget.
    pub fn rerank_plan(&self, plan: &QueryPlan, seeds: &[FrameSeed]) -> Result<Vec<RankedObject>> {
        rerank_stage(self, &TextEncoder::parse(&plan.text), seeds)
    }
}
