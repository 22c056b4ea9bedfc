//! The plan executor: runs [`QueryPlan`]s produced by the
//! [`crate::planner::QueryPlanner`] against a built [`Lovo`] system.
//!
//! Each stage of [`crate::planner::PlanStage`] is written here exactly once,
//! and every executor is a composition of the same three functions:
//!
//! 1. **coarse stage** (crate-private, batched) — **encode** every text in
//!    the batch, **prune** by resolving each *distinct* compiled predicate
//!    once into a pushed-down filter (video-only predicates compile to an id
//!    bit test; time/class predicates join the metadata table once;
//!    provably-empty plans are never searched), then run the **coarse**
//!    search for all remaining queries in one batched fan-out over the
//!    storage segments (one collection lock acquisition, one segment walk
//!    shared by the batch), each with its own filter;
//! 2. **rerank stage** (crate-private) — the cross-modality transformer
//!    re-scores a list of candidate frames against one parsed query;
//! 3. [`aggregate`] — merges per-source coarse lists, groups them into
//!    candidate frames, truncates to the rerank budget, calls a *rerank
//!    callback*, and assembles the [`QueryResult`] with per-stage timings.
//!
//! [`Lovo::query_plans`] is the coarse stage over the batch followed by
//! [`aggregate`] per plan with a local rerank callback; [`Lovo::coarse_plan`]
//! and [`Lovo::rerank_plan`] are the coarse stage over a batch of one and the
//! rerank stage — the halves an engine exposes as a *shard* — and the shard
//! router calls the same [`aggregate`] with one coarse list per shard and a
//! callback that scatters the rerank to each frame's owning shard.

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

/// One coarse-stage candidate patch in shard-portable form: the packed patch
/// id, its fast-search score, the patch's bounding box, and the owning key
/// frame's timestamp.
///
/// The shard router's coarse responses carry these across the router↔shard
/// boundary and the single-engine executor builds the same values, so both
/// feed one [`aggregate`] — which is what makes sharded answers bit-identical
/// to single-engine ones.
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
/// timestamp when known. Produced by [`group_hits_by_frame`]; the shard
/// router ships these back to each frame's owning shard for the rerank
/// stage.
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

/// The coarse candidate order: score descending, packed patch id ascending —
/// the same total order the segment-level top-k merge uses, exposed as a
/// comparator so the shard router can merge concatenated per-shard lists
/// into exactly the sequence a single engine's fast search would return.
pub fn coarse_hit_order(a: &CoarseHit, b: &CoarseHit) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.patch_id.cmp(&b.patch_id))
}

/// The reranked output order: cross-modality score descending, then frame
/// index, then video id — the exact sort `rerank_with_constraints` applies
/// internally, exposed so the shard router's merge of per-shard reranked
/// lists reproduces the single-engine sequence.
pub fn reranked_order(a: &RankedObject, b: &RankedObject) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.frame_index.cmp(&b.frame_index))
        .then_with(|| a.video_id.cmp(&b.video_id))
}

/// The ablation (rerank-disabled) output order: fast-search score
/// descending, then `(video id, frame index)` ascending.
pub fn unreranked_order(a: &RankedObject, b: &RankedObject) -> Ordering {
    b.score
        .partial_cmp(&a.score)
        .unwrap_or(Ordering::Equal)
        .then_with(|| (a.video_id, a.frame_index).cmp(&(b.video_id, b.frame_index)))
}

/// Merges per-shard coarse top-k lists into the global top-`k`, in the order
/// a single engine's fast search would return them ([`coarse_hit_order`]).
/// Correct because each shard returns *its* top-`k` under the same total
/// order, and every member of the global top-`k` residing on shard `s` is
/// necessarily in `s`'s local top-`k`.
pub fn merge_coarse(lists: Vec<Vec<CoarseHit>>, k: usize) -> Vec<CoarseHit> {
    let mut merged: Vec<CoarseHit> = lists.into_iter().flatten().collect();
    merged.sort_by(coarse_hit_order);
    merged.truncate(k);
    merged
}

/// Merges per-shard reranked result lists into the global output
/// ([`reranked_order`], truncated to `output_frames`). Exact because the
/// cross-modality model scores each frame independently and frames are
/// partitioned across shards, so the union of per-shard sorted lists is a
/// permutation-free merge of the single-engine list.
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
/// [`unreranked_order`] and truncated to `output_frames`.
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

/// The aggregation stage, shared by every executor: merges the per-source
/// coarse lists (one for a single engine, one per shard behind a router)
/// into the global candidate order, groups them into candidate frames, and
/// either hands the strongest `rerank_frames` of them to `rerank` and merges
/// the reranked lists it returns, or — rerank disabled — assembles the
/// fast-search frame order directly. `timings` arrives with the caller's
/// coarse-stage times filled in; the rerank time is measured here.
///
/// `rerank` receives the candidate frames in global rank order and returns
/// one [`reranked_order`]-sorted list per source that scored some of them.
/// Because the single engine and the shard router differ *only* in that
/// callback, their answers agree by construction.
pub fn aggregate<E>(
    plan: &QueryPlan,
    coarse: Vec<Vec<CoarseHit>>,
    search_stats: SearchStats,
    mut timings: QueryTimings,
    rerank: impl FnOnce(&[FrameSeed]) -> std::result::Result<Vec<Vec<RankedObject>>, E>,
) -> std::result::Result<QueryResult, E> {
    let merged = merge_coarse(coarse, plan.fast_search_k);
    let mut seeds = group_hits_by_frame(&merged);
    let frames = if plan.enable_rerank {
        // Bound the expensive stage: `seeds` lists frames in order of their
        // best patch's fast-search rank, so truncation keeps the strongest.
        seeds.truncate(plan.rerank_frames);
        let start = Instant::now();
        let lists = rerank(&seeds)?;
        timings.rerank_seconds = start.elapsed().as_secs_f64();
        merge_reranked(lists, plan.output_frames)
    } else {
        assemble_unreranked(&seeds, plan.output_frames)
    };
    Ok(QueryResult {
        query: plan.text.clone(),
        frames,
        fast_search_candidates: merged.len(),
        reranked_frames: if plan.enable_rerank { seeds.len() } else { 0 },
        timings,
        search_stats,
    })
}

/// Executes a batch of plans: one shared coarse stage, then rerank +
/// aggregation per plan. Results come back in plan order.
pub(crate) fn execute(lovo: &Lovo, plans: &[QueryPlan]) -> Result<Vec<QueryResult>> {
    coarse_stage(lovo, plans)?
        .into_iter()
        .zip(plans)
        .map(|(coarse, plan)| {
            aggregate(
                plan,
                vec![coarse.hits],
                coarse.stats,
                coarse.timings,
                |seeds| Ok(vec![rerank_stage(lovo, &coarse.embedding.parsed, seeds)?]),
            )
        })
        .collect()
}

/// The stage halves one engine exposes when it acts as a *shard*: a router
/// runs a plan's coarse stage against each shard's local segments, then the
/// rerank stage over the frames it assigns back to their owning shard, and
/// aggregates through [`aggregate`]. Both take an already-compiled
/// [`QueryPlan`] (compiled once at the router), and both read the query
/// text locally — the coarse stage encodes it, the rerank stage only parses
/// it: both are content-deterministic, so every shard derives what the
/// router's twin engine would.
impl Lovo {
    /// Runs a plan's encode + prune + coarse stages against this engine
    /// only — the batched coarse stage over a batch of one — returning
    /// candidate patches in fast-search order together with the work
    /// counters. Each hit carries its key frame's timestamp so a router can
    /// assemble rerank-disabled results without touching this engine again.
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

    /// Runs a plan's rerank stage over the given candidate frames on this
    /// engine: frames whose key frame this engine does not hold are skipped,
    /// and the reranked list comes back sorted by [`reranked_order`] but
    /// *untruncated* — the router applies the output budget globally after
    /// merging every shard's list.
    pub fn rerank_plan(&self, plan: &QueryPlan, seeds: &[FrameSeed]) -> Result<Vec<RankedObject>> {
        rerank_stage(self, &TextEncoder::parse(&plan.text), seeds)
    }
}
