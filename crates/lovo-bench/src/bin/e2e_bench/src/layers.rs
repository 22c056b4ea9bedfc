//! The traced pass: each operation is run once for real inside a root span,
//! then decomposed by calling every stage's public function, in the engine's
//! own order, inside child spans. The engine is opaque from outside, so the
//! children follow their root in time instead of nesting inside it; `parent`
//! says which real call they decompose. An unfaithful decomposition shows as
//! failed ops: a staged query must give the real answer, and a staged ingest
//! must do the work the real call's `IngestStats` reports.

use crate::check::Failure;
use crate::trace::{OpRef, Tracer};
use lovo_core::summary::{patch_id, PATCH_COLLECTION};
use lovo_core::{
    assemble_unreranked, group_hits_by_frame, merge_reranked, CoarseHit, IngestStats, Lovo,
    LovoConfig, LovoError, QueryResult, QuerySpec, SearchStats,
};
use lovo_encoder::{TextEncoder, VisualEncoder};
use lovo_store::{BatchQuery, CollectionConfig, PatchRecord, VectorDatabase};
use lovo_video::{BoundingBox, Frame, KeyframeExtractor, VideoCollection};

/// Counts of the traced query ops, summed from the structs the calls return.
#[derive(Debug, Clone, Default)]
pub struct QueryCounts {
    pub ops: u64,
    pub search: SearchStats,
    pub frames_reranked: u64,
}

/// Runs one query for real (`core.query_spec`), then stage by stage. Returns
/// the real result; `Err` when the call fails or the stages disagree with it.
pub fn traced_query(
    tracer: &mut Tracer,
    at: OpRef,
    engine: &Lovo,
    text_encoder: &TextEncoder,
    spec: &QuerySpec,
    counts: &mut QueryCounts,
) -> Result<QueryResult, Failure> {
    let (root, direct) = tracer.span("core.query_spec", at, || engine.query_spec(spec));
    let direct = direct.map_err(|_| Failure::Error)?;
    let at = at.under(root);
    counts.ops += 1;
    counts.frames_reranked += direct.reranked_frames as u64;

    let (_, plan) = tracer.span("core.plan", at, || engine.plan(spec));
    if plan.provably_empty {
        return Ok(direct);
    }
    let (_, embedding) = tracer.span("encoder.text", at, || text_encoder.encode(&plan.text));
    let embedding = embedding.map_err(|_| Failure::Error)?;
    let database = engine.database();
    let filter = if plan.patch_predicate.is_unconstrained() {
        None
    } else {
        tracer
            .span("store.resolve_filter", at, || {
                database.resolve_filter(&plan.patch_predicate)
            })
            .1
    };
    let request = BatchQuery {
        query: embedding.embedding.as_slice(),
        k: plan.fast_search_k,
        filter: filter.as_ref(),
    };
    let (_, searched) = tracer.span("store.search", at, || {
        database.search_batch_with_stats_opts(
            PATCH_COLLECTION,
            std::slice::from_ref(&request),
            // Automatic fan-out, as `Lovo::query_spec` asks for.
            0,
        )
    });
    let (hits, stats) = searched
        .map_err(|_| Failure::Error)?
        .pop()
        .unwrap_or_default();
    counts.search.merge(&stats);

    let (_, seeds) = tracer.span("core.group", at, || {
        let coarse: Vec<CoarseHit> = hits
            .iter()
            .map(|hit| {
                let (x, y, w, h) = hit.record.bbox;
                CoarseHit {
                    patch_id: hit.patch_id,
                    score: hit.score,
                    bbox: BoundingBox::new(x, y, w, h),
                    timestamp: Some(hit.record.timestamp),
                }
            })
            .collect();
        let mut seeds = group_hits_by_frame(&coarse);
        if plan.enable_rerank {
            seeds.truncate(plan.rerank_frames);
        }
        seeds
    });
    let staged = if plan.enable_rerank {
        let (_, ranked) = tracer.span("encoder.rerank", at, || engine.rerank_plan(&plan, &seeds));
        let ranked = ranked.map_err(|_| Failure::Error)?;
        tracer
            .span("core.aggregate", at, || {
                merge_reranked(vec![ranked], plan.output_frames)
            })
            .1
    } else {
        tracer
            .span("core.aggregate", at, || {
                assemble_unreranked(&seeds, plan.output_frames)
            })
            .1
    };
    if staged != direct.frames {
        return Err(Failure::DiffersFromDirect);
    }
    Ok(direct)
}

/// Totals of the traced ingest ops, from the `IngestStats` the real calls
/// returned; the WAL bytes are the replay's, whose scratch store logs the
/// same rows.
#[derive(Debug, Clone, Default)]
pub struct IngestCounts {
    pub ops: u64,
    pub frames: u64,
    pub key_frames: u64,
    pub patches: u64,
    pub segments_sealed: u64,
    pub wal_bytes: u64,
}

/// What one stage-by-stage replay did to its scratch database.
struct Replayed {
    /// Key frames encoded, patches inserted, segments sealed: must equal the
    /// real call's `IngestStats`.
    work: (usize, usize, usize),
    wal_bytes: u64,
}

/// The stage functions of the video-summary pipeline, built once per run
/// from the engine configuration.
pub struct IngestStages {
    extractor: KeyframeExtractor,
    encoder: VisualEncoder,
    config: LovoConfig,
}

impl IngestStages {
    pub fn new(config: LovoConfig) -> Result<Self, LovoError> {
        Ok(Self {
            extractor: KeyframeExtractor::new(config.keyframe_policy),
            encoder: VisualEncoder::new(config.visual)?,
            config,
        })
    }

    /// Runs one ingest for real (`core.ingest`, through `ingest`), then
    /// replays `videos` stage by stage into `scratch` — a database of the
    /// same kind (durable or not) that already holds what the engine held.
    pub fn traced_ingest(
        &self,
        tracer: &mut Tracer,
        at: OpRef,
        videos: &VideoCollection,
        scratch: &VectorDatabase,
        counts: &mut IngestCounts,
        ingest: impl FnOnce() -> Result<IngestStats, LovoError>,
    ) -> Result<(), Failure> {
        let (root, stats) = tracer.span("core.ingest", at, ingest);
        let stats = stats.map_err(|_| Failure::Error)?;
        counts.ops += 1;
        counts.frames += stats.total_frames as u64;
        counts.key_frames += stats.key_frames as u64;
        counts.patches += stats.patches_indexed as u64;
        counts.segments_sealed += stats.segments_sealed as u64;
        let replayed = self
            .replay(tracer, at.under(root), videos, scratch)
            .map_err(|_| Failure::Error)?;
        counts.wal_bytes += replayed.wal_bytes;
        // The replay must have done the work the real call reports, or its
        // stage times decompose something else.
        let real = (
            stats.key_frames,
            stats.patches_indexed,
            stats.segments_sealed,
        );
        if replayed.work != real {
            return Err(Failure::DiffersFromDirect);
        }
        Ok(())
    }

    fn replay(
        &self,
        tracer: &mut Tracer,
        at: OpRef,
        videos: &VideoCollection,
        scratch: &VectorDatabase,
    ) -> Result<Replayed, LovoError> {
        let (_, selected) = tracer.span("video.keyframe", at, || {
            let mut selected: Vec<(u32, &Frame)> = Vec::new();
            for video in &videos.videos {
                for index in self.extractor.select_indices(&video.frames) {
                    selected.push((video.id, &video.frames[index]));
                }
            }
            selected
        });
        let (_, encodings) = tracer.span("encoder.visual", at, || {
            selected
                .iter()
                .map(|(_, frame)| self.encoder.encode_frame(frame))
                .collect::<Result<Vec<_>, _>>()
        });
        let encodings = encodings?;
        let durable = scratch.is_durable();
        let blobs: Vec<Vec<u8>> = if durable {
            tracer
                .span("video.wire_encode", at, || {
                    selected
                        .iter()
                        .map(|(_, frame)| lovo_video::wire::encode_frame(frame))
                        .collect()
                })
                .1
        } else {
            Vec::new()
        };

        if !scratch.has_collection(PATCH_COLLECTION) {
            scratch.create_collection(
                PATCH_COLLECTION,
                CollectionConfig::new(self.config.visual.class_dim)
                    .with_index_kind(self.config.index_kind)
                    .with_segment_capacity(self.config.segment_capacity),
            )?;
        }
        let sealed_before = scratch.collection_stats(PATCH_COLLECTION)?.sealed_segments;
        let wal_before = scratch.wal_bytes();
        let mut blobs = blobs.into_iter();
        let (_, inserted) = tracer.span("store.insert", at, || -> Result<usize, LovoError> {
            let mut patches = 0;
            for ((video_id, frame), encoding) in selected.iter().zip(&encodings) {
                let blob = blobs.next();
                let rows: Vec<(&[f32], PatchRecord)> = encoding
                    .patches
                    .iter()
                    .filter(|patch| patch.objectness >= self.config.min_objectness)
                    .map(|patch| {
                        let frame_index = frame.index as u32;
                        let record = PatchRecord {
                            patch_id: patch_id(*video_id, frame_index, patch.patch_index),
                            video_id: *video_id,
                            frame_index,
                            patch_index: patch.patch_index,
                            bbox: (
                                patch.predicted_box.x,
                                patch.predicted_box.y,
                                patch.predicted_box.w,
                                patch.predicted_box.h,
                            ),
                            timestamp: frame.timestamp,
                            class_code: patch.dominant_class.map(|class| class.code() as u8),
                        };
                        (patch.class_embedding.as_slice(), record)
                    })
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                patches += match blob {
                    Some(blob) => {
                        let frame_key = (u64::from(*video_id) << 32) | frame.index as u32 as u64;
                        scratch.insert_patches_with_aux(
                            PATCH_COLLECTION,
                            rows,
                            vec![(frame_key, blob)],
                        )?
                    }
                    None => scratch.insert_patches(PATCH_COLLECTION, rows)?,
                };
            }
            Ok(patches)
        });
        let patches = inserted?;
        let wal_bytes = scratch.wal_bytes().saturating_sub(wal_before);
        let (_, sealed) = tracer.span("store.seal", at, || {
            scratch.seal_collection(PATCH_COLLECTION)
        });
        sealed?;
        let sealed_after = scratch.collection_stats(PATCH_COLLECTION)?.sealed_segments;
        Ok(Replayed {
            work: (
                selected.len(),
                patches,
                sealed_after.saturating_sub(sealed_before),
            ),
            wal_bytes,
        })
    }
}
