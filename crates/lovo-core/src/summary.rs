//! The Video Summary module (§IV): key-frame extraction, visual encoding, and
//! vector-collection construction.
//!
//! Summarization is query-agnostic and — since the segmented storage engine —
//! *incremental*: [`VideoSummarizer::ingest_into`] appends one batch of
//! videos to an existing database, sealing the rows it adds into fresh
//! storage segments without ever touching (or rebuilding) segments from
//! earlier batches. Each selected key frame is encoded into per-patch class
//! embeddings and predicted boxes; every patch becomes one row of the vector
//! collection with a globally unique patch id, and its metadata row (video,
//! frame, patch index, box, timestamp) goes to the relational store in the
//! same per-frame batch, so the database write lock is taken once per frame
//! rather than once per patch.
//!
//! Ingest streams: the selected key frames are encoded and inserted in
//! fixed chunks, and a chunk's patch encodings are dropped before the next
//! chunk is encoded, so a batch holds one chunk of encodings at a time
//! however long its videos are. Encoding within a chunk is spread over a
//! scoped thread pool sized by [`crate::LovoConfig::ingest_workers`]. The
//! output is deterministic regardless of thread count and chunk size: patch
//! ids are assigned from the frame's position, not from completion order,
//! and rows reach the store in frame order either way.

use crate::config::LovoConfig;
use crate::{LovoError, Result};
use lovo_encoder::{FrameEncoding, VisualEncoder};
use lovo_store::{PatchRecord, VectorDatabase};
use lovo_video::keyframe::KeyframeExtractor;
use lovo_video::{Frame, VideoCollection};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Name of the vector collection LOVO stores patch embeddings in.
pub const PATCH_COLLECTION: &str = "lovo_patches";

// The packed patch id is owned by the storage crate since the planner
// refactor — the store itself exploits the packing for video-predicate bit
// tests and zone-map pruning. Re-exported here because the engine assigns
// the ids and long-standing callers import them from this module.
pub use lovo_store::patchid::{patch_id, split_patch_id, MAX_PATCH_INDEX, MAX_VIDEO_ID};

/// Key frames each ingest worker encodes per chunk. A batch holds the patch
/// encodings of one chunk (`workers` × this many key frames) at a time.
const KEY_FRAMES_PER_WORKER_CHUNK: usize = 32;

/// Statistics of one ingestion run. [`IngestStats::accumulate`] folds the
/// per-run statistics of incremental appends into a lifetime total.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IngestStats {
    /// Total frames in the input collection.
    pub total_frames: usize,
    /// Key frames selected for encoding.
    pub key_frames: usize,
    /// Patch embeddings inserted into the vector collection.
    pub patches_indexed: usize,
    /// Wall-clock seconds spent extracting key frames.
    pub keyframe_seconds: f64,
    /// Wall-clock seconds spent encoding frames (visual encoder), summed
    /// over the run's chunks.
    pub encoding_seconds: f64,
    /// Wall-clock seconds spent inserting + sealing segments, summed over
    /// the run's chunks.
    pub indexing_seconds: f64,
    /// Storage segments sealed by this run.
    pub segments_sealed: usize,
    /// Segment ANN index builds performed by this run. Incremental appends
    /// build only the segments they seal — never existing ones — so this
    /// stays proportional to the appended batch, not the collection.
    pub index_builds: usize,
}

impl IngestStats {
    /// Total processing time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.keyframe_seconds + self.encoding_seconds + self.indexing_seconds
    }

    /// Folds another run's statistics into this one (used by the engine to
    /// keep a lifetime total across incremental appends). The exhaustive
    /// destructuring makes a new field a compile error here until it is
    /// folded.
    pub fn accumulate(&mut self, run: &IngestStats) {
        let Self {
            total_frames,
            key_frames,
            patches_indexed,
            keyframe_seconds,
            encoding_seconds,
            indexing_seconds,
            segments_sealed,
            index_builds,
        } = *run;
        self.total_frames += total_frames;
        self.key_frames += key_frames;
        self.patches_indexed += patches_indexed;
        self.keyframe_seconds += keyframe_seconds;
        self.encoding_seconds += encoding_seconds;
        self.indexing_seconds += indexing_seconds;
        self.segments_sealed += segments_sealed;
        self.index_builds += index_builds;
    }
}

/// A key frame retained for query-time rerank, addressed by `(video, frame)`.
pub type KeyframeMap = HashMap<(u32, u32), Frame>;

/// The video-summary pipeline.
pub struct VideoSummarizer {
    encoder: VisualEncoder,
    extractor: KeyframeExtractor,
    min_objectness: f32,
    index_kind: lovo_index::IndexKind,
    segment_capacity: usize,
    workers: usize,
}

impl VideoSummarizer {
    /// Creates a summarizer from the system configuration.
    pub fn new(config: &LovoConfig) -> Result<Self> {
        let workers = if config.ingest_workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.ingest_workers
        };
        Ok(Self {
            encoder: VisualEncoder::new(config.visual)?,
            extractor: KeyframeExtractor::new(config.keyframe_policy),
            min_objectness: config.min_objectness,
            index_kind: config.index_kind,
            segment_capacity: config.segment_capacity,
            workers,
        })
    }

    /// Borrow the underlying visual encoder (the query engine shares its
    /// attribute space).
    pub fn encoder(&self) -> &VisualEncoder {
        &self.encoder
    }

    /// Resolved ingest worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the full summary pipeline over a fresh database: key-frame
    /// extraction, encoding, and insertion. Returns ingestion statistics and
    /// the map of retained key frames used later by the rerank stage.
    pub fn ingest(
        &self,
        videos: &VideoCollection,
        database: &VectorDatabase,
    ) -> Result<(IngestStats, KeyframeMap)> {
        let keyframes = RwLock::new(KeyframeMap::new());
        let stats = self.ingest_into(videos, database, &keyframes)?;
        Ok((stats, keyframes.into_inner()))
    }

    /// Appends one batch of videos to `database`, extending `keyframes` with
    /// the batch's retained key frames. The key frames are published — under
    /// one short write lock, right after selection — before the first of
    /// their vectors is inserted, so a racing query that finds a frame's
    /// patches also finds the frame to rerank. The key frames are then
    /// encoded and inserted chunk by chunk (see the module docs), so the
    /// run holds one chunk of patch encodings, never the batch's. The
    /// appended rows land in the collection's growing segment(s) and are
    /// sealed at the end of the run; segments sealed by earlier runs are
    /// never rebuilt, which is what makes incremental ingest cost
    /// proportional to the batch.
    pub fn ingest_into(
        &self,
        videos: &VideoCollection,
        database: &VectorDatabase,
        keyframes: &RwLock<KeyframeMap>,
    ) -> Result<IngestStats> {
        let chunk_frames = self.workers.max(1) * KEY_FRAMES_PER_WORKER_CHUNK;
        self.ingest_chunked(videos, database, keyframes, chunk_frames)
    }

    /// [`VideoSummarizer::ingest_into`] over chunks of `chunk_frames` key
    /// frames (`usize::MAX` encodes the whole batch before inserting).
    fn ingest_chunked(
        &self,
        videos: &VideoCollection,
        database: &VectorDatabase,
        keyframes: &RwLock<KeyframeMap>,
        chunk_frames: usize,
    ) -> Result<IngestStats> {
        for video in &videos.videos {
            if video.id > MAX_VIDEO_ID {
                return Err(LovoError::InvalidState(format!(
                    "video id {} exceeds the patch-id packing limit {MAX_VIDEO_ID}; \
                     larger ids would wrap and collide",
                    video.id
                )));
            }
        }
        let mut stats = IngestStats {
            total_frames: videos.total_frames(),
            ..Default::default()
        };

        // --- key-frame extraction (§IV-A) ---
        let keyframe_start = Instant::now();
        let mut selected: Vec<(u32, &Frame)> = Vec::new();
        for video in &videos.videos {
            for idx in self.extractor.select_indices(&video.frames) {
                selected.push((video.id, &video.frames[idx]));
            }
        }
        stats.key_frames = selected.len();
        stats.keyframe_seconds = keyframe_start.elapsed().as_secs_f64();
        // If encoding or an insert below fails, key frames without vectors
        // stay published: harmless, as no lookup names them.
        keyframes.write().extend(
            selected
                .iter()
                .map(|(video_id, frame)| ((*video_id, frame.index as u32), (*frame).clone())),
        );

        // --- vector collection + metadata construction (§IV-D, §V-B) ---
        let mut encoding_time = Duration::ZERO;
        let index_start = Instant::now();
        if !database.has_collection(PATCH_COLLECTION) {
            database.create_collection(
                PATCH_COLLECTION,
                lovo_store::CollectionConfig::new(self.encoder.config().class_dim)
                    .with_index_kind(self.index_kind)
                    .with_segment_capacity(self.segment_capacity),
            )?;
        }
        let segments_before = database
            .collection_stats(PATCH_COLLECTION)
            .map(|s| (s.sealed_segments, s.index_builds))
            .unwrap_or((0, 0));

        let durable = database.is_durable();
        for chunk in selected.chunks(chunk_frames.max(1)) {
            // --- visual encoding (§IV-B, §IV-C), one chunk at a time ---
            let encode_start = Instant::now();
            let encodings = self.encode_parallel(chunk)?;
            encoding_time += encode_start.elapsed();
            let mut frame_batch: Vec<(&[f32], PatchRecord)> = Vec::new();
            for ((video_id, frame), encoding) in chunk.iter().zip(encodings.iter()) {
                frame_batch.clear();
                for patch in &encoding.patches {
                    if patch.objectness < self.min_objectness {
                        continue;
                    }
                    if patch.patch_index > MAX_PATCH_INDEX {
                        return Err(LovoError::InvalidState(format!(
                            "patch index {} exceeds the patch-id packing limit {MAX_PATCH_INDEX}",
                            patch.patch_index
                        )));
                    }
                    let patch_id = patch_id(*video_id, frame.index as u32, patch.patch_index);
                    let record = PatchRecord {
                        patch_id,
                        video_id: *video_id,
                        frame_index: frame.index as u32,
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
                    frame_batch.push((patch.class_embedding.as_slice(), record));
                }
                if frame_batch.is_empty() {
                    continue;
                }
                stats.patches_indexed += if durable {
                    // Log the serialized key frame in the same WAL record as
                    // its patch rows: after a crash, `Lovo::open` rebuilds the
                    // rerank frame map from these blobs instead of
                    // re-ingesting footage.
                    let frame_key = (u64::from(*video_id) << 32) | (frame.index as u32 as u64);
                    let blob = lovo_video::wire::encode_frame(frame);
                    database.insert_patches_with_aux(
                        PATCH_COLLECTION,
                        frame_batch.drain(..),
                        vec![(frame_key, blob)],
                    )?
                } else {
                    database.insert_patches(PATCH_COLLECTION, frame_batch.drain(..))?
                };
            }
        }
        stats.encoding_seconds = encoding_time.as_secs_f64();
        if stats.patches_indexed == 0 {
            if videos.videos.is_empty() {
                // An empty batch is legal: an engine built over no videos
                // receives its corpus through later ingests. The (empty)
                // collection above still exists, so queries answer empty
                // instead of erroring.
                return Ok(stats);
            }
            // Non-empty footage yielding zero embeddings is a real pipeline
            // failure (objectness threshold ate everything?), not a shape of
            // input the caller should be able to produce on purpose.
            return Err(LovoError::InvalidState(
                "ingestion produced no patch embeddings from non-empty footage".into(),
            ));
        }
        database.seal_collection(PATCH_COLLECTION)?;
        let segments_after = database
            .collection_stats(PATCH_COLLECTION)
            .map(|s| (s.sealed_segments, s.index_builds))
            .unwrap_or((0, 0));
        stats.segments_sealed = segments_after.0.saturating_sub(segments_before.0);
        stats.index_builds = segments_after.1.saturating_sub(segments_before.1);
        stats.indexing_seconds = index_start
            .elapsed()
            .saturating_sub(encoding_time)
            .as_secs_f64();

        Ok(stats)
    }

    /// Encodes the selected key frames, splitting the work across a scoped
    /// thread pool of [`VideoSummarizer::workers`] threads.
    fn encode_parallel(&self, selected: &[(u32, &Frame)]) -> Result<Vec<FrameEncoding>> {
        let workers = self.workers.max(1);
        if workers == 1 || selected.len() < 32 {
            return selected
                .iter()
                .map(|(_, frame)| self.encoder.encode_frame(frame).map_err(LovoError::from))
                .collect();
        }
        let chunk_size = selected.len().div_ceil(workers);
        let chunks: Vec<&[(u32, &Frame)]> = selected.chunks(chunk_size).collect();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|(_, frame)| self.encoder.encode_frame(frame))
                            .collect::<std::result::Result<Vec<_>, _>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("encoder worker panicked"))
                .collect::<Vec<_>>()
        });

        let mut encodings = Vec::with_capacity(selected.len());
        for chunk_result in results {
            encodings.extend(chunk_result.map_err(LovoError::from)?);
        }
        Ok(encodings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_video::{DatasetConfig, DatasetKind};

    fn small_collection() -> VideoCollection {
        VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(90)
                .with_seed(5),
        )
    }

    #[test]
    fn patch_id_round_trips() {
        let id = patch_id(3, 70_000, 39);
        assert_eq!(split_patch_id(id), (3, 70_000, 39));
        let id2 = patch_id(0, 0, 0);
        assert_eq!(split_patch_id(id2), (0, 0, 0));
    }

    #[test]
    fn patch_id_round_trips_at_the_packing_boundary() {
        // Regression: video ids occupy bits 44..63 (20 bits). The largest
        // representable id must round-trip; anything larger is rejected at
        // ingest (see `ingest_rejects_video_ids_beyond_packing_limit`).
        let id = patch_id(MAX_VIDEO_ID, u32::MAX, MAX_PATCH_INDEX);
        assert_eq!(
            split_patch_id(id),
            (MAX_VIDEO_ID, u32::MAX, MAX_PATCH_INDEX)
        );
    }

    #[test]
    fn ingest_rejects_video_ids_beyond_packing_limit() {
        let mut videos = small_collection();
        videos.videos[0].id = MAX_VIDEO_ID + 1;
        let summarizer = VideoSummarizer::new(&LovoConfig::default()).unwrap();
        let db = VectorDatabase::new();
        let err = summarizer.ingest(&videos, &db).unwrap_err();
        assert!(err.to_string().contains("packing limit"), "{err}");

        // The boundary id itself is accepted.
        let mut ok_videos = small_collection();
        ok_videos.videos[0].id = MAX_VIDEO_ID;
        let (_, keyframes) = summarizer.ingest(&ok_videos, &db).unwrap();
        assert!(keyframes.keys().any(|(video, _)| *video == MAX_VIDEO_ID));
    }

    #[test]
    fn patch_ids_are_unique_across_frames_and_patches() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for video in 0..3u32 {
            for frame in 0..100u32 {
                for patch in 0..40u32 {
                    assert!(seen.insert(patch_id(video, frame, patch)));
                }
            }
        }
    }

    #[test]
    fn ingest_populates_database_and_keyframes() {
        let videos = small_collection();
        let config = LovoConfig::default();
        let summarizer = VideoSummarizer::new(&config).unwrap();
        let db = VectorDatabase::new();
        let (stats, keyframes) = summarizer.ingest(&videos, &db).unwrap();
        assert_eq!(stats.total_frames, videos.total_frames());
        assert!(stats.key_frames > 0 && stats.key_frames <= stats.total_frames);
        assert!(stats.patches_indexed >= stats.key_frames);
        assert_eq!(keyframes.len(), stats.key_frames);
        assert_eq!(db.metadata_rows(), stats.patches_indexed);
        assert!(stats.total_seconds() > 0.0);
        assert!(stats.segments_sealed >= 1);
        assert_eq!(stats.index_builds, stats.segments_sealed);
    }

    #[test]
    fn incremental_ingest_seals_only_new_segments() {
        let first = small_collection();
        let second = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(90)
                .with_seed(17),
        );
        // Shift the second batch's video ids past the first batch's.
        let mut second = second;
        let offset = first.videos.len() as u32;
        for video in &mut second.videos {
            video.id += offset;
        }

        let summarizer = VideoSummarizer::new(&LovoConfig::default()).unwrap();
        let db = VectorDatabase::new();
        let keyframes = RwLock::new(KeyframeMap::new());
        let run1 = summarizer.ingest_into(&first, &db, &keyframes).unwrap();
        let builds_after_first = db.collection_stats(PATCH_COLLECTION).unwrap().index_builds;
        let run2 = summarizer.ingest_into(&second, &db, &keyframes).unwrap();
        let stats = db.collection_stats(PATCH_COLLECTION).unwrap();

        // The append sealed (and built) only its own segments.
        assert!(run2.segments_sealed >= 1);
        assert_eq!(stats.index_builds, builds_after_first + run2.index_builds);
        assert_eq!(stats.entities, run1.patches_indexed + run2.patches_indexed);
        assert_eq!(keyframes.read().len(), run1.key_frames + run2.key_frames);
    }

    #[test]
    fn keyframe_policy_reduces_indexed_patches() {
        let videos = small_collection();
        let db_kf = VectorDatabase::new();
        let db_all = VectorDatabase::new();
        let with_kf = VideoSummarizer::new(&LovoConfig::default()).unwrap();
        let without_kf = VideoSummarizer::new(&LovoConfig::ablation_without_keyframe()).unwrap();
        let (kf_stats, _) = with_kf.ingest(&videos, &db_kf).unwrap();
        let (all_stats, _) = without_kf.ingest(&videos, &db_all).unwrap();
        assert!(all_stats.key_frames > kf_stats.key_frames);
        assert!(all_stats.patches_indexed > kf_stats.patches_indexed);
    }

    #[test]
    fn objectness_filter_shrinks_collection() {
        let videos = small_collection();
        let config = LovoConfig {
            min_objectness: 0.05,
            ..LovoConfig::default()
        };
        let filtered = VideoSummarizer::new(&config).unwrap();
        let db_filtered = VectorDatabase::new();
        let (filtered_stats, _) = filtered.ingest(&videos, &db_filtered).unwrap();

        let unfiltered = VideoSummarizer::new(&LovoConfig::default()).unwrap();
        let db_all = VectorDatabase::new();
        let (all_stats, _) = unfiltered.ingest(&videos, &db_all).unwrap();
        assert!(filtered_stats.patches_indexed < all_stats.patches_indexed);
    }

    #[test]
    fn configured_worker_count_is_respected_and_deterministic() {
        let videos = small_collection();
        let serial = VideoSummarizer::new(&LovoConfig::default().with_ingest_workers(1)).unwrap();
        let parallel = VideoSummarizer::new(&LovoConfig::default().with_ingest_workers(8)).unwrap();
        assert_eq!(serial.workers(), 1);
        assert_eq!(parallel.workers(), 8);
        let db_serial = VectorDatabase::new();
        let db_parallel = VectorDatabase::new();
        let (serial_stats, _) = serial.ingest(&videos, &db_serial).unwrap();
        let (parallel_stats, _) = parallel.ingest(&videos, &db_parallel).unwrap();
        // Same frames, same patches, regardless of thread count.
        assert_eq!(serial_stats.key_frames, parallel_stats.key_frames);
        assert_eq!(serial_stats.patches_indexed, parallel_stats.patches_indexed);
    }

    #[test]
    fn chunk_size_and_worker_count_cannot_change_the_ingest() {
        use crate::engine::Lovo;
        use crate::planner::QuerySpec;
        use lovo_video::{ObjectClass, QueryPredicate};

        let videos = small_collection();
        let specs = [
            QuerySpec::new("a red car driving in the center of the road"),
            QuerySpec::new("a bus on the road").with_predicate(QueryPredicate::videos([1])),
            QuerySpec::new("a person walking")
                .with_predicate(QueryPredicate::class(ObjectClass::Person)),
        ];
        let mut runs = Vec::new();
        for workers in [1, 3] {
            for chunk_frames in [1, 7, usize::MAX] {
                // A small segment capacity makes the batch seal mid-run, so
                // seal points are part of what must not move.
                let config = LovoConfig::default()
                    .with_ingest_workers(workers)
                    .with_segment_capacity(300);
                let summarizer = VideoSummarizer::new(&config).unwrap();
                let db = VectorDatabase::new();
                let keyframes = RwLock::new(KeyframeMap::new());
                let stats = summarizer
                    .ingest_chunked(&videos, &db, &keyframes, chunk_frames)
                    .unwrap();
                let collection = db.collection_stats(PATCH_COLLECTION).unwrap();
                assert!(collection.sealed_segments > 1, "{collection:?}");
                let keyframes = keyframes.into_inner();
                let mut frames: Vec<(u32, u32)> = keyframes.keys().copied().collect();
                frames.sort_unstable();
                let rows: Vec<PatchRecord> = frames
                    .iter()
                    .flat_map(|&(video, frame)| db.frame_patches(video, frame))
                    .collect();
                assert_eq!(rows.len(), db.metadata_rows());
                let ingested = db.video_ids().into_iter().collect();
                let lovo =
                    Lovo::assemble(config, summarizer, db, keyframes.clone(), stats, ingested)
                        .unwrap();
                let answers: Vec<_> = specs
                    .iter()
                    .map(|spec| {
                        let result = lovo.query_spec(spec).unwrap();
                        (
                            result.frames,
                            result.fast_search_candidates,
                            result.search_stats,
                        )
                    })
                    .collect();
                let counts = (
                    stats.key_frames,
                    stats.patches_indexed,
                    stats.segments_sealed,
                );
                runs.push((
                    (workers, chunk_frames),
                    (rows, keyframes, collection, answers, counts),
                ));
            }
        }
        let (_, reference) = &runs[0];
        assert!(!reference.3[0].0.is_empty());
        for (run, outcome) in &runs[1..] {
            assert!(
                outcome == reference,
                "workers x chunk {run:?} changed the ingest"
            );
        }
    }

    #[test]
    fn auto_worker_count_uses_available_parallelism() {
        let summarizer = VideoSummarizer::new(&LovoConfig::default()).unwrap();
        let expected = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(summarizer.workers(), expected);
    }
}
