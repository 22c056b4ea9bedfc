//! The LOVO system façade and the two-stage Query Strategy (§VI).
//!
//! Every query routes through one **plan → execute** pipeline:
//! [`crate::planner::QueryPlanner`] compiles the spec (text, predicate, k)
//! into a staged [`crate::planner::QueryPlan`] and [`Lovo::query_plans`]
//! runs a batch of them through [`crate::exec`] — encode → prune → coarse
//! filtered search → rerank → aggregate — recording per-stage timings.

use crate::config::LovoConfig;
use crate::planner::{QueryPlan, QueryPlanner, QuerySpec};
use crate::summary::{IngestStats, KeyframeMap, VideoSummarizer, PATCH_COLLECTION};
use crate::{exec, LovoError, Result};
use lovo_encoder::{CrossModalityTransformer, TextEncoder};
use lovo_index::SearchStats;
use lovo_store::{DurabilityConfig, RecoveryReport, VectorDatabase};
use lovo_video::bbox::BoundingBox;
use lovo_video::VideoCollection;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

/// Wall-clock timings of one query, split by stage (Fig. 9 reports these).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QueryTimings {
    /// Serve-side wait seconds: time the query spent in a serving layer's
    /// admission queue plus its micro-batch coalescing window before the
    /// engine started executing. Always zero when the engine is called
    /// directly; `lovo-serve` stamps it so queue/batch latency is
    /// distinguishable from engine time in [`QueryResult::breakdown`].
    pub queue_seconds: f64,
    /// Text encoding seconds.
    pub text_encoding_seconds: f64,
    /// Predicate-pushdown seconds: compiling the metadata predicate into the
    /// id filter + zone-map ranges (includes the metadata join for time and
    /// class predicates). Zero for unfiltered queries.
    pub prune_seconds: f64,
    /// Fast-search (index probe) seconds.
    pub fast_search_seconds: f64,
    /// Cross-modality rerank seconds.
    pub rerank_seconds: f64,
}

impl QueryTimings {
    /// Total user-perceived search latency (including any serve-side wait).
    pub fn total_seconds(&self) -> f64 {
        self.queue_seconds
            + self.text_encoding_seconds
            + self.prune_seconds
            + self.fast_search_seconds
            + self.rerank_seconds
    }

    /// Serve-side wait (queue + batch window) in milliseconds.
    pub fn wait_ms(&self) -> f64 {
        self.queue_seconds * 1e3
    }

    /// Text-encoding stage in milliseconds.
    pub fn encode_ms(&self) -> f64 {
        self.text_encoding_seconds * 1e3
    }

    /// Predicate-pushdown stage in milliseconds.
    pub fn prune_ms(&self) -> f64 {
        self.prune_seconds * 1e3
    }

    /// Coarse (fast-search) stage in milliseconds.
    pub fn coarse_ms(&self) -> f64 {
        self.fast_search_seconds * 1e3
    }

    /// Rerank stage in milliseconds.
    pub fn rerank_ms(&self) -> f64 {
        self.rerank_seconds * 1e3
    }
}

/// One ranked object returned to the user: a frame plus the grounded box.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedObject {
    /// Video the frame belongs to.
    pub video_id: u32,
    /// Frame index within the video.
    pub frame_index: u32,
    /// Timestamp of the frame in seconds.
    pub timestamp: f64,
    /// Relevance score (cross-modality score when rerank is enabled,
    /// fast-search similarity otherwise).
    pub score: f32,
    /// Bounding box of the matched object in the frame.
    pub bbox: BoundingBox,
}

/// Result of one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// The query text.
    pub query: String,
    /// Ranked output frames (best first), at most `output_frames` of them.
    pub frames: Vec<RankedObject>,
    /// Number of candidate patches the fast search returned.
    pub fast_search_candidates: usize,
    /// Number of distinct frames the rerank stage scored.
    pub reranked_frames: usize,
    /// Per-stage wall-clock timings.
    pub timings: QueryTimings,
    /// Index probe statistics of the fast search (including
    /// `segments_pruned` / `segments_probed` and `filtered_out` when a
    /// predicate was pushed down).
    pub search_stats: SearchStats,
}

impl QueryResult {
    /// One-line per-stage latency breakdown, e.g.
    /// `wait 0.40ms | encode 0.12ms | prune 0.00ms | coarse 1.40ms |
    /// rerank 3.25ms | segments 1 pruned / 3 probed`. The leading `wait` is
    /// the serve-side queue + batch-window latency — zero unless the query
    /// went through a serving layer such as `lovo-serve`.
    pub fn breakdown(&self) -> String {
        format!(
            "wait {:.2}ms | encode {:.2}ms | prune {:.2}ms | coarse {:.2}ms | rerank {:.2}ms | \
             segments {} pruned / {} probed",
            self.timings.wait_ms(),
            self.timings.encode_ms(),
            self.timings.prune_ms(),
            self.timings.coarse_ms(),
            self.timings.rerank_ms(),
            self.search_stats.segments_pruned,
            self.search_stats.segments_probed,
        )
    }
}

/// The LOVO system: built over an initial video collection, extended with
/// [`Lovo::add_videos`] as new footage arrives, queried many times.
///
/// Every method takes `&self`: queries, incremental ingest, and compaction
/// are all safe to call concurrently from many threads (e.g. through an
/// `Arc<Lovo>` owned by a serving layer). Mutable ingest state lives behind
/// internal locks; the vector database has always been internally
/// synchronized.
pub struct Lovo {
    pub(crate) config: LovoConfig,
    pub(crate) database: VectorDatabase,
    /// Key frames retained for the rerank stage. Writers (ingest) merge an
    /// already-built batch map in one short critical section, so query
    /// readers never wait behind encoding work.
    pub(crate) keyframes: RwLock<KeyframeMap>,
    pub(crate) text_encoder: TextEncoder,
    pub(crate) rerank: CrossModalityTransformer,
    planner: QueryPlanner,
    summarizer: VideoSummarizer,
    /// Cumulative statistics across the initial build and every append.
    ingest_stats: Mutex<IngestStats>,
    /// Video ids already ingested; appends of the same id are rejected
    /// because their patch ids would collide. Ids are reserved atomically per
    /// batch, which also serializes duplicate detection between concurrent
    /// appends.
    ingested_videos: Mutex<std::collections::HashSet<u32>>,
}

impl Lovo {
    /// Builds the system: runs the video-summary pipeline over `videos`,
    /// stores the vector collection and metadata, and prepares the query-time
    /// models.
    pub fn build(videos: &VideoCollection, config: LovoConfig) -> Result<Self> {
        Self::ingest_into(videos, config, || Ok(VectorDatabase::new()))
    }

    /// [`Lovo::build`] over a durable store rooted at `root`: every ingested
    /// batch is write-ahead logged (with its serialized key frames riding
    /// along) and sealed segments land in checksummed files, so the system
    /// survives `kill -9` and reopens with [`Lovo::open`]. Fails if `root`
    /// already holds a store.
    pub fn build_durable(
        videos: &VideoCollection,
        config: LovoConfig,
        root: impl AsRef<std::path::Path>,
        durability: DurabilityConfig,
    ) -> Result<Self> {
        Self::ingest_into(videos, config, || {
            Ok(VectorDatabase::create_durable(root, durability)?)
        })
    }

    /// Runs the video-summary pipeline over `videos` into the database
    /// `open` creates once the input has been checked.
    fn ingest_into(
        videos: &VideoCollection,
        config: LovoConfig,
        open: impl FnOnce() -> Result<VectorDatabase>,
    ) -> Result<Self> {
        config.validate().map_err(LovoError::InvalidState)?;
        let ingested_videos = unique_video_ids(videos, &std::collections::HashSet::new())?;
        let summarizer = VideoSummarizer::new(&config)?;
        let database = open()?;
        let (ingest_stats, keyframes) = summarizer.ingest(videos, &database)?;
        Self::assemble(
            config,
            summarizer,
            database,
            keyframes,
            ingest_stats,
            ingested_videos,
        )
    }

    /// The engine over an already-populated database: the query-time models
    /// are built from `config`, everything else is handed in.
    pub(crate) fn assemble(
        config: LovoConfig,
        summarizer: VideoSummarizer,
        database: VectorDatabase,
        keyframes: KeyframeMap,
        ingest_stats: IngestStats,
        ingested_videos: std::collections::HashSet<u32>,
    ) -> Result<Self> {
        Ok(Self {
            text_encoder: TextEncoder::new(config.text)?,
            rerank: CrossModalityTransformer::new(config.cross_modality)?,
            planner: QueryPlanner::new(config),
            ingested_videos: Mutex::new(ingested_videos),
            summarizer,
            config,
            database,
            keyframes: RwLock::new(keyframes),
            ingest_stats: Mutex::new(ingest_stats),
        })
    }

    /// Reopens a durable store created by [`Lovo::build_durable`] and
    /// rebuilds the full engine state from disk: vectors and metadata from
    /// the sealed segments plus the WAL, the rerank key-frame map from the
    /// persisted frame blobs, and the ingested-video set from the metadata
    /// table — no footage is re-read or re-encoded. Returns the storage
    /// layer's [`RecoveryReport`] so callers can surface quarantined
    /// segments or torn WAL tails.
    ///
    /// `config` must describe the same embedding dimensionality the store
    /// was built under; anything else would make every stored vector
    /// unsearchable, so it is rejected up front as an invalid state.
    pub fn open(
        config: LovoConfig,
        root: impl AsRef<std::path::Path>,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let (database, mut report) = VectorDatabase::open_durable(root, durability)?;
        config.validate().map_err(LovoError::InvalidState)?;
        let summarizer = VideoSummarizer::new(&config)?;
        if let Some(dim) = database.collection_dim(PATCH_COLLECTION) {
            let expected = summarizer.encoder().config().class_dim;
            if dim != expected {
                return Err(LovoError::InvalidState(format!(
                    "store was built with {dim}-dimensional embeddings but the \
                     configuration produces {expected}-dimensional ones"
                )));
            }
        }
        // Rebuild the rerank frame map from the recovered blobs. A blob that
        // fails to decode is counted and skipped rather than fatal — queries
        // touching that frame lose their rerank candidate (the executor
        // already tolerates missing key frames), which mirrors how the
        // storage layer quarantines rather than refuses.
        let mut keyframes = KeyframeMap::new();
        for (frame_key, blob) in std::mem::take(&mut report.aux_blobs) {
            let (video_id, frame_index) = ((frame_key >> 32) as u32, frame_key as u32);
            match lovo_video::wire::decode_frame(&blob) {
                Ok(frame) => {
                    keyframes.insert((video_id, frame_index), frame);
                }
                Err(_) => report.frames_undecodable += 1,
            }
        }
        // Video ids must stay reserved across restarts — re-ingesting an id
        // would collide patch ids with the recovered rows.
        let ingested_videos = database.video_ids().into_iter().collect();
        let lovo = Self::assemble(
            config,
            summarizer,
            database,
            keyframes,
            IngestStats::default(),
            ingested_videos,
        )?;
        Ok((lovo, report))
    }

    /// Incrementally ingests a new batch of videos: encodes only the new
    /// footage, appends its patches to the vector collection's growing
    /// segment(s), and seals — existing sealed segments are never rebuilt, so
    /// append cost is proportional to the batch, not the collection. The
    /// batch streams through encode and insert in fixed chunks of key
    /// frames, so its transient memory is one chunk's patch encodings
    /// however long its videos are. Returns this run's statistics;
    /// [`Lovo::ingest_stats`] keeps the running total.
    ///
    /// Safe to call concurrently with queries (and with other appends —
    /// batches land in the shared growing segment in arrival order). The
    /// batch's key frames are published, under one short write lock right
    /// after key-frame selection, before the first of its vectors becomes
    /// searchable: a racing query that finds a frame's patches also finds
    /// the frame to rerank. Every insert and seal moves the ingest epoch, so an
    /// epoch-keyed result cache never serves an answer computed before the
    /// batch landed.
    pub fn add_videos(&self, videos: &VideoCollection) -> Result<IngestStats> {
        // Reserve the ids before ingesting: a mid-run failure can leave part
        // of the batch in the store, and a retry under the same ids would
        // silently collide patch ids. A failed batch's ids stay reserved —
        // re-submit the footage under fresh ids. The single lock scope makes
        // reservation atomic between concurrent appends.
        {
            let mut ingested = self.ingested_videos.lock();
            let batch_ids = unique_video_ids(videos, &ingested)?;
            ingested.extend(batch_ids);
        }
        let run = self
            .summarizer
            .ingest_into(videos, &self.database, &self.keyframes)?;
        self.ingest_stats.lock().accumulate(&run);
        Ok(run)
    }

    /// Merges undersized sealed storage segments to bound the search fan-out
    /// width after many small appends.
    pub fn compact(&self) -> Result<lovo_store::CompactionResult> {
        Ok(self.database.compact_collection(PATCH_COLLECTION)?)
    }

    /// Seals the patch collection's growing segment (builds its ANN index),
    /// leaving a fresh empty buffer. No-op when nothing is buffered. Ingest
    /// seals after every batch, so this mainly serves background maintenance
    /// (e.g. `lovo-serve`) mopping up rows left by direct database writes.
    pub fn seal(&self) -> Result<()> {
        Ok(self.database.seal_collection(PATCH_COLLECTION)?)
    }

    /// The system configuration.
    pub fn config(&self) -> &LovoConfig {
        &self.config
    }

    /// Cumulative statistics of the video-summary / indexing phase across the
    /// initial build and every incremental append (a snapshot — appends
    /// running on other threads keep accumulating).
    pub fn ingest_stats(&self) -> IngestStats {
        *self.ingest_stats.lock()
    }

    /// The ingest epoch of the patch collection: a monotonically increasing
    /// counter bumped by every content mutation (insert, seal, compaction).
    /// Result caches key their invalidation off this — an entry computed at
    /// epoch `e` is served only while `ingest_epoch()` still returns `e`.
    pub fn ingest_epoch(&self) -> u64 {
        self.database
            .collection_generation(PATCH_COLLECTION)
            .unwrap_or(0)
    }

    /// Storage statistics of the patch collection (segment counts, build
    /// counts, byte sizes).
    pub fn collection_stats(&self) -> lovo_store::CollectionStats {
        self.database
            .collection_stats(PATCH_COLLECTION)
            .unwrap_or_default()
    }

    /// Number of patch embeddings stored in the vector collection.
    pub fn indexed_patches(&self) -> usize {
        self.database
            .collection_stats(PATCH_COLLECTION)
            .map(|s| s.entities)
            .unwrap_or(0)
    }

    /// Approximate storage footprint in bytes (index + metadata).
    pub fn storage_bytes(&self) -> usize {
        self.database.total_bytes()
    }

    /// Borrow the underlying vector database (used by storage experiments).
    pub fn database(&self) -> &VectorDatabase {
        &self.database
    }

    /// The query planner this system compiles specs with (exposed so callers
    /// can inspect a plan — [`QueryPlan::describe`] — without running it).
    pub fn planner(&self) -> &QueryPlanner {
        &self.planner
    }

    /// Compiles a spec into its executable plan without running it.
    pub fn plan(&self, spec: &QuerySpec) -> QueryPlan {
        self.planner.plan(spec)
    }

    /// Answers a complex object query with the two-stage strategy of
    /// Algorithm 2, returning the top `output_frames` frames with boxes:
    /// [`Lovo::query_spec`] over the bare text.
    pub fn query(&self, text: &str) -> Result<QueryResult> {
        self.query_spec(&QuerySpec::new(text))
    }

    /// Answers a full query spec — text plus a metadata predicate restricting
    /// *where* to search (video subsets, time windows, object classes) and
    /// optional budget overrides such as [`QuerySpec::with_k`]. The predicate
    /// is pushed down through the storage fan-out into every index scan, so
    /// selective queries touch a fraction of the corpus. Plans the spec and
    /// runs it as a batch of one through [`Lovo::query_plans`].
    pub fn query_spec(&self, spec: &QuerySpec) -> Result<QueryResult> {
        self.query_plans(std::slice::from_ref(&self.planner.plan(spec)))?
            .pop()
            .ok_or_else(|| LovoError::InvalidState("executor returned no result for plan".into()))
    }

    /// Executes a batch of compiled plans (see [`Lovo::plan`]) in one pass —
    /// the one function every query goes through. All texts are encoded up
    /// front, each *distinct* predicate is resolved once, and the coarse
    /// searches fan out over the storage segments *together* (one collection
    /// lock acquisition and one segment walk for the whole batch), amortizing
    /// per-query overheads under concurrent load; rerank and aggregation then
    /// run per plan. Results come back in plan order. Serving layers that
    /// plan once per submission (to fingerprint it for their result cache)
    /// hand the same plans straight to execution here.
    pub fn query_plans(&self, plans: &[QueryPlan]) -> Result<Vec<QueryResult>> {
        exec::execute(self, plans)
    }
}

/// Collects the batch's video ids, rejecting any id that already exists in
/// `ingested` or repeats within the batch itself — either way its patches
/// would silently collide (patch ids embed the video id).
fn unique_video_ids(
    videos: &VideoCollection,
    ingested: &std::collections::HashSet<u32>,
) -> Result<std::collections::HashSet<u32>> {
    let mut batch = std::collections::HashSet::with_capacity(videos.videos.len());
    for video in &videos.videos {
        if ingested.contains(&video.id) {
            return Err(LovoError::InvalidState(format!(
                "video id {} is already ingested; re-adding it would collide patch ids",
                video.id
            )));
        }
        if !batch.insert(video.id) {
            return Err(LovoError::InvalidState(format!(
                "video id {} appears twice in the batch; duplicate ids would collide patch ids",
                video.id
            )));
        }
    }
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_index::IndexKind;
    use lovo_video::{DatasetConfig, DatasetKind};

    fn bellevue(frames: usize) -> VideoCollection {
        VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(frames)
                .with_seed(11),
        )
    }

    #[test]
    fn build_and_query_end_to_end() {
        let videos = bellevue(240);
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        assert!(lovo.indexed_patches() > 0);
        assert!(lovo.storage_bytes() > 0);

        let result = lovo
            .query("a red car driving in the center of the road")
            .unwrap();
        assert!(!result.frames.is_empty());
        assert!(result.frames.len() <= lovo.config().output_frames);
        assert!(result.fast_search_candidates > 0);
        // Scores sorted descending.
        for pair in result.frames.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        assert!(result.timings.total_seconds() > 0.0);
        assert!(result.timings.rerank_seconds > 0.0);
    }

    #[test]
    fn top_ranked_frame_contains_the_queried_object() {
        let videos = bellevue(400);
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        let query_text = "a red car driving in the center of the road";
        let result = lovo.query(query_text).unwrap();
        let constraints = lovo_encoder::TextEncoder::parse(query_text);

        // At least one of the top-3 frames must contain an object satisfying
        // the query's ground-truth constraints.
        let hit = result.frames.iter().take(3).any(|ranked| {
            videos.videos[ranked.video_id as usize].frames[ranked.frame_index as usize]
                .objects
                .iter()
                .any(|o| constraints.matches(&o.attributes))
        });
        assert!(hit, "no relevant object in the top-3 frames");
    }

    #[test]
    fn rerank_ablation_skips_stage_two() {
        let videos = bellevue(180);
        let lovo = Lovo::build(&videos, LovoConfig::ablation_without_rerank()).unwrap();
        let result = lovo.query("a bus driving on the road").unwrap();
        assert_eq!(result.reranked_frames, 0);
        assert_eq!(result.timings.rerank_seconds, 0.0);
        assert!(!result.frames.is_empty());
    }

    #[test]
    fn brute_force_ablation_probes_every_vector() {
        let videos = bellevue(180);
        let anns = Lovo::build(&videos, LovoConfig::default()).unwrap();
        let brute = Lovo::build(&videos, LovoConfig::ablation_without_anns()).unwrap();
        let q = "a red car driving in the center of the road";
        let anns_result = anns.query(q).unwrap();
        let brute_result = brute.query(q).unwrap();
        assert!(brute_result.search_stats.vectors_scored >= brute.indexed_patches());
        assert!(
            anns_result.search_stats.vectors_scored < brute_result.search_stats.vectors_scored,
            "ANNS should probe fewer vectors ({} vs {})",
            anns_result.search_stats.vectors_scored,
            brute_result.search_stats.vectors_scored
        );
    }

    #[test]
    fn hnsw_index_variant_works() {
        let videos = bellevue(150);
        let lovo = Lovo::build(
            &videos,
            LovoConfig::default().with_index_kind(IndexKind::Hnsw),
        )
        .unwrap();
        let result = lovo.query("a bus driving on the road").unwrap();
        assert!(!result.frames.is_empty());
    }

    #[test]
    fn rerank_budget_caps_reranked_frames() {
        let videos = bellevue(240);
        let lovo = Lovo::build(&videos, LovoConfig::default().with_rerank_frames(3)).unwrap();
        let result = lovo.query("a red car on the road").unwrap();
        assert!(result.reranked_frames <= 3);
        assert!(!result.frames.is_empty());
    }

    #[test]
    fn query_with_smaller_k_reduces_candidates() {
        let videos = bellevue(240);
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        let with_k = |k| {
            lovo.query_spec(&QuerySpec::new("a red car on the road").with_k(k))
                .unwrap()
        };
        let (small, large) = (with_k(10), with_k(200));
        assert!(small.fast_search_candidates <= 10);
        assert!(large.fast_search_candidates <= 200);
        assert!(large.fast_search_candidates >= small.fast_search_candidates);
    }

    fn bellevue_batch(frames: usize, seed: u64, id_offset: u32) -> VideoCollection {
        let mut batch = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(frames)
                .with_seed(seed),
        );
        for video in &mut batch.videos {
            video.id += id_offset;
        }
        batch
    }

    #[test]
    fn add_videos_appends_without_rebuilding_sealed_segments() {
        let first = bellevue(240);
        let lovo = Lovo::build(&first, LovoConfig::default()).unwrap();
        let stats_after_build = lovo.collection_stats();
        let patches_after_build = lovo.indexed_patches();
        assert!(stats_after_build.index_builds >= 1);

        let second = bellevue_batch(240, 23, first.videos.len() as u32);
        let run = lovo.add_videos(&second).unwrap();

        // The append sealed and built only its own segment(s).
        assert!(run.segments_sealed >= 1);
        assert_eq!(run.index_builds, run.segments_sealed);
        let stats_after_append = lovo.collection_stats();
        assert_eq!(
            stats_after_append.index_builds,
            stats_after_build.index_builds + run.index_builds
        );
        assert_eq!(
            stats_after_append.sealed_segments,
            stats_after_build.sealed_segments + run.segments_sealed
        );
        assert_eq!(
            lovo.indexed_patches(),
            patches_after_build + run.patches_indexed
        );
        // Cumulative stats folded the run in.
        assert_eq!(
            lovo.ingest_stats().patches_indexed,
            patches_after_build + run.patches_indexed
        );

        // Queries see footage from both batches.
        let result = lovo
            .query("a red car driving in the center of the road")
            .unwrap();
        assert!(!result.frames.is_empty());
    }

    #[test]
    fn incremental_build_matches_from_scratch_build() {
        // With brute-force segments the fan-out + merge is exact, so an
        // incremental build must rank frames identically to a from-scratch
        // build over the same combined data.
        let first = bellevue(200);
        let second = bellevue_batch(200, 31, first.videos.len() as u32);
        let mut combined = first.clone();
        combined.videos.extend(second.videos.iter().cloned());

        let config = LovoConfig::ablation_without_anns();
        let incremental = Lovo::build(&first, config).unwrap();
        incremental.add_videos(&second).unwrap();
        let scratch = Lovo::build(&combined, config).unwrap();

        assert_eq!(incremental.indexed_patches(), scratch.indexed_patches());
        for query in [
            "a red car driving in the center of the road",
            "a bus driving on the road",
        ] {
            let a = incremental.query(query).unwrap();
            let b = scratch.query(query).unwrap();
            let frames = |r: &QueryResult| -> Vec<(u32, u32)> {
                r.frames
                    .iter()
                    .map(|f| (f.video_id, f.frame_index))
                    .collect()
            };
            assert_eq!(frames(&a), frames(&b), "query: {query}");
        }
    }

    #[test]
    fn duplicate_video_ids_are_rejected_on_append() {
        let videos = bellevue(120);
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        let err = lovo.add_videos(&videos).unwrap_err();
        assert!(err.to_string().contains("already ingested"), "{err}");
    }

    #[test]
    fn duplicate_video_ids_within_one_batch_are_rejected() {
        let videos = bellevue(120);
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        // A batch whose videos share one id: every patch id would collide.
        let mut batch = bellevue_batch(60, 19, videos.videos.len() as u32);
        let clone = batch.videos[0].clone();
        batch.videos.push(clone);
        let err = lovo.add_videos(&batch).unwrap_err();
        assert!(err.to_string().contains("appears twice"), "{err}");

        // Same guard at initial build.
        let mut dup = bellevue(60);
        let clone = dup.videos[0].clone();
        dup.videos.push(clone);
        let err = match Lovo::build(&dup, LovoConfig::default()) {
            Ok(_) => panic!("duplicate ids must be rejected at build"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("appears twice"), "{err}");
    }

    #[test]
    fn small_segment_capacity_splits_storage_and_still_answers() {
        let videos = bellevue(300);
        let lovo = Lovo::build(&videos, LovoConfig::default().with_segment_capacity(200)).unwrap();
        let stats = lovo.collection_stats();
        assert!(
            stats.sealed_segments > 1,
            "expected multiple segments, got {stats:?}"
        );
        let result = lovo
            .query("a red car driving in the center of the road")
            .unwrap();
        assert!(!result.frames.is_empty());
        assert_eq!(result.search_stats.segments_probed, stats.sealed_segments);
    }

    #[test]
    fn compaction_after_many_appends_narrows_fanout() {
        let first = bellevue(150);
        let lovo = Lovo::build(&first, LovoConfig::default()).unwrap();
        let mut offset = first.videos.len() as u32;
        for seed in [41u64, 43, 47] {
            let batch = bellevue_batch(150, seed, offset);
            offset += batch.videos.len() as u32;
            lovo.add_videos(&batch).unwrap();
        }
        let before = lovo.collection_stats();
        assert_eq!(before.sealed_segments, 4);
        let result = lovo.compact().unwrap();
        assert!(result.segments_merged >= 2, "{result:?}");
        let after = lovo.collection_stats();
        assert!(after.sealed_segments < before.sealed_segments);
        assert_eq!(after.entities, before.entities);
        let answer = lovo.query("a bus driving on the road").unwrap();
        assert!(!answer.frames.is_empty());
    }

    #[test]
    fn filtered_query_restricts_results_to_the_predicate() {
        use lovo_video::QueryPredicate;
        let videos = VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_num_videos(3)
                .with_frames_per_video(150)
                .with_seed(11),
        );
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        let spec = QuerySpec::new("a red car driving in the center of the road")
            .with_predicate(QueryPredicate::videos([1]));
        let result = lovo.query_spec(&spec).unwrap();
        assert!(!result.frames.is_empty());
        assert!(result.frames.iter().all(|f| f.video_id == 1));
        // The pushdown masked candidates from other videos inside the scans
        // (or pruned their segments outright).
        assert!(result.search_stats.filtered_out > 0 || result.search_stats.segments_pruned > 0);
    }

    #[test]
    fn provably_empty_predicate_searches_nothing() {
        use lovo_video::QueryPredicate;
        let videos = bellevue(120);
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        let spec = QuerySpec::new("a bus")
            .with_predicate(QueryPredicate::videos([0]).and(QueryPredicate::videos([1])));
        let plan = lovo.plan(&spec);
        assert!(plan.provably_empty);
        let result = lovo.query_spec(&spec).unwrap();
        assert!(result.frames.is_empty());
        assert_eq!(result.fast_search_candidates, 0);
        assert_eq!(result.search_stats.segments_probed, 0);
    }

    #[test]
    fn query_plans_batch_matches_single_queries() {
        let videos = bellevue(240);
        // Brute-force segments make the fan-out exact, so batch and single
        // paths must rank identically.
        let lovo = Lovo::build(&videos, LovoConfig::ablation_without_anns()).unwrap();
        let specs = [
            QuerySpec::new("a red car driving in the center of the road"),
            QuerySpec::new("a bus driving on the road"),
            QuerySpec::new("a person walking on the sidewalk").with_k(50),
        ];
        let plans: Vec<QueryPlan> = specs.iter().map(|spec| lovo.plan(spec)).collect();
        let batch = lovo.query_plans(&plans).unwrap();
        assert_eq!(batch.len(), specs.len());
        for (spec, batched) in specs.iter().zip(&batch) {
            let single = lovo.query_spec(spec).unwrap();
            let frames = |r: &QueryResult| -> Vec<(u32, u32)> {
                r.frames
                    .iter()
                    .map(|f| (f.video_id, f.frame_index))
                    .collect()
            };
            assert_eq!(frames(batched), frames(&single), "spec: {}", spec.text);
            assert_eq!(
                batched.fast_search_candidates, single.fast_search_candidates,
                "spec: {}",
                spec.text
            );
        }
        assert!(lovo.query_plans(&[]).unwrap().is_empty());
    }

    #[test]
    fn plan_describes_its_stages() {
        let videos = bellevue(90);
        let lovo = Lovo::build(&videos, LovoConfig::default()).unwrap();
        let unfiltered = lovo.plan(&QuerySpec::new("a car"));
        assert_eq!(
            unfiltered.describe(),
            "encode -> coarse(k=400) -> rerank(64) -> aggregate(20)"
        );
        let filtered = lovo.plan(
            &QuerySpec::new("a car")
                .with_predicate(lovo_video::QueryPredicate::time_range(0.0, 2.0)),
        );
        assert!(filtered.describe().contains("prune"));
        assert!(filtered.is_filtered());
    }

    #[test]
    fn invalid_config_is_rejected_at_build() {
        let videos = bellevue(60);
        let mut config = LovoConfig::default();
        config.text.class_dim = 8;
        assert!(Lovo::build(&videos, config).is_err());
    }
}
