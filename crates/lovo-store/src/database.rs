//! The vector database façade: named collections + metadata, joined by patch id.
//!
//! This is the component the paper deploys inside Milvus. `lovo-core` ingests
//! per-patch embeddings and metadata through the batched
//! [`VectorDatabase::insert_patches`] (one write-lock acquisition per batch),
//! seals the growing segment once a batch is complete, and answers
//! fast-search queries with [`VectorDatabase::search_batch_unjoined`], which
//! fans out over the collection's segments and returns each query's `k` best
//! patch ids and scores, unordered. The engine reduces those to the frames
//! its answer uses and joins only their rows (frame id, bounding box,
//! timestamp) with [`VectorDatabase::patches`];
//! [`VectorDatabase::search_batch_with_stats_opts`] and
//! [`VectorDatabase::search`] return every hit joined, best first.

use crate::collection::{
    BatchQuery, CollectionConfig, CollectionStats, CompactionResult, PushdownFilter,
    SegmentedCollection,
};
use crate::durability::{points, DurabilityConfig, DurableStore, OpenOptions, RecoveryReport};
use crate::metadata::{MetadataStore, PatchPredicate, PatchRecord};
use crate::segment::Segment;
use crate::{Result, StoreError};
use lovo_index::{SearchResult, SearchStats};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;

/// A search hit joined with its metadata row.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedHit {
    /// Patch id of the hit.
    pub patch_id: u64,
    /// Similarity score from the index.
    pub score: f32,
    /// The relational metadata row.
    pub record: PatchRecord,
}

/// The vector database: named collections plus the shared metadata store.
///
/// With a durable store attached ([`VectorDatabase::create_durable`] /
/// [`VectorDatabase::open_durable`]) every mutation is write-ahead-logged or
/// reflected in checksummed segment files before it is acknowledged, and
/// reopening the same directory recovers the pre-crash state. Lock order is
/// `durable` → `collections` → `metadata` (machine-checked from
/// ARCHITECTURE.md): the durable lock comes first on every mutating path,
/// which also serializes WAL append order with in-memory apply order.
pub struct VectorDatabase {
    durable: Option<Mutex<DurableStore>>,
    collections: RwLock<HashMap<String, SegmentedCollection>>,
    metadata: RwLock<MetadataStore>,
}

impl Default for VectorDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl VectorDatabase {
    /// Creates an empty in-memory database (no durability; contents are lost
    /// when the process exits).
    pub fn new() -> Self {
        Self {
            durable: None,
            collections: RwLock::new(HashMap::new()),
            metadata: RwLock::new(MetadataStore::new()),
        }
    }

    /// Creates an empty database backed by a fresh durable store under
    /// `root`. Errors if a store already exists there — use
    /// [`VectorDatabase::open_durable`] to recover an existing one.
    pub fn create_durable(root: impl AsRef<Path>, config: DurabilityConfig) -> Result<Self> {
        let store = DurableStore::create(root.as_ref(), config)?;
        Ok(Self {
            durable: Some(Mutex::new(store)),
            collections: RwLock::new(HashMap::new()),
            metadata: RwLock::new(MetadataStore::new()),
        })
    }

    /// Opens the durable store under `root` and recovers: loads every
    /// verifiable segment file (quarantining corrupt ones), rebuilds each
    /// segment's ANN index deterministically from its raw rows, replays the
    /// WAL tail through the normal insert path (skipping rows already
    /// present in sealed segments), and deletes orphaned files. The report
    /// says exactly what was recovered and what, if anything, was lost.
    pub fn open_durable(
        root: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        // `DurableStore::open` resolves OpenOptions::from_env(), so setting
        // LOVO_MMAP=1 switches every default open — including existing test
        // suites — onto the mapped read path.
        let recovered = DurableStore::open(root.as_ref(), config)?;
        Self::from_recovered(recovered)
    }

    /// [`VectorDatabase::open_durable`] with explicit read-path options:
    /// `options.mmap` serves sealed-segment rows zero-copy out of the
    /// mapped `.lseg` files instead of copying them onto the heap (see
    /// [`OpenOptions`]).
    pub fn open_durable_with(
        root: impl AsRef<Path>,
        config: DurabilityConfig,
        options: OpenOptions,
    ) -> Result<(Self, RecoveryReport)> {
        let recovered = DurableStore::open_with(root.as_ref(), config, options)?;
        Self::from_recovered(recovered)
    }

    /// Rebuilds the in-memory database from a recovered durable store:
    /// restores every sealed segment (and its deterministically rebuilt ANN
    /// index), replays the WAL tail through the normal insert path, and
    /// persists anything replay re-sealed.
    fn from_recovered(
        (store, state): (DurableStore, crate::durability::RecoveredState),
    ) -> Result<(Self, RecoveryReport)> {
        let mut collections: HashMap<String, SegmentedCollection> = HashMap::new();
        let mut metadata = MetadataStore::new();
        let mut sealed_ids: HashMap<String, HashSet<u64>> = HashMap::new();
        for recovered in state.collections {
            let ids = sealed_ids.entry(recovered.name.clone()).or_default();
            let mut sealed = Vec::with_capacity(recovered.segments.len());
            for loaded in recovered.segments {
                ids.extend(loaded.ids.iter().copied());
                metadata.extend(loaded.meta);
                // Rows were normalized before they were persisted; restore
                // them verbatim. The restore path replays the exact
                // insert-then-build sequence of the original seal, so the
                // rebuilt index is bit-identical — whether the rows live on
                // the heap or stay in the segment file's mapping.
                let segment = Segment::restore_sealed(
                    loaded.id,
                    recovered.config.dim,
                    recovered.config.index_kind,
                    loaded.zone,
                    loaded.ids,
                    loaded.rows,
                )?;
                sealed.push(segment);
            }
            let collection = SegmentedCollection::from_recovered(
                recovered.name.clone(),
                recovered.config,
                sealed,
                recovered.next_segment_id,
            );
            collections.insert(recovered.name, collection);
        }

        // Replay the WAL tail: rows whose ids already live in a sealed
        // segment were persisted before the crash (the WAL rotates lazily),
        // the rest re-enter through the normal insert path — pre-normalization
        // vectors, so the stored rows come out bit-identical to the
        // never-crashed execution.
        let mut wal_rows_replayed = 0usize;
        for record in &state.wal_records {
            let Some(collection) = collections.get_mut(&record.collection) else {
                continue;
            };
            let known = sealed_ids.get(&record.collection);
            let fresh: Vec<&(Vec<f32>, PatchRecord)> = record
                .patches
                .iter()
                .filter(|(_, row)| !known.is_some_and(|ids| ids.contains(&row.patch_id)))
                .collect();
            metadata.extend(fresh.iter().map(|(_, row)| row.clone()));
            for (vector, row) in fresh {
                collection.insert(row.patch_id, vector)?;
                wal_rows_replayed += 1;
            }
        }
        let mut report = state.report;
        report.wal_rows_replayed = wal_rows_replayed;

        let db = Self {
            durable: Some(Mutex::new(store)),
            collections: RwLock::new(collections),
            metadata: RwLock::new(metadata),
        };
        // Replay can auto-seal (a batch that crossed segment capacity before
        // the crash re-crosses it now); persist those segments so the store
        // converges instead of re-replaying the same tail forever, and
        // rotate the WAL if everything ended up sealed.
        {
            let mut durable = db
                .durable
                .as_ref()
                .expect("just constructed durable")
                .lock();
            let collections = db.collections.read();
            let metadata = db.metadata.read();
            for collection in collections.values() {
                durable.sync_collection(collection, &metadata, points::SEGMENT_WRITE)?;
            }
            let all_empty = collections.values().all(|c| c.growing_len() == 0);
            durable.rotate_wal_if_idle(all_empty)?;
        }
        Ok((db, report))
    }

    /// True when a durable store backs this database.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Number of records in the active write-ahead log (0 without a durable
    /// store). Exposed for tests, stats, and the recovery benchmark.
    pub fn wal_records(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |durable| durable.lock().wal_records())
    }

    /// Committed byte length of the active write-ahead log (0 without a
    /// durable store).
    pub fn wal_bytes(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |durable| durable.lock().wal_bytes())
    }

    /// Pre-faults every live mapped segment (`MADV_WILLNEED`), returning
    /// the number of bytes advised. A no-op (0) on the heap read path or
    /// without a durable store; call after an mmap open that skipped
    /// `populate` to trade one up-front sequential read for demand-paging
    /// stalls on the first queries.
    pub fn warmup(&self) -> usize {
        self.durable
            .as_ref()
            .map_or(0, |durable| durable.lock().warmup())
    }

    /// Drops every live mapped segment's resident pages (`MADV_DONTNEED`),
    /// returning the number of bytes advised. The inverse of
    /// [`VectorDatabase::warmup`] and the churn knob for corpora larger
    /// than RAM: a read-only mapping loses only clean page-cache copies,
    /// and later scans demand-page them back in.
    pub fn release_pages(&self) -> usize {
        self.durable
            .as_ref()
            .map_or(0, |durable| durable.lock().release_pages())
    }

    /// Total bytes of live segment mappings (0 on the heap read path).
    pub fn mapped_bytes(&self) -> usize {
        self.durable
            .as_ref()
            .map_or(0, |durable| durable.lock().mapped_bytes())
    }

    /// Bytes of live segment mappings currently resident in page cache.
    /// The mmap-mode complement of [`VectorDatabase::total_bytes`]: it
    /// shrinks when the kernel evicts cold segment pages, which is exactly
    /// the degradation mode that lets corpora larger than RAM keep serving.
    pub fn resident_bytes(&self) -> usize {
        self.durable
            .as_ref()
            .map_or(0, |durable| durable.lock().resident_bytes())
    }

    /// Takes the durable lock when a durable store is attached — the FIRST
    /// lock of every mutating path (lock order: durable → collections →
    /// metadata).
    fn lock_durable(&self) -> Option<MutexGuard<'_, DurableStore>> {
        self.durable.as_ref().map(Mutex::lock)
    }

    /// Creates a collection with the given name and configuration. Replaces
    /// any existing collection of the same name. With a durable store the
    /// collection is registered in the manifest first, so a crash immediately
    /// after still knows it on reopen.
    pub fn create_collection(&self, name: &str, config: CollectionConfig) -> Result<()> {
        let mut durable = self.lock_durable();
        if let Some(store) = durable.as_mut() {
            store.register_collection(name, config)?;
        }
        let collection = SegmentedCollection::new(name, config)?;
        self.collections
            .write()
            .insert(name.to_string(), collection);
        Ok(())
    }

    /// True when a collection with the given name exists.
    pub fn has_collection(&self, name: &str) -> bool {
        self.collections.read().contains_key(name)
    }

    /// Inserts a patch: its embedding into the named collection and its
    /// metadata row into the relational store, both keyed by
    /// `record.patch_id`.
    pub fn insert_patch(
        &self,
        collection: &str,
        vector: &[f32],
        record: PatchRecord,
    ) -> Result<()> {
        self.insert_patches(collection, std::iter::once((vector, record)))
            .map(|_| ())
    }

    /// Inserts a batch of patches, taking each write lock once for the whole
    /// batch instead of once per patch. The ingest path batches per frame, so
    /// lock traffic scales with frames, not patches.
    pub fn insert_patches<'a>(
        &self,
        collection: &str,
        patches: impl IntoIterator<Item = (&'a [f32], PatchRecord)>,
    ) -> Result<usize> {
        self.insert_patches_with_aux(collection, patches, Vec::new())
    }

    /// [`VectorDatabase::insert_patches`] with auxiliary blobs riding along
    /// in the same WAL record (keyed by frame key). The engine logs its
    /// serialized key frames here so they survive a crash alongside the rows
    /// they describe; without a durable store the blobs are ignored.
    ///
    /// Durability contract: with a durable store attached, the batch is
    /// appended to the WAL and fsynced *before*
    /// anything is applied in memory. `Ok` therefore means the batch
    /// survives `kill -9`; an `Err` from the WAL append means nothing was
    /// applied at all — never partially.
    pub fn insert_patches_with_aux<'a>(
        &self,
        collection: &str,
        patches: impl IntoIterator<Item = (&'a [f32], PatchRecord)>,
        aux: Vec<(u64, Vec<u8>)>,
    ) -> Result<usize> {
        let mut durable = self.lock_durable();
        let mut collections = self.collections.write();
        let col = collections
            .get_mut(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_string()))?;
        // Validate the whole batch before writing anything — neither the WAL
        // nor memory — so a bad vector cannot leave the batch half-applied.
        let batch: Vec<(&[f32], PatchRecord)> = patches.into_iter().collect();
        for (vector, _) in &batch {
            if vector.len() != col.config().dim {
                return Err(StoreError::Index(
                    lovo_index::IndexError::DimensionMismatch {
                        expected: col.config().dim,
                        actual: vector.len(),
                    },
                ));
            }
        }
        // Write-ahead: the WAL record commits (written and fsynced) before
        // any in-memory state changes. A failed append leaves both the log
        // (rolled back to the last record) and memory untouched.
        if let Some(store) = durable.as_mut() {
            store.append_batch(collection, &batch, aux)?;
        }
        // Metadata first, and without the metadata lock spanning the vector
        // inserts (which can trigger a growing-segment seal, i.e. an ANN
        // index build, that metadata readers must not stall behind). If a
        // vector insert still fails, the orphaned metadata rows are benign —
        // the reverse (a searchable vector with no metadata row) would make
        // every query that surfaces it error.
        // The batch is owned: its records move into the metadata store, and
        // only each row's (patch id, vector) pair stays behind.
        let mut rows = Vec::with_capacity(batch.len());
        self.metadata
            .write()
            .extend(batch.into_iter().map(|(vector, record)| {
                rows.push((record.patch_id, vector));
                record
            }));
        let sealed_before = col.sealed_segment_count();
        for &(patch_id, vector) in &rows {
            col.insert(patch_id, vector)?;
        }
        // A batch that crossed segment capacity auto-sealed mid-insert;
        // persist the new segment file(s) now. The rows stay covered by the
        // WAL until the manifest swap inside `sync_collection` commits them.
        if col.sealed_segment_count() != sealed_before {
            if let Some(store) = durable.as_mut() {
                store.sync_collection(col, &self.metadata.read(), points::SEGMENT_WRITE)?;
            }
        }
        Ok(rows.len())
    }

    /// Seals the named collection's growing segment (builds its ANN index).
    /// Call after an ingest batch; existing sealed segments are untouched.
    /// With a durable store, the sealed segment is written to a checksummed
    /// file and committed via a manifest swap before this returns, and the
    /// WAL rotates once every collection's rows live in sealed files.
    pub fn seal_collection(&self, collection: &str) -> Result<()> {
        let mut durable = self.lock_durable();
        let mut collections = self.collections.write();
        let col = collections
            .get_mut(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_string()))?;
        col.seal()?;
        if let Some(store) = durable.as_mut() {
            store.sync_collection(col, &self.metadata.read(), points::SEGMENT_WRITE)?;
            let all_empty = collections.values().all(|c| c.growing_len() == 0);
            store.rotate_wal_if_idle(all_empty)?;
        }
        Ok(())
    }

    /// Compacts the named collection: merges undersized sealed segments to
    /// bound the search fan-out width after many incremental appends. With a
    /// durable store the merged segment files are fully written and fsynced
    /// *before* the manifest swap drops the sources, so a crash at any
    /// instant recovers either the old segment set or the new one — never a
    /// mix — and the source files are deleted only after the swap.
    pub fn compact_collection(&self, collection: &str) -> Result<CompactionResult> {
        let mut durable = self.lock_durable();
        let mut collections = self.collections.write();
        let col = collections
            .get_mut(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_string()))?;
        let result = col.compact()?;
        if let Some(store) = durable.as_mut() {
            store.sync_collection(col, &self.metadata.read(), points::COMPACT_SEGMENT_WRITE)?;
        }
        Ok(result)
    }

    /// Fast search: top-`k` joined hits for the query embedding — the
    /// unfiltered one-query case of
    /// [`VectorDatabase::search_batch_with_stats_opts`].
    pub fn search(&self, collection: &str, query: &[f32], k: usize) -> Result<Vec<JoinedHit>> {
        let request = BatchQuery {
            query,
            k,
            filter: None,
        };
        Ok(self
            .search_batch_with_stats_opts(collection, &[request], 0)?
            .pop()
            .unwrap_or_default()
            .0)
    }

    /// Compiles a metadata predicate into the fully pushed-down filter the
    /// index scans consume: the id test every segment applies per row, plus
    /// the candidate id ranges used to prune segments by zone map. Returns
    /// `None` for an unconstrained predicate (the unfiltered fast path).
    ///
    /// This is [`MetadataStore::resolve`] under the metadata read lock: video
    /// and time constraints become sorted id ranges read off the frame
    /// directory (one per camera for a time window), class constraints the
    /// classes' shared postings — work in proportion to the frames named, not
    /// to the table, with the per-row join kept for tables whose ids are not
    /// packed.
    pub fn resolve_filter(&self, predicate: &PatchPredicate) -> Option<PushdownFilter> {
        self.metadata.read().resolve(predicate)
    }

    /// Batched fast search, joined: [`VectorDatabase::search_batch_unjoined`],
    /// then each query's hits sorted best-first by [`SearchResult::order`]
    /// (score descending, then patch id ascending) and joined with their
    /// metadata rows. Results come back in request order. A hit whose row is
    /// missing fails the call.
    ///
    /// The trailing `usize` is accepted and ignored. It was a scan-thread
    /// count, and stays only because the stand-alone end-to-end benchmark
    /// package calls this signature; ROADMAP item 2f renames the function
    /// and drops the argument together with that package's call.
    pub fn search_batch_with_stats_opts(
        &self,
        collection: &str,
        requests: &[BatchQuery<'_>],
        _ignored: usize,
    ) -> Result<Vec<(Vec<JoinedHit>, SearchStats)>> {
        self.search_batch_unjoined(collection, requests)?
            .into_iter()
            .map(|(mut hits, stats)| {
                hits.sort_unstable_by(SearchResult::order);
                Ok((self.join_hits(hits)?, stats))
            })
            .collect()
    }

    /// Batched fast search, unjoined: all queries fan out over the segment
    /// set together (one collection read-lock acquisition, one segment walk
    /// shared by the whole batch), each with its own `k` and optional
    /// pushed-down filter (compile one with
    /// [`VectorDatabase::resolve_filter`]). Each query gets its `k` best
    /// patch ids and scores **unordered**, with its work counters, in
    /// request order; the walk runs on the caller's thread
    /// ([`SegmentedCollection::search_batch_with_stats_opts`]).
    ///
    /// No metadata row is read. A caller that reduces the hits first — the
    /// engine keeps one patch per frame, and only the frames its answer
    /// uses — sorts and joins just what it keeps ([`VectorDatabase::patches`]).
    pub fn search_batch_unjoined(
        &self,
        collection: &str,
        requests: &[BatchQuery<'_>],
    ) -> Result<Vec<(Vec<SearchResult>, SearchStats)>> {
        let collections = self.collections.read();
        let col = collections
            .get(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_string()))?;
        col.search_batch_with_stats_opts(requests)
    }

    /// Joins index hits with their metadata rows, keeping their order.
    fn join_hits(&self, hits: Vec<SearchResult>) -> Result<Vec<JoinedHit>> {
        let metadata = self.metadata.read();
        hits.into_iter()
            .map(|hit| {
                metadata.get(hit.id).map(|record| JoinedHit {
                    patch_id: hit.id,
                    score: hit.score,
                    record: record.clone(),
                })
            })
            .collect()
    }

    /// Metadata rows of a batch of patches, in the order asked for: one
    /// metadata read lock, one row lookup per id
    /// ([`MetadataStore::get_many`]). Fails with
    /// [`StoreError::MissingMetadata`] on the first id without a row.
    pub fn patches(&self, patch_ids: &[u64]) -> Result<Vec<PatchRecord>> {
        let metadata = self.metadata.read();
        Ok(metadata.get_many(patch_ids)?.into_iter().cloned().collect())
    }

    /// All metadata rows of one key frame (used by the rerank stage to pull a
    /// candidate frame's patches).
    pub fn frame_patches(&self, video_id: u32, frame_index: u32) -> Vec<PatchRecord> {
        self.metadata
            .read()
            .patches_of_frame(video_id, frame_index)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Metadata row of a single patch.
    pub fn patch(&self, patch_id: u64) -> Result<PatchRecord> {
        self.metadata.read().get(patch_id).cloned()
    }

    /// Content generation of the named collection: bumped by every insert,
    /// seal and compaction. Serving layers key cache invalidation off this —
    /// a result cached at generation `g` is stale once the collection reports
    /// anything newer.
    pub fn collection_generation(&self, collection: &str) -> Result<u64> {
        let collections = self.collections.read();
        let col = collections
            .get(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_string()))?;
        Ok(col.generation())
    }

    /// Storage statistics of the named collection.
    pub fn collection_stats(&self, collection: &str) -> Result<CollectionStats> {
        let collections = self.collections.read();
        let col = collections
            .get(collection)
            .ok_or_else(|| StoreError::UnknownCollection(collection.to_string()))?;
        Ok(col.stats())
    }

    /// Embedding dimensionality of a collection, or `None` if it does not
    /// exist. Engine recovery checks this against its encoder configuration
    /// before serving a reopened store built under a different config.
    pub fn collection_dim(&self, collection: &str) -> Option<usize> {
        self.collections
            .read()
            .get(collection)
            .map(|c| c.config().dim)
    }

    /// Total number of metadata rows.
    pub fn metadata_rows(&self) -> usize {
        self.metadata.read().len()
    }

    /// Distinct video ids present in the metadata table. Engine recovery
    /// rebuilds its ingested-video set from this.
    pub fn video_ids(&self) -> BTreeSet<u32> {
        self.metadata.read().video_ids()
    }

    /// Approximate total storage footprint in bytes (index + metadata).
    pub fn total_bytes(&self) -> usize {
        let collections = self.collections.read();
        let index_bytes: usize = collections.values().map(|c| c.stats().index_bytes).sum();
        index_bytes + self.metadata.read().memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patchid;
    use lovo_index::IndexKind;

    fn record(patch_id: u64, video: u32, frame: u32) -> PatchRecord {
        PatchRecord {
            patch_id,
            video_id: video,
            frame_index: frame,
            patch_index: 0,
            bbox: (0.0, 0.0, 10.0, 10.0),
            timestamp: frame as f64 / 30.0,
            class_code: Some((patch_id % 4) as u8),
        }
    }

    /// One (optionally filtered) query through the batched working function
    /// under the automatic thread rule.
    fn search_one(
        db: &VectorDatabase,
        query: &[f32],
        k: usize,
        filter: Option<&PushdownFilter>,
    ) -> (Vec<JoinedHit>, SearchStats) {
        db.search_batch_with_stats_opts("p", &[BatchQuery { query, k, filter }], 0)
            .unwrap()
            .pop()
            .unwrap()
    }

    fn vector(i: usize, dim: usize) -> Vec<f32> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(i as u64 + 1);
        (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn insert_search_join_round_trip() {
        let db = VectorDatabase::new();
        db.create_collection("patches", CollectionConfig::new(16))
            .unwrap();
        for i in 0..400 {
            db.insert_patch(
                "patches",
                &vector(i, 16),
                record(i as u64, 0, (i / 48) as u32),
            )
            .unwrap();
        }
        db.seal_collection("patches").unwrap();
        let hits = db.search("patches", &vector(123, 16), 5).unwrap();
        assert_eq!(hits.len(), 5);
        assert_eq!(hits[0].patch_id, 123);
        assert_eq!(hits[0].record.frame_index, (123 / 48) as u32);
    }

    #[test]
    fn unknown_collection_errors() {
        let db = VectorDatabase::new();
        assert!(db
            .insert_patch("missing", &[0.0; 4], record(0, 0, 0))
            .is_err());
        assert!(db.search("missing", &[0.0; 4], 1).is_err());
        assert!(db.collection_stats("missing").is_err());
        assert!(!db.has_collection("missing"));
    }

    #[test]
    fn frame_patches_returns_all_rows_of_frame() {
        let db = VectorDatabase::new();
        db.create_collection(
            "patches",
            CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce),
        )
        .unwrap();
        for i in 0..10u64 {
            db.insert_patch(
                "patches",
                &vector(i as usize, 8),
                record(i, 2, (i % 2) as u32),
            )
            .unwrap();
        }
        assert_eq!(db.frame_patches(2, 0).len(), 5);
        assert_eq!(db.frame_patches(2, 1).len(), 5);
        assert!(db.frame_patches(3, 0).is_empty());
        assert_eq!(db.metadata_rows(), 10);
    }

    #[test]
    fn patch_lookup() {
        let db = VectorDatabase::new();
        db.create_collection(
            "p",
            CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce),
        )
        .unwrap();
        db.insert_patch("p", &vector(0, 8), record(77, 1, 4))
            .unwrap();
        assert_eq!(db.patch(77).unwrap().video_id, 1);
        assert!(db.patch(78).is_err());
    }

    #[test]
    fn batched_insert_matches_per_patch_insert() {
        let db = VectorDatabase::new();
        db.create_collection(
            "p",
            CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce),
        )
        .unwrap();
        let batch: Vec<(Vec<f32>, PatchRecord)> = (0..20u64)
            .map(|i| (vector(i as usize, 8), record(i, 0, (i / 4) as u32)))
            .collect();
        let inserted = db
            .insert_patches("p", batch.iter().map(|(v, r)| (v.as_slice(), r.clone())))
            .unwrap();
        assert_eq!(inserted, 20);
        assert_eq!(db.metadata_rows(), 20);
        let hits = db.search("p", &vector(7, 8), 1).unwrap();
        assert_eq!(hits[0].patch_id, 7);
        assert_eq!(hits[0].record.frame_index, 1);
        assert!(db
            .insert_patches(
                "missing",
                batch.iter().map(|(v, r)| (v.as_slice(), r.clone()))
            )
            .is_err());
    }

    #[test]
    fn seal_and_compact_round_trip() {
        let db = VectorDatabase::new();
        db.create_collection("p", CollectionConfig::new(8).with_segment_capacity(64))
            .unwrap();
        // Three undersized append batches, each sealed individually.
        for batch in 0..3u64 {
            for i in 0..20u64 {
                let id = batch * 20 + i;
                db.insert_patch("p", &vector(id as usize, 8), record(id, 0, 0))
                    .unwrap();
            }
            db.seal_collection("p").unwrap();
        }
        assert_eq!(db.collection_stats("p").unwrap().sealed_segments, 3);
        let generation_before = db.collection_generation("p").unwrap();
        assert!(generation_before > 0);
        let result = db.compact_collection("p").unwrap();
        assert!(db.collection_generation("p").unwrap() > generation_before);
        assert!(db.collection_generation("missing").is_err());
        assert_eq!(result.segments_merged, 3);
        assert_eq!(db.collection_stats("p").unwrap().sealed_segments, 1);
        let hits = db.search("p", &vector(42, 8), 1).unwrap();
        assert_eq!(hits[0].patch_id, 42);
        assert!(db.seal_collection("missing").is_err());
        assert!(db.compact_collection("missing").is_err());
    }

    #[test]
    fn video_only_predicate_needs_no_metadata_and_prunes_segments() {
        let db = VectorDatabase::new();
        db.create_collection("p", CollectionConfig::new(8).with_segment_capacity(64))
            .unwrap();
        // Four videos × 64 patches, packed ids, sealed per video so segments
        // are video-contiguous the way real ingestion makes them.
        for video in 0..4u32 {
            for i in 0..64u64 {
                let id = patchid::patch_id(video, i as u32, 0);
                let rec = record(id, video, i as u32);
                db.insert_patch("p", &vector(video as usize * 64 + i as usize, 8), rec)
                    .unwrap();
            }
            db.seal_collection("p").unwrap();
        }
        let predicate = PatchPredicate {
            video_ids: Some([2u32].into_iter().collect()),
            ..Default::default()
        };
        assert!(!predicate.needs_metadata_join());
        let filter = db.resolve_filter(&predicate).unwrap();
        let probe = vector(2 * 64 + 11, 8);
        let (hits, stats) = search_one(&db, &probe, 5, Some(&filter));
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.record.video_id == 2));
        assert_eq!(hits[0].patch_id, patchid::patch_id(2, 11, 0));
        assert_eq!(stats.segments_pruned, 3);
        assert_eq!(stats.segments_probed, 1);
        // The unconstrained predicate resolves to no filter at all.
        assert!(db.resolve_filter(&PatchPredicate::default()).is_none());
    }

    /// Four videos of 64 one-patch frames with packed ids, sealed every 32
    /// rows: two segments per video, the first holding frames 0..32.
    fn packed_two_segments_per_video(kind: IndexKind) -> VectorDatabase {
        let db = VectorDatabase::new();
        let config = CollectionConfig::new(8)
            .with_index_kind(kind)
            .with_segment_capacity(32);
        db.create_collection("p", config).unwrap();
        for video in 0..4u32 {
            for frame in 0..64u32 {
                let id = patchid::patch_id(video, frame, 0);
                let row = vector((video * 64 + frame) as usize, 8);
                db.insert_patch("p", &row, record(id, video, frame))
                    .unwrap();
            }
        }
        db
    }

    #[test]
    fn time_window_predicate_prunes_segments_and_keeps_the_answer() {
        let db = packed_two_segments_per_video(IndexKind::BruteForce);
        assert_eq!(db.collection_stats("p").unwrap().sealed_segments, 8);
        // Frames 0..=31 of every video: exactly each video's first segment.
        let window = PatchPredicate {
            time_range: Some((0.0, 31.0 / 30.0)),
            ..Default::default()
        };
        let filter = db.resolve_filter(&window).unwrap();
        // One range per video, and the row test reports what it matches.
        assert_eq!(filter.ranges().unwrap().len(), 4);
        assert_eq!(filter.id_filter().matched(), 4 * 32);
        let probe = vector(2 * 64 + 11, 8);
        let (hits, stats) = search_one(&db, &probe, 10, Some(&filter));
        assert_eq!(hits[0].patch_id, patchid::patch_id(2, 11, 0));
        assert!(hits.iter().all(|h| h.record.frame_index < 32));
        assert_eq!(stats.segments_pruned, 4);
        assert_eq!(stats.segments_probed, 4);
        assert_eq!(stats.filtered_out, 0);
        // The same rows as an explicit allow-set with no ranges: nothing is
        // pruned, and the answer is the same.
        let ids = (0..4u32).flat_map(|v| (0..32u32).map(move |f| patchid::patch_id(v, f, 0)));
        let unpruned = PushdownFilter::new(lovo_index::IdFilter::from_ids(ids));
        let (reference, reference_stats) = search_one(&db, &probe, 10, Some(&unpruned));
        assert_eq!(reference_stats.segments_pruned, 0);
        assert_eq!(hits, reference);
        // A window joined with one video keeps one segment of eight.
        let one = PatchPredicate {
            video_ids: Some([2u32].into_iter().collect()),
            ..window.clone()
        };
        let filter = db.resolve_filter(&one).unwrap();
        let (hits, stats) = search_one(&db, &probe, 10, Some(&filter));
        assert!(hits
            .iter()
            .all(|h| h.record.video_id == 2 && h.record.frame_index < 32));
        assert_eq!((stats.segments_pruned, stats.segments_probed), (7, 1));
        // A window nothing satisfies resolves to no range: all pruned.
        let never = PatchPredicate {
            time_range: Some((100.0, 200.0)),
            ..Default::default()
        };
        let filter = db.resolve_filter(&never).unwrap();
        let (none, stats) = search_one(&db, &probe, 10, Some(&filter));
        assert!(none.is_empty());
        assert_eq!((stats.segments_pruned, stats.segments_probed), (8, 0));
    }

    #[test]
    fn selective_time_window_over_hnsw_segments_answers_exactly() {
        // 600 one-patch frames in one sealed segment per family; the window
        // matches 30 of them — a twentieth, under the tenth at which a graph
        // segment answers from its raw rows instead of its beam.
        let build = |kind: IndexKind| {
            let db = VectorDatabase::new();
            db.create_collection("p", CollectionConfig::new(8).with_index_kind(kind))
                .unwrap();
            for frame in 0..600u32 {
                let row = PatchRecord {
                    class_code: Some((frame % 4) as u8),
                    ..record(patchid::patch_id(3, frame, 0), 3, frame)
                };
                db.insert_patch("p", &vector(frame as usize, 8), row)
                    .unwrap();
            }
            db.seal_collection("p").unwrap();
            db
        };
        let graph = build(IndexKind::Hnsw);
        let exact = build(IndexKind::BruteForce);
        let window = PatchPredicate {
            time_range: Some((10.0, 10.0 + 29.0 / 30.0)), // frames 300..=329
            ..Default::default()
        };
        let class = PatchPredicate {
            class_codes: Some([1u8].into_iter().collect()),
            ..window.clone()
        };
        for (predicate, matched) in [(&window, 30), (&class, 8)] {
            let filter = graph.resolve_filter(predicate).unwrap();
            assert_eq!(filter.id_filter().matched(), matched);
            let reference = exact.resolve_filter(predicate).unwrap();
            for probe in [5usize, 310, 599] {
                let query = vector(probe, 8);
                let (hits, stats) = search_one(&graph, &query, 12, Some(&filter));
                let (expected, _) = search_one(&exact, &query, 12, Some(&reference));
                assert_eq!(hits, expected, "probe {probe}");
                assert_eq!(hits.len(), matched.min(12));
                // Exhaustive over the matches, not a beam walk.
                assert_eq!(stats.vectors_scored, matched);
                assert_eq!(stats.filtered_out, 600 - matched);
            }
        }
    }

    #[test]
    fn unpacked_ids_resolve_through_the_per_row_join() {
        // Ids 0..120 over frames `i % 60`: every frame's two rows sit sixty
        // ids apart, so no frame owns a run of the table and the directory
        // cannot answer. The predicate is joined row by row into an
        // allow-set, pruned by the set's id span.
        let db = VectorDatabase::new();
        db.create_collection(
            "p",
            CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce),
        )
        .unwrap();
        for i in 0..120u64 {
            // timestamp = frame/30; classes cycle 0..4.
            db.insert_patch("p", &vector(i as usize, 8), record(i, 0, (i % 60) as u32))
                .unwrap();
        }
        db.seal_collection("p").unwrap();
        // Time window 0.5..1.0 s (frames 15..=30) and class 1.
        let predicate = PatchPredicate {
            time_range: Some((0.5, 1.0)),
            class_codes: Some([1u8].into_iter().collect()),
            ..Default::default()
        };
        let filter = db.resolve_filter(&predicate);
        let (hits, stats) = search_one(&db, &vector(17, 8), 50, filter.as_ref());
        assert!(!hits.is_empty());
        for hit in &hits {
            assert!(hit.record.timestamp >= 0.5 && hit.record.timestamp <= 1.0);
            assert_eq!(hit.record.class_code, Some(1));
        }
        assert!(stats.filtered_out > 0);

        // A predicate nothing satisfies prunes everything via empty ranges.
        let impossible = PatchPredicate {
            time_range: Some((100.0, 200.0)),
            ..Default::default()
        };
        let filter = db.resolve_filter(&impossible);
        let (none, nstats) = search_one(&db, &vector(17, 8), 5, filter.as_ref());
        assert!(none.is_empty());
        assert_eq!(nstats.segments_probed, 0);
        assert!(nstats.segments_pruned >= 1);
    }

    #[test]
    fn batch_search_joins_all_requests_in_order() {
        let db = VectorDatabase::new();
        db.create_collection(
            "p",
            CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce),
        )
        .unwrap();
        for i in 0..100u64 {
            db.insert_patch(
                "p",
                &vector(i as usize, 8),
                record(i, (i / 50) as u32, i as u32),
            )
            .unwrap();
        }
        db.seal_collection("p").unwrap();
        let predicate = PatchPredicate {
            time_range: Some((0.0, 1.0)), // frames 0..=30
            ..Default::default()
        };
        let filter = db.resolve_filter(&predicate).unwrap();
        let q0 = vector(5, 8);
        let q1 = vector(60, 8);
        let requests = [
            BatchQuery {
                query: &q0,
                k: 3,
                filter: Some(&filter),
            },
            BatchQuery {
                query: &q1,
                k: 2,
                filter: None,
            },
        ];
        let results = db.search_batch_with_stats_opts("p", &requests, 0).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0[0].patch_id, 5);
        assert!(results[0].0.iter().all(|h| h.record.timestamp <= 1.0));
        assert_eq!(results[1].0[0].patch_id, 60);
        // Batch results match the equivalent single searches.
        let single = search_one(&db, &q0, 3, Some(&filter));
        assert_eq!(results[0], single);
        assert!(db
            .search_batch_with_stats_opts("missing", &requests, 0)
            .is_err());

        // The joined search is the unjoined one, sorted best-first, with
        // each hit's row read back in that order.
        let unjoined = db.search_batch_unjoined("p", &requests).unwrap();
        for ((joined, joined_stats), (mut raw, raw_stats)) in results.iter().zip(unjoined) {
            assert_eq!(*joined_stats, raw_stats);
            raw.sort_unstable_by(SearchResult::order);
            let ids: Vec<u64> = raw.iter().map(|hit| hit.id).collect();
            let expected: Vec<JoinedHit> = raw
                .iter()
                .zip(db.patches(&ids).unwrap())
                .map(|(hit, record)| JoinedHit {
                    patch_id: hit.id,
                    score: hit.score,
                    record,
                })
                .collect();
            assert_eq!(*joined, expected);
        }
        assert!(db.search_batch_unjoined("missing", &requests).is_err());
    }

    #[test]
    fn batch_row_lookup_keeps_order_and_fails_on_a_missing_row() {
        let db = VectorDatabase::new();
        db.create_collection(
            "p",
            CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce),
        )
        .unwrap();
        for i in 0..10u64 {
            db.insert_patch("p", &vector(i as usize, 8), record(i, 0, i as u32))
                .unwrap();
        }
        let rows = db.patches(&[7, 2, 9]).unwrap();
        let ids: Vec<u64> = rows.iter().map(|row| row.patch_id).collect();
        assert_eq!(ids, vec![7, 2, 9]);
        assert!(db.patches(&[]).unwrap().is_empty());
        assert!(matches!(
            db.patches(&[3, 42]),
            Err(StoreError::MissingMetadata(42))
        ));
    }

    #[test]
    fn stats_and_total_bytes() {
        let db = VectorDatabase::new();
        db.create_collection(
            "p",
            CollectionConfig::new(8).with_index_kind(IndexKind::BruteForce),
        )
        .unwrap();
        for i in 0..50u64 {
            db.insert_patch("p", &vector(i as usize, 8), record(i, 0, 0))
                .unwrap();
        }
        let stats = db.collection_stats("p").unwrap();
        assert_eq!(stats.entities, 50);
        assert!(db.total_bytes() > 0);
    }
}
