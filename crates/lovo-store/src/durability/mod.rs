//! Durable storage: checksummed segment files, a write-ahead log, and
//! crash recovery.
//!
//! The subsystem makes [`crate::database::VectorDatabase`] survive `kill
//! -9` at any instant. Three on-disk structures, each hand-serialized
//! ([`codec`]) and CRC32-protected ([`crc`]):
//!
//! * **Sealed segment files** ([`segfile`]) — immutable, written once at
//!   seal/compaction time via temp-file + fsync + atomic rename.
//! * **The write-ahead log** ([`wal`]) — protects the growing append
//!   buffer; one length-prefixed, checksummed record per ingest batch,
//!   fsynced before the batch is acknowledged.
//! * **The manifest** ([`manifest`]) — the atomically-swapped root of
//!   truth listing collections, sealed segment files, and the active WAL.
//!
//! ### Commit protocol
//!
//! Every durable transition is ordered so a crash between any two steps
//! recovers to a consistent state:
//!
//! 1. *Ingest batch*: WAL append + fsync (the ack point), then apply to
//!    memory. Crash after the fsync replays the batch; crash during the
//!    append leaves a torn tail that replay truncates.
//! 2. *Seal*: write the new segment file(s), fsync, rename; THEN swap the
//!    manifest to reference them. Crash before the swap leaves orphan
//!    files (deleted at open) and the rows still covered by the WAL.
//! 3. *Compaction*: write merged segment files completely, swap the
//!    manifest (drop sources, add merged), THEN delete source files.
//!    Recovery sees either the old set or the new set, never a mix.
//! 4. *WAL rotation* (only when every growing buffer is empty, i.e. all
//!    rows sealed): create the new WAL, swap the manifest's `active_wal`,
//!    then delete the old log.
//!
//! ### Recovery (`DurableStore::open`)
//!
//! Read the manifest → load every referenced segment file, **quarantining**
//! (moving aside, not panicking on) any that fail verification → replay
//! the active WAL, truncating the first torn/corrupt tail record →
//! delete unreferenced files. The outcome is summarized in a
//! [`RecoveryReport`]; data loss (a quarantined segment, a torn tail) is
//! reported, never silently absorbed and never fatal.

// The durability layer, submodules included: recovery code that panics on a
// corrupt byte defeats its whole purpose, so every parse failure surfaces as
// a typed `StorageError` (quarantine, truncate, or report) instead.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod codec;
pub mod crc;
pub mod fault;
mod io;
pub mod manifest;
pub mod segfile;
pub mod wal;

use crate::collection::{CollectionConfig, SegmentedCollection};
use crate::metadata::{MetadataStore, PatchRecord};
use crate::patchid;
use manifest::{Manifest, ManifestCollection, ManifestSegment};
use segfile::{LoadedSegment, SegmentFileData};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::{Wal, WalRecord};

pub use fault::{points, FaultAction, FaultPlan};
pub use segfile::LoadedSegment as RecoveredSegment;
pub use wal::WalRecord as DurableBatch;

/// Errors surfaced by the durability layer. All failure modes are typed —
/// recovery code paths never panic on bad bytes.
#[derive(Debug)]
pub enum StorageError {
    /// An OS-level I/O failure, with the operation and path that hit it.
    Io {
        /// What the store was doing (operation + path).
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A file failed structural or checksum verification.
    Corrupt {
        /// The offending file.
        file: String,
        /// What failed to verify.
        detail: String,
    },
    /// A file was written by a newer format version than this build reads.
    UnsupportedVersion {
        /// The offending file.
        file: String,
        /// Version found on disk.
        found: u32,
        /// Version this build supports.
        expected: u32,
    },
    /// `create` was asked to initialize a root that already holds a store.
    AlreadyExists {
        /// The occupied root directory.
        path: String,
    },
    /// A cross-structure invariant was violated (a bug, not bad disk state).
    Internal(String),
    /// A [`FaultPlan`] crash point fired — the simulated `kill -9`. Tests
    /// drop the store on seeing this and reopen from disk.
    InjectedCrash {
        /// The I/O point that crashed.
        point: &'static str,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { context, source } => write!(f, "i/o failure: {context}: {source}"),
            StorageError::Corrupt { file, detail } => write!(f, "corrupt {file}: {detail}"),
            StorageError::UnsupportedVersion {
                file,
                found,
                expected,
            } => write!(
                f,
                "{file}: format version {found} not supported (this build reads {expected})"
            ),
            StorageError::AlreadyExists { path } => {
                write!(f, "store already exists at {path}")
            }
            StorageError::Internal(msg) => write!(f, "internal storage invariant violated: {msg}"),
            StorageError::InjectedCrash { point } => write!(f, "injected crash at {point}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Configuration of the durability layer. Every WAL record is fsynced
/// before the batch it carries is acknowledged, so a batch that returned
/// `Ok` survives `kill -9`.
#[derive(Debug, Clone, Default)]
pub struct DurabilityConfig {
    /// Armed fault plan for crash testing. `None` (the default) in
    /// production; checks compile out of release builds entirely unless
    /// the `failpoints` feature is on.
    pub faults: Option<Arc<FaultPlan>>,
}

impl DurabilityConfig {
    /// The production default: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style fault plan, for crash-recovery tests.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// One sealed segment that failed verification at open and was moved to
/// the store's `quarantine/` directory instead of being served.
#[derive(Debug, Clone)]
pub struct QuarantinedSegment {
    /// Collection the segment belonged to.
    pub collection: String,
    /// File name (now under `quarantine/`).
    pub file: String,
    /// Rows lost with it, per the manifest's accounting.
    pub rows_lost: u64,
    /// Why verification failed.
    pub reason: String,
}

/// What recovery found and did. Returned by the `open` paths so callers
/// (and operators) see exactly what survived — the engine degrades to the
/// surviving segments rather than refusing to start.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sealed segments that loaded and verified cleanly.
    pub segments_loaded: usize,
    /// Rows restored from sealed segment files.
    pub rows_loaded: usize,
    /// Segments that failed verification and were quarantined.
    pub quarantined: Vec<QuarantinedSegment>,
    /// Complete WAL records replayed.
    pub wal_records_replayed: usize,
    /// Rows re-applied from the WAL (excluding rows already present in
    /// sealed segments).
    pub wal_rows_replayed: usize,
    /// Bytes truncated off a torn/corrupt WAL tail (0 for a clean log).
    pub wal_bytes_truncated: u64,
    /// Unreferenced leftover files deleted (interrupted temp writes,
    /// orphaned segments from a crash before a manifest swap, stale WALs).
    pub orphan_files_removed: usize,
    /// Auxiliary blobs recovered from segment AUX sections and WAL
    /// records, keyed by frame key. The engine drains this to rebuild its
    /// key-frame map; entries left here were recovered but unclaimed.
    pub aux_blobs: HashMap<u64, Vec<u8>>,
    /// Recovered key-frame blobs the engine failed to decode and dropped
    /// when it rebuilt its key-frame map (each such frame loses its rerank
    /// candidate). The storage layer leaves this 0; `lovo-core`'s reopen
    /// counts it.
    pub frames_undecodable: usize,
}

impl RecoveryReport {
    /// True when recovery lost nothing: no quarantined segments, no
    /// truncated WAL tail and no undecodable key frame.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.wal_bytes_truncated == 0 && self.frames_undecodable == 0
    }

    /// Total rows known to be lost (quarantined segments' row counts).
    pub fn rows_lost(&self) -> u64 {
        self.quarantined.iter().map(|q| q.rows_lost).sum()
    }
}

/// One collection's recovered durable state, ready for the database layer
/// to rebuild indexes over.
pub(crate) struct RecoveredCollection {
    pub name: String,
    pub config: CollectionConfig,
    pub next_segment_id: u64,
    pub segments: Vec<LoadedSegment>,
}

/// Everything `DurableStore::open` hands the database layer.
pub(crate) struct RecoveredState {
    pub collections: Vec<RecoveredCollection>,
    pub wal_records: Vec<WalRecord>,
    pub report: RecoveryReport,
}

/// The durable half of a [`crate::database::VectorDatabase`]: owns the
/// store directory, the manifest, and the active WAL. The database holds
/// it behind a mutex acquired *before* the collection lock (see
/// ARCHITECTURE.md's lock order), which also serializes WAL order with
/// apply order — replay is then guaranteed to reproduce the pre-crash
/// insert sequence exactly.
pub struct DurableStore {
    root: PathBuf,
    config: DurabilityConfig,
    manifest: Manifest,
    wal: Wal,
    /// Aux blobs logged since the last WAL rotation: candidates for the
    /// AUX section of the next sealed segments. Cleared at rotation, by
    /// which point every blob's frame has rows in some sealed file.
    pending_aux: HashMap<u64, Vec<u8>>,
}

const SEGMENTS_DIR: &str = "segments";
const QUARANTINE_DIR: &str = "quarantine";

fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn segment_file_name(collection: &str, id: u64) -> String {
    format!("seg-{}-{id:06}.lseg", sanitize_name(collection))
}

/// Rejects a fault plan handed to a build whose check sites are compiled
/// out (release without the `failpoints` feature): a crash test that runs
/// against such a build would silently test nothing, so fail fast instead.
fn reject_inert_faults(config: &DurabilityConfig) -> Result<(), StorageError> {
    #[cfg(not(any(debug_assertions, feature = "failpoints")))]
    if config.faults.is_some() {
        return Err(StorageError::Internal(
            "a FaultPlan was supplied but fault-injection check sites are \
             compiled out of this build; enable the `failpoints` feature"
                .to_string(),
        ));
    }
    let _ = config;
    Ok(())
}

impl DurableStore {
    /// Initializes a fresh store under `root` (created if absent): empty
    /// manifest, WAL 0. Errors with [`StorageError::AlreadyExists`] if a
    /// manifest is already present.
    pub(crate) fn create(
        root: impl Into<PathBuf>,
        config: DurabilityConfig,
    ) -> Result<Self, StorageError> {
        reject_inert_faults(&config)?;
        let root = root.into();
        if root.join(manifest::MANIFEST_FILE).exists() {
            return Err(StorageError::AlreadyExists {
                path: root.display().to_string(),
            });
        }
        std::fs::create_dir_all(root.join(SEGMENTS_DIR))
            .map_err(|e| io::io_err(format!("create of {}", root.display()), e))?;
        let wal = Wal::create(&root, 0, &config.faults)?;
        let manifest = Manifest {
            next_wal_id: 1,
            active_wal: 0,
            collections: Vec::new(),
        };
        manifest.write(&root, &config.faults)?;
        Ok(Self {
            root,
            config,
            manifest,
            wal,
            pending_aux: HashMap::new(),
        })
    }

    /// Opens an existing store and runs recovery. See the module docs for
    /// the recovery state machine; the returned [`RecoveredState`] carries
    /// the loaded segments and the WAL records for the database layer to
    /// re-apply.
    pub(crate) fn open(
        root: impl Into<PathBuf>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveredState), StorageError> {
        reject_inert_faults(&config)?;
        let root = root.into();
        let mut manifest = Manifest::read(&root)?;
        let mut report = RecoveryReport::default();
        let segments_dir = root.join(SEGMENTS_DIR);
        std::fs::create_dir_all(&segments_dir)
            .map_err(|e| io::io_err(format!("create of {}", segments_dir.display()), e))?;

        // 1. Load every manifest-referenced segment, quarantining failures.
        let mut collections = Vec::new();
        let mut quarantined_any = false;
        for entry in &mut manifest.collections {
            let mut recovered = RecoveredCollection {
                name: entry.name.clone(),
                config: entry.config,
                next_segment_id: entry.next_segment_id,
                segments: Vec::new(),
            };
            let mut surviving = Vec::new();
            for seg in &entry.segments {
                let path = segments_dir.join(&seg.file);
                match segfile::read_segment_file(&path) {
                    Ok(loaded) => {
                        report.segments_loaded += 1;
                        report.rows_loaded += loaded.row_count();
                        for (key, blob) in &loaded.aux {
                            report.aux_blobs.entry(*key).or_insert_with(|| blob.clone());
                        }
                        recovered.segments.push(loaded);
                        surviving.push(seg.clone());
                    }
                    Err(err) => {
                        quarantine_file(&root, &path);
                        quarantined_any = true;
                        report.quarantined.push(QuarantinedSegment {
                            collection: entry.name.clone(),
                            file: seg.file.clone(),
                            rows_lost: seg.rows,
                            reason: err.to_string(),
                        });
                    }
                }
            }
            entry.segments = surviving;
            collections.push(recovered);
        }

        // Commit the quarantines: the manifest must stop referencing files
        // that are no longer under segments/.
        if quarantined_any {
            manifest.write(&root, &config.faults)?;
        }

        // 2. Replay the active WAL, truncating any torn tail. Records that
        // predate their target collection's watermark belong to a replaced
        // incarnation (as do records for collections that no longer exist)
        // and are dropped.
        let mut raw_records = Vec::new();
        let (wal, replay) = Wal::open_replay(&root, manifest.active_wal, &config.faults, |r| {
            raw_records.push(r)
        })?;
        report.wal_bytes_truncated = replay.truncated_bytes;
        let watermarks: HashMap<String, u64> = manifest
            .collections
            .iter()
            .map(|c| (c.name.clone(), c.wal_watermark))
            .collect();
        let mut wal_records = Vec::new();
        for (index, record) in raw_records.into_iter().enumerate() {
            match watermarks.get(&record.collection) {
                Some(&watermark) if (index as u64) >= watermark => wal_records.push(record),
                _ => {}
            }
        }
        report.wal_records_replayed = wal_records.len();
        let mut pending_aux = HashMap::new();
        for record in &wal_records {
            for (key, blob) in &record.aux {
                report.aux_blobs.entry(*key).or_insert_with(|| blob.clone());
                pending_aux.insert(*key, blob.clone());
            }
        }

        // 3. Delete unreferenced leftovers: temp files, orphaned segments
        // (written but never committed by a manifest swap), stale WALs.
        let referenced: HashSet<String> = manifest
            .collections
            .iter()
            .flat_map(|c| c.segments.iter().map(|s| s.file.clone()))
            .collect();
        report.orphan_files_removed +=
            remove_orphans(&segments_dir, |name| !referenced.contains(name));
        let active_wal_name = Wal::file_name(manifest.active_wal);
        report.orphan_files_removed += remove_orphans(&root, |name| {
            name.ends_with(".tmp") || (name.starts_with("wal-") && name != active_wal_name)
        });

        Ok((
            Self {
                root,
                config,
                manifest,
                wal,
                pending_aux,
            },
            RecoveredState {
                collections,
                wal_records,
                report,
            },
        ))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Records (or replaces) a collection in the manifest. Called by
    /// `create_collection` before the in-memory collection exists, so a
    /// crash right after still knows the collection on reopen.
    pub(crate) fn register_collection(
        &mut self,
        name: &str,
        config: CollectionConfig,
    ) -> Result<(), StorageError> {
        // Mirror `SegmentedCollection::new`: the growing segment owns id 0,
        // so the first id the collection *allocates* is 1. The watermark
        // fences off any WAL records a replaced incarnation already logged.
        let fresh = ManifestCollection {
            name: name.to_string(),
            config,
            next_segment_id: 1,
            wal_watermark: self.wal.record_count(),
            segments: Vec::new(),
        };
        let mut candidate = self.manifest.clone();
        let replaced_files: Vec<String> = match candidate.collection_mut(name) {
            Some(entry) => {
                let files = entry.segments.iter().map(|s| s.file.clone()).collect();
                *entry = fresh;
                files
            }
            None => {
                candidate.collections.push(fresh);
                Vec::new()
            }
        };
        candidate.write(&self.root, &self.config.faults)?;
        self.manifest = candidate;
        for file in replaced_files {
            let _ = std::fs::remove_file(self.root.join(SEGMENTS_DIR).join(file));
        }
        Ok(())
    }

    /// Appends one ingest batch to the WAL and fsyncs it. THE
    /// acknowledgement point: once this returns `Ok`, the batch survives
    /// `kill -9`.
    ///
    /// The record is encoded straight from the caller's borrowed rows, and
    /// the auxiliary blobs move into the pending set once logged.
    pub(crate) fn append_batch(
        &mut self,
        collection: &str,
        patches: &[(&[f32], PatchRecord)],
        aux: Vec<(u64, Vec<u8>)>,
    ) -> Result<(), StorageError> {
        let payload = wal::encode_payload(
            collection,
            patches.iter().map(|(vector, record)| (*vector, record)),
            &aux,
        );
        self.wal.append(&payload, &self.config.faults)?;
        for (key, blob) in aux {
            self.pending_aux.entry(key).or_insert(blob);
        }
        Ok(())
    }

    /// Reconciles one collection's sealed segments with disk: writes files
    /// for newly sealed segments, swaps the manifest, then deletes files
    /// of segments compaction merged away. No-op when nothing changed.
    ///
    /// `segment_write_point` is [`points::SEGMENT_WRITE`] on the seal path
    /// and [`points::COMPACT_SEGMENT_WRITE`] from compaction, so the fault
    /// harness can target each independently.
    pub(crate) fn sync_collection(
        &mut self,
        col: &SegmentedCollection,
        metadata: &MetadataStore,
        segment_write_point: &'static str,
    ) -> Result<(), StorageError> {
        let name = col.name().to_string();
        let entry = self.manifest.collection(&name).ok_or_else(|| {
            StorageError::Internal(format!("collection '{name}' missing from manifest"))
        })?;
        let on_disk: HashMap<u64, ManifestSegment> =
            entry.segments.iter().map(|s| (s.id, s.clone())).collect();
        let in_memory: Vec<&crate::segment::Segment> = col.sealed_segments().iter().collect();
        let in_memory_ids: HashSet<u64> = in_memory.iter().map(|s| s.id()).collect();
        let new_ids: Vec<u64> = in_memory
            .iter()
            .map(|s| s.id())
            .filter(|id| !on_disk.contains_key(id))
            .collect();
        let removed: Vec<ManifestSegment> = entry
            .segments
            .iter()
            .filter(|s| !in_memory_ids.contains(&s.id))
            .cloned()
            .collect();
        let next_segment_id = col.next_segment_id();
        if new_ids.is_empty() && removed.is_empty() && entry.next_segment_id == next_segment_id {
            return Ok(());
        }

        // Aux blobs for new segments come from the WAL era (pending) and,
        // for compaction merges, from the AUX sections of the source files
        // (still on disk — they are deleted only after the manifest swap).
        let segments_dir = self.root.join(SEGMENTS_DIR);
        let mut carried_aux: HashMap<u64, Vec<u8>> = HashMap::new();
        if !removed.is_empty() && !new_ids.is_empty() {
            for seg in &removed {
                let loaded = segfile::read_segment_file(&segments_dir.join(&seg.file))?;
                for (key, blob) in loaded.aux {
                    carried_aux.entry(key).or_insert(blob);
                }
            }
        }

        // 1. Write files for newly sealed segments (fsynced + renamed into
        // place, still unreferenced — a crash here leaves only orphans).
        let new_id_set: HashSet<u64> = new_ids.iter().copied().collect();
        let mut manifest_segments = Vec::with_capacity(in_memory.len());
        for segment in &in_memory {
            if let Some(existing) = on_disk.get(&segment.id()) {
                manifest_segments.push(existing.clone());
                continue;
            }
            if !new_id_set.contains(&segment.id()) {
                continue;
            }
            let file = segment_file_name(&name, segment.id());
            let rows: Vec<(u64, &[f32])> = segment.raw_rows().collect();
            let mut meta = Vec::with_capacity(rows.len());
            for (id, _) in &rows {
                meta.push(metadata.get(*id).map_err(|_| {
                    StorageError::Internal(format!("no metadata row for sealed patch id {id}"))
                })?);
            }
            let frame_keys: HashSet<u64> = rows
                .iter()
                .map(|(id, _)| {
                    let (video, frame, _) = patchid::split_patch_id(*id);
                    (u64::from(video) << 32) | u64::from(frame)
                })
                .collect();
            let mut aux: Vec<(u64, &[u8])> = Vec::new();
            for key in &frame_keys {
                if let Some(blob) = self.pending_aux.get(key).or_else(|| carried_aux.get(key)) {
                    aux.push((*key, blob.as_slice()));
                }
            }
            aux.sort_by_key(|(key, _)| *key);
            let zone = segment.zone_map();
            segfile::write_segment_file(
                &segments_dir.join(&file),
                &SegmentFileData {
                    id: segment.id(),
                    dim: col.config().dim,
                    zone,
                    rows,
                    meta,
                    aux,
                },
                segment_write_point,
                &self.config.faults,
            )?;
            let zone = zone.unwrap_or(crate::segment::ZoneMap {
                min_id: u64::MAX,
                max_id: 0,
                rows: 0,
            });
            manifest_segments.push(ManifestSegment {
                id: segment.id(),
                file,
                rows: segment.len() as u64,
                min_id: zone.min_id,
                max_id: zone.max_id,
            });
        }

        // 2. Swap the manifest — the commit point.
        let mut candidate = self.manifest.clone();
        if let Some(entry) = candidate.collection_mut(&name) {
            entry.segments = manifest_segments;
            entry.next_segment_id = next_segment_id;
        }
        candidate.write(&self.root, &self.config.faults)?;
        self.manifest = candidate;

        // 3. Delete files the manifest no longer references (failures are
        // benign: they become orphans the next open removes).
        for seg in &removed {
            let _ = std::fs::remove_file(segments_dir.join(&seg.file));
        }
        Ok(())
    }

    /// Rotates the WAL when it has records but every collection's growing
    /// buffer is empty — i.e. every logged row now lives in a sealed,
    /// manifest-referenced segment file, so the log is dead weight. Order:
    /// create the new WAL, swap the manifest's `active_wal`, delete the
    /// old log. A crash between any two steps recovers correctly (the old
    /// manifest still points at the old, complete WAL; the new manifest
    /// points at the new, empty one).
    pub(crate) fn rotate_wal_if_idle(
        &mut self,
        all_growing_empty: bool,
    ) -> Result<(), StorageError> {
        if !all_growing_empty || self.wal.record_count() == 0 {
            return Ok(());
        }
        let new_id = self.manifest.next_wal_id;
        let new_wal = Wal::create(&self.root, new_id, &self.config.faults)?;
        let mut candidate = self.manifest.clone();
        candidate.active_wal = new_id;
        candidate.next_wal_id = new_id + 1;
        for col in &mut candidate.collections {
            // Watermarks index into the old, now-empty log.
            col.wal_watermark = 0;
        }
        candidate.write(&self.root, &self.config.faults)?;
        self.manifest = candidate;
        let old_path = self.wal.path().to_path_buf();
        self.wal = new_wal;
        let _ = std::fs::remove_file(old_path);
        self.pending_aux.clear();
        Ok(())
    }

    /// Number of records in the active WAL (exposed for tests and stats).
    pub fn wal_records(&self) -> u64 {
        self.wal.record_count()
    }

    /// Committed byte length of the active WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// The current manifest (exposed read-only for tests and tooling).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }
}

/// Moves a failed segment file into `quarantine/` (best-effort: if even
/// the move fails the file is left in place, but either way the manifest
/// stops referencing it, so it is never served).
fn quarantine_file(root: &Path, path: &Path) {
    let dir = root.join(QUARANTINE_DIR);
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if let Some(name) = path.file_name() {
        let _ = std::fs::rename(path, dir.join(name));
    }
}

/// Deletes files in `dir` whose names satisfy `is_orphan`; returns how
/// many were removed. Non-files and unreadable entries are skipped.
fn remove_orphans(dir: &Path, is_orphan: impl Fn(&str) -> bool) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_orphan(name) && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lovo-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_then_open_empty_store() {
        let root = scratch_root("empty");
        let store = DurableStore::create(&root, DurabilityConfig::new()).unwrap();
        assert_eq!(store.wal_records(), 0);
        drop(store);
        // Creating over an existing store is refused.
        assert!(matches!(
            DurableStore::create(&root, DurabilityConfig::new()),
            Err(StorageError::AlreadyExists { .. })
        ));
        let (store, state) = DurableStore::open(&root, DurabilityConfig::new()).unwrap();
        assert!(state.report.is_clean());
        assert_eq!(state.report.segments_loaded, 0);
        assert!(state.collections.is_empty());
        assert!(state.wal_records.is_empty());
        assert_eq!(store.manifest().active_wal, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn open_of_nonexistent_root_is_io_error() {
        let root = scratch_root("nothing");
        assert!(matches!(
            DurableStore::open(&root, DurabilityConfig::new()),
            Err(StorageError::Io { .. })
        ));
    }

    #[test]
    fn sanitized_segment_names() {
        assert_eq!(
            segment_file_name("lovo_patches", 7),
            "seg-lovo_patches-000007.lseg"
        );
        assert_eq!(segment_file_name("a/b c", 0), "seg-a_b_c-000000.lseg");
    }
}
