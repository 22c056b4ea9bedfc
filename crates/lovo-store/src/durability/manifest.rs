//! The manifest: the store's single source of truth for what is durable.
//!
//! One file (`MANIFEST`) lists every collection (name + full configuration),
//! every sealed segment file with its id/row-count/zone range, the active
//! WAL id, and the id counters. It is always replaced atomically (temp +
//! fsync + rename), so every commit of new durable state — a sealed
//! segment, a compaction, a WAL rotation — is a single manifest swap:
//! readers of the previous or the next manifest both see a consistent
//! store, never a mix. Files on disk that the manifest does not reference
//! are garbage from interrupted operations and are deleted at open.
//!
//! ## File layout
//!
//! ```text
//! magic "LMAN" | version u32 | payload_len u32 | payload_crc u32 | payload
//! payload: next_wal_id u64 | active_wal u64 | collection_count u32
//!   per collection: name string
//!     | dim u32 | index_kind u8 | normalize u8 | reserved u8
//!     | segment_capacity u64 | next_segment_id u64 | wal_watermark u64
//!     | segment_count u32
//!     | per segment: id u64 | file string | rows u64 | min_id u64 | max_id u64
//! ```
//!
//! The `reserved` byte held the quantization-tier bits until PR 22 removed
//! the tiers. It is written as 0 and ignored on read, so the layout and
//! `MANIFEST_VERSION` stay put: ANN indexes are derived data rebuilt at
//! open, and a store written with a tier enabled reopens with the exact
//! families.

use super::codec::{ByteReader, ByteWriter, CodecError};
use super::crc::crc32;
use super::fault::points;
use super::io::{self, Faults};
use super::StorageError;
use crate::collection::CollectionConfig;
use lovo_index::IndexKind;
use std::path::Path;

pub(crate) const MANIFEST_MAGIC: [u8; 4] = *b"LMAN";
pub(crate) const MANIFEST_VERSION: u32 = 1;
/// The manifest's file name under the store root.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

/// One sealed segment the manifest references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSegment {
    /// Segment id (unique within its collection).
    pub id: u64,
    /// File name under the store's `segments/` directory.
    pub file: String,
    /// Row count (used for loss accounting when the file is quarantined).
    pub rows: u64,
    /// Zone map lower bound.
    pub min_id: u64,
    /// Zone map upper bound.
    pub max_id: u64,
}

/// One collection's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestCollection {
    /// Collection name.
    pub name: String,
    /// Full configuration, round-tripped so open reconstructs the collection
    /// without out-of-band knowledge.
    pub config: CollectionConfig,
    /// Next segment id the collection will allocate.
    pub next_segment_id: u64,
    /// Number of records already in the active WAL when this collection was
    /// (re)created. Replay skips earlier records targeting it — they belong
    /// to a replaced incarnation whose rows must not resurrect. Reset to 0
    /// when the WAL rotates.
    pub wal_watermark: u64,
    /// Sealed segments in search order.
    pub segments: Vec<ManifestSegment>,
}

/// The decoded manifest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Next WAL id to allocate at rotation.
    pub next_wal_id: u64,
    /// Id of the WAL file holding the not-yet-sealed tail.
    pub active_wal: u64,
    /// Every collection in the store.
    pub collections: Vec<ManifestCollection>,
}

fn index_kind_code(kind: IndexKind) -> u8 {
    match kind {
        IndexKind::BruteForce => 0,
        IndexKind::IvfPq => 1,
        IndexKind::Hnsw => 2,
    }
}

fn index_kind_from_code(code: u8) -> Option<IndexKind> {
    match code {
        0 => Some(IndexKind::BruteForce),
        1 => Some(IndexKind::IvfPq),
        2 => Some(IndexKind::Hnsw),
        _ => None,
    }
}

impl Manifest {
    /// The manifest entry for `name`, if present.
    pub fn collection(&self, name: &str) -> Option<&ManifestCollection> {
        self.collections.iter().find(|c| c.name == name)
    }

    /// Mutable access to the entry for `name`.
    pub(crate) fn collection_mut(&mut self, name: &str) -> Option<&mut ManifestCollection> {
        self.collections.iter_mut().find(|c| c.name == name)
    }

    fn encode(&self) -> Vec<u8> {
        let mut p = ByteWriter::new();
        p.u64(self.next_wal_id);
        p.u64(self.active_wal);
        p.u32(self.collections.len() as u32);
        for col in &self.collections {
            p.string(&col.name);
            p.u32(col.config.dim as u32);
            p.u8(index_kind_code(col.config.index_kind));
            p.u8(u8::from(col.config.normalize));
            p.u8(0); // reserved
            p.u64(col.config.segment_capacity as u64);
            p.u64(col.next_segment_id);
            p.u64(col.wal_watermark);
            p.u32(col.segments.len() as u32);
            for seg in &col.segments {
                p.u64(seg.id);
                p.string(&seg.file);
                p.u64(seg.rows);
                p.u64(seg.min_id);
                p.u64(seg.max_id);
            }
        }
        let payload = p.into_bytes();
        let mut w = ByteWriter::new();
        w.bytes(&MANIFEST_MAGIC);
        w.u32(MANIFEST_VERSION);
        w.u32(payload.len() as u32);
        w.u32(crc32(&payload));
        w.bytes(&payload);
        w.into_bytes()
    }

    fn decode(bytes: &[u8], file: &Path) -> Result<Self, StorageError> {
        let corrupt = |detail: String| StorageError::Corrupt {
            file: file.display().to_string(),
            detail,
        };
        let codec = |e: CodecError| StorageError::Corrupt {
            file: file.display().to_string(),
            detail: e.to_string(),
        };
        let mut r = ByteReader::new(bytes);
        if r.bytes(4, "manifest magic").map_err(codec)? != MANIFEST_MAGIC {
            return Err(corrupt("bad manifest magic".to_string()));
        }
        let version = r.u32("manifest version").map_err(codec)?;
        if version != MANIFEST_VERSION {
            return Err(StorageError::UnsupportedVersion {
                file: file.display().to_string(),
                found: version,
                expected: MANIFEST_VERSION,
            });
        }
        let payload_len = r.u32("manifest payload length").map_err(codec)? as usize;
        let payload_crc = r.u32("manifest payload crc").map_err(codec)?;
        let payload = r.bytes(payload_len, "manifest payload").map_err(codec)?;
        if crc32(payload) != payload_crc {
            return Err(corrupt("manifest payload checksum mismatch".to_string()));
        }

        let mut p = ByteReader::new(payload);
        let next_wal_id = p.u64("next wal id").map_err(codec)?;
        let active_wal = p.u64("active wal id").map_err(codec)?;
        let collection_count = p.u32("collection count").map_err(codec)?;
        let mut collections = Vec::with_capacity(collection_count.min(1 << 16) as usize);
        for _ in 0..collection_count {
            let name = p.string("collection name").map_err(codec)?;
            let dim = p.u32("collection dim").map_err(codec)? as usize;
            let kind_code = p.u8("index kind").map_err(codec)?;
            let index_kind = index_kind_from_code(kind_code)
                .ok_or_else(|| corrupt(format!("unknown index kind code {kind_code}")))?;
            let normalize = p.u8("normalize flag").map_err(codec)? != 0;
            p.u8("reserved byte").map_err(codec)?;
            let segment_capacity = p.u64("segment capacity").map_err(codec)? as usize;
            let next_segment_id = p.u64("next segment id").map_err(codec)?;
            let wal_watermark = p.u64("wal watermark").map_err(codec)?;
            let segment_count = p.u32("segment count").map_err(codec)?;
            let mut segments = Vec::with_capacity(segment_count.min(1 << 20) as usize);
            for _ in 0..segment_count {
                segments.push(ManifestSegment {
                    id: p.u64("segment id").map_err(codec)?,
                    file: p.string("segment file").map_err(codec)?,
                    rows: p.u64("segment rows").map_err(codec)?,
                    min_id: p.u64("segment min id").map_err(codec)?,
                    max_id: p.u64("segment max id").map_err(codec)?,
                });
            }
            collections.push(ManifestCollection {
                name,
                config: CollectionConfig {
                    dim,
                    index_kind,
                    normalize,
                    segment_capacity,
                },
                next_segment_id,
                wal_watermark,
                segments,
            });
        }
        if !p.is_exhausted() {
            return Err(corrupt("trailing bytes in manifest payload".to_string()));
        }
        Ok(Self {
            next_wal_id,
            active_wal,
            collections,
        })
    }

    /// Atomically replaces the manifest under `root`. This is THE commit
    /// point of every durable state transition.
    pub(crate) fn write(&self, root: &Path, faults: &Faults) -> Result<(), StorageError> {
        io::write_file_atomic(
            &root.join(MANIFEST_FILE),
            &self.encode(),
            points::MANIFEST_WRITE,
            points::MANIFEST_SYNC,
            points::MANIFEST_RENAME,
            faults,
        )
    }

    /// Reads and verifies the manifest under `root`.
    pub(crate) fn read(root: &Path) -> Result<Self, StorageError> {
        let path = root.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path)
            .map_err(|e| io::io_err(format!("read of {}", path.display()), e))?;
        Self::decode(&bytes, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            next_wal_id: 5,
            active_wal: 4,
            collections: vec![ManifestCollection {
                name: "lovo_patches".to_string(),
                config: CollectionConfig::new(64)
                    .with_segment_capacity(512)
                    .with_index_kind(IndexKind::Hnsw),
                next_segment_id: 3,
                wal_watermark: 2,
                segments: vec![
                    ManifestSegment {
                        id: 0,
                        file: "seg-lovo_patches-000000.lseg".to_string(),
                        rows: 512,
                        min_id: 0,
                        max_id: 511,
                    },
                    ManifestSegment {
                        id: 1,
                        file: "seg-lovo_patches-000001.lseg".to_string(),
                        rows: 100,
                        min_id: 512,
                        max_id: 611,
                    },
                ],
            }],
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lovo-man-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trip() {
        let dir = scratch_dir("roundtrip");
        let manifest = sample();
        manifest.write(&dir, &None).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), manifest);
        // Rewriting (the swap) replaces atomically.
        let mut next = manifest.clone();
        next.active_wal = 9;
        next.write(&dir, &None).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap().active_wal, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_config_field_round_trips() {
        let manifest = sample();
        let col = &Manifest::decode(&manifest.encode(), Path::new("m"))
            .unwrap()
            .collections[0];
        assert_eq!(col.config, manifest.collections[0].config);
        assert_eq!(col.next_segment_id, 3);
        assert_eq!(col.segments, manifest.collections[0].segments);
    }

    #[test]
    fn reserved_byte_is_ignored_on_read() {
        // A store written while the quantization tiers existed carries their
        // bits in the reserved byte; the decoded configuration must not
        // depend on them.
        let manifest = sample();
        let mut bytes = manifest.encode();
        let name_len = manifest.collections[0].name.len();
        // Header (16), wal ids + collection count (20), name, dim (4),
        // index kind and normalize (1 each).
        let reserved = 16 + 20 + 4 + name_len + 4 + 2;
        assert_eq!(
            bytes[reserved - 2..=reserved],
            [2, 1, 0],
            "kind, normalize, reserved"
        );
        bytes[reserved] = 0b111;
        let crc = crc32(&bytes[16..]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        let decoded = Manifest::decode(&bytes, Path::new("m")).unwrap();
        assert_eq!(
            decoded.collections[0].config,
            manifest.collections[0].config
        );
    }

    #[test]
    fn corruption_is_detected() {
        let clean = sample().encode();
        for pos in [0usize, 6, 14, 40, clean.len() - 1] {
            let mut bad = clean.clone();
            bad[pos] ^= 0x08;
            assert!(
                Manifest::decode(&bad, Path::new("m")).is_err(),
                "flip at {pos} undetected"
            );
        }
        assert!(Manifest::decode(&clean[..clean.len() - 4], Path::new("m")).is_err());
    }

    #[test]
    fn missing_manifest_is_io_error() {
        let dir = scratch_dir("missing");
        assert!(matches!(Manifest::read(&dir), Err(StorageError::Io { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
