//! Versioned on-disk format for sealed segments.
//!
//! A sealed segment file holds everything needed to reconstruct the
//! in-memory [`crate::segment::Segment`] exactly: the raw (normalized) rows
//! with their ids, the zone map, the metadata rows joined by patch id, and
//! any auxiliary blobs (serialized key frames) whose frames have rows in
//! the segment. ANN index payloads — IVF centroids, PQ code books — are
//! *derived* data: they are rebuilt deterministically at open (k-means is
//! fixed-seeded), so corruption of a derived cache can never corrupt a
//! query result. The format reserves a section kind for them
//! ([`SECTION_PQ_CODES`]; kind 5 is retired) and the reader skips section
//! kinds it does not consume, so a later writer can persist the cache
//! without a version bump.
//!
//! ## File layout (version 2)
//!
//! ```text
//! magic "LSEG" | version u32 | header_len u32 | header_crc u32
//! header:   segment_id u64 | dim u32 | rows u64 | zone_min u64 | zone_max u64
//!           | section_count u32
//!           | per section: kind u32 | offset u64 | len u64 | crc u32
//! sections: at their absolute offsets, each independently CRC32-checked
//!   IDS     (6): rows × id u64
//!   VECTORS (1): rows × dim × f32, row-major, nothing interleaved
//!   META    (2): row_count u64 | per row: PatchRecord
//!   AUX     (3): blob_count u32 | per blob: frame_key u64 | blob
//! ```
//!
//! In version 2 every section starts at a 64-byte-aligned absolute file
//! offset (the gaps are zero padding, outside every CRC), and the VECTORS
//! section is raw little-endian row-major `f32`, the arena layout the scan
//! kernels consume. The alignment is part of the format: the header's
//! offsets and the CRC layout depend on it, so the writer keeps it and
//! every file written so far reopens unchanged. Version 1 interleaved
//! `id u64 | dim × f32` per row with no alignment; the reader still
//! accepts it.
//!
//! Files are written via temp-file + fsync + atomic rename
//! (the private `io::write_file_atomic` helper), so a torn segment write
//! is never visible under the final name; the reader therefore treats any
//! checksum failure as corruption of a once-complete file and the caller
//! quarantines it.

use super::codec::{decode_patch_record, encode_patch_record, ByteReader, ByteWriter};
use super::crc::crc32;
use super::fault::points;
use super::io::{self, Faults};
use super::StorageError;
use crate::metadata::PatchRecord;
use crate::segment::ZoneMap;
use std::path::Path;

pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"LSEG";
/// Version written by this build.
pub(crate) const SEGMENT_VERSION: u32 = 2;
/// Oldest version the reader still decodes.
pub(crate) const SEGMENT_MIN_VERSION: u32 = 1;
/// Every section's absolute file offset is a multiple of this in version 2.
pub(crate) const SECTION_ALIGN: usize = 64;

/// Raw rows: v2 row-major f32 payload; v1 interleaved `id | row`.
pub const SECTION_VECTORS: u32 = 1;
/// Metadata rows of the segment's patch ids.
pub const SECTION_META: u32 = 2;
/// Auxiliary blobs (serialized key frames) keyed by frame key.
pub const SECTION_AUX: u32 = 3;
/// Reserved: PQ code cache (derived; rebuilt at open today).
pub const SECTION_PQ_CODES: u32 = 4;
// Kind 5 is retired: it was reserved for the int8 code cache of the
// quantization tiers PR 22 removed and was never written. Never reuse it.
/// Row ids, in row order (v2; v1 interleaves them into VECTORS).
pub const SECTION_IDS: u32 = 6;

/// Everything a segment file persists, decoded back into memory.
#[derive(Debug, Clone)]
pub struct LoadedSegment {
    /// Segment id (unique within its collection).
    pub id: u64,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Zone map as stored (also re-derivable from the rows).
    pub zone: Option<ZoneMap>,
    /// Row ids in original insertion order — the order the index rebuild
    /// consumes, which keeps rebuilt indexes bit-identical to the pre-crash
    /// ones.
    pub ids: Vec<u64>,
    /// Row values, row-major, `ids.len() × dim` values in id order.
    pub rows: Vec<f32>,
    /// Metadata rows for the segment's patch ids.
    pub meta: Vec<PatchRecord>,
    /// Auxiliary blobs whose frames have rows in this segment.
    pub aux: Vec<AuxBlob>,
}

/// One auxiliary blob as stored: the owning frame key and its bytes.
pub type AuxBlob = (u64, Vec<u8>);

impl LoadedSegment {
    /// Number of rows stored.
    pub fn row_count(&self) -> usize {
        self.ids.len()
    }

    /// `(id, row)` pairs in insertion order.
    pub fn iter_rows(&self) -> impl Iterator<Item = (u64, &[f32])> {
        let dim = self.dim.max(1);
        self.ids.iter().copied().zip(self.rows.chunks(dim))
    }
}

/// The data to persist for one sealed segment.
pub(crate) struct SegmentFileData<'a> {
    pub id: u64,
    pub dim: usize,
    pub zone: Option<ZoneMap>,
    pub rows: Vec<(u64, &'a [f32])>,
    pub meta: Vec<&'a PatchRecord>,
    pub aux: Vec<(u64, &'a [u8])>,
}

fn corrupt(path: &Path, detail: String) -> StorageError {
    StorageError::Corrupt {
        file: path.display().to_string(),
        detail,
    }
}

/// Assembles the preamble + header + padded sections for one version-2
/// segment file. Separated from the atomic write so tests can inspect the
/// encoded image directly.
fn encode_segment_file(data: &SegmentFileData<'_>) -> Vec<u8> {
    // Sections first, so their lengths and checksums are known.
    let mut ids = ByteWriter::new();
    let mut vectors = ByteWriter::new();
    for (id, row) in &data.rows {
        ids.u64(*id);
        for &v in *row {
            vectors.f32(v);
        }
    }
    let mut meta = ByteWriter::new();
    meta.u64(data.meta.len() as u64);
    for record in &data.meta {
        encode_patch_record(&mut meta, record);
    }
    let mut aux = ByteWriter::new();
    aux.u32(data.aux.len() as u32);
    for (frame_key, blob) in &data.aux {
        aux.u64(*frame_key);
        aux.blob(blob);
    }
    let sections = [
        (SECTION_IDS, ids.into_bytes()),
        (SECTION_VECTORS, vectors.into_bytes()),
        (SECTION_META, meta.into_bytes()),
        (SECTION_AUX, aux.into_bytes()),
    ];

    // Header with absolute section offsets, every offset rounded up to the
    // next 64-byte boundary (the padding is zeros and sits outside every
    // CRC — flipping it cannot corrupt anything the reader consumes).
    let header_len = 8 + 4 + 8 + 8 + 8 + 4 + sections.len() * (4 + 8 + 8 + 4);
    let preamble_len = 4 + 4 + 4 + 4; // magic, version, header_len, header_crc
    let mut offset = preamble_len + header_len;
    let mut header = ByteWriter::new();
    header.u64(data.id);
    header.u32(data.dim as u32);
    header.u64(data.rows.len() as u64);
    let (zone_min, zone_max) = data
        .zone
        .map(|z| (z.min_id, z.max_id))
        .unwrap_or((u64::MAX, 0));
    header.u64(zone_min);
    header.u64(zone_max);
    header.u32(sections.len() as u32);
    for (kind, bytes) in &sections {
        offset = offset.next_multiple_of(SECTION_ALIGN);
        header.u32(*kind);
        header.u64(offset as u64);
        header.u64(bytes.len() as u64);
        header.u32(crc32(bytes));
        offset += bytes.len();
    }
    let header = header.into_bytes();
    debug_assert_eq!(header.len(), header_len);

    const ZEROS: [u8; SECTION_ALIGN] = [0u8; SECTION_ALIGN];
    let mut file = ByteWriter::new();
    file.bytes(&SEGMENT_MAGIC);
    file.u32(SEGMENT_VERSION);
    file.u32(header.len() as u32);
    file.u32(crc32(&header));
    file.bytes(&header);
    for (_, bytes) in &sections {
        let pad = file.len().next_multiple_of(SECTION_ALIGN) - file.len();
        file.bytes(&ZEROS[..pad]);
        file.bytes(bytes);
    }
    file.into_bytes()
}

/// Encodes and atomically writes a segment file. `write_point` distinguishes
/// seal-path writes ([`points::SEGMENT_WRITE`]) from compaction writes
/// ([`points::COMPACT_SEGMENT_WRITE`]) for fault targeting.
pub(crate) fn write_segment_file(
    path: &Path,
    data: &SegmentFileData<'_>,
    write_point: &'static str,
    faults: &Faults,
) -> Result<(), StorageError> {
    io::write_file_atomic(
        path,
        &encode_segment_file(data),
        write_point,
        points::SEGMENT_SYNC,
        points::SEGMENT_RENAME,
        faults,
    )
}

/// Header fields plus the byte range of every section this reader consumes,
/// all structurally validated and CRC-verified against the file bytes.
struct RawSegment<'a> {
    version: u32,
    id: u64,
    dim: usize,
    row_count: usize,
    zone: Option<ZoneMap>,
    /// v2: raw row-major f32 payload. v1: interleaved `id | row` records.
    vectors: Option<&'a [u8]>,
    /// v2 only: row ids.
    ids: Option<&'a [u8]>,
    meta: Option<&'a [u8]>,
    aux: Option<&'a [u8]>,
}

/// Parses and verifies a segment image. Every structural invariant and
/// every section CRC is checked here.
fn parse_segment<'a>(bytes: &'a [u8], path: &Path) -> Result<RawSegment<'a>, StorageError> {
    let fail = |detail: String| corrupt(path, detail);
    let mut r = ByteReader::new(bytes);
    let magic = r
        .bytes(4, "segment magic")
        .map_err(|e| fail(e.to_string()))?;
    if magic != SEGMENT_MAGIC {
        return Err(fail("bad segment magic".to_string()));
    }
    let version = r.u32("segment version").map_err(|e| fail(e.to_string()))?;
    if !(SEGMENT_MIN_VERSION..=SEGMENT_VERSION).contains(&version) {
        return Err(StorageError::UnsupportedVersion {
            file: path.display().to_string(),
            found: version,
            expected: SEGMENT_VERSION,
        });
    }
    let header_len = r
        .u32("segment header length")
        .map_err(|e| fail(e.to_string()))? as usize;
    let header_crc = r
        .u32("segment header crc")
        .map_err(|e| fail(e.to_string()))?;
    let header_bytes = r
        .bytes(header_len, "segment header")
        .map_err(|e| fail(e.to_string()))?;
    if crc32(header_bytes) != header_crc {
        return Err(fail("segment header checksum mismatch".to_string()));
    }

    let mut h = ByteReader::new(header_bytes);
    let id = h.u64("segment id").map_err(|e| fail(e.to_string()))?;
    let dim = h.u32("segment dim").map_err(|e| fail(e.to_string()))? as usize;
    let row_count = h.u64("segment rows").map_err(|e| fail(e.to_string()))? as usize;
    let zone_min = h.u64("zone min").map_err(|e| fail(e.to_string()))?;
    let zone_max = h.u64("zone max").map_err(|e| fail(e.to_string()))?;
    let section_count = h.u32("section count").map_err(|e| fail(e.to_string()))?;
    let zone = if row_count > 0 {
        Some(ZoneMap {
            min_id: zone_min,
            max_id: zone_max,
            rows: row_count,
        })
    } else {
        None
    };

    let mut raw = RawSegment {
        version,
        id,
        dim,
        row_count,
        zone,
        vectors: None,
        ids: None,
        meta: None,
        aux: None,
    };
    for _ in 0..section_count {
        let kind = h.u32("section kind").map_err(|e| fail(e.to_string()))?;
        let offset = h.u64("section offset").map_err(|e| fail(e.to_string()))? as usize;
        let len = h.u64("section length").map_err(|e| fail(e.to_string()))? as usize;
        let crc = h.u32("section crc").map_err(|e| fail(e.to_string()))?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| fail("section bounds overflow".to_string()))?;
        let section = bytes
            .get(offset..end)
            .ok_or_else(|| fail("section out of file bounds".to_string()))?;
        if crc32(section) != crc {
            return Err(fail(format!("section {kind} checksum mismatch")));
        }
        match kind {
            SECTION_VECTORS => {
                let expected = if version >= 2 {
                    row_count * dim * 4
                } else {
                    row_count * (8 + dim * 4)
                };
                if section.len() != expected {
                    return Err(fail("vectors section length mismatch".to_string()));
                }
                raw.vectors = Some(section);
            }
            SECTION_IDS => {
                if section.len() != row_count * 8 {
                    return Err(fail("ids section length mismatch".to_string()));
                }
                raw.ids = Some(section);
            }
            SECTION_META => raw.meta = Some(section),
            SECTION_AUX => raw.aux = Some(section),
            // Derived-cache or future sections: checksum verified, content
            // ignored by this reader.
            _ => {}
        }
    }
    if row_count > 0 && raw.vectors.is_none() {
        return Err(fail("missing vectors section".to_string()));
    }
    if raw.version >= 2 && row_count > 0 && raw.ids.is_none() {
        return Err(fail("missing ids section".to_string()));
    }
    Ok(raw)
}

/// Decodes the rows: `(ids, row-major values)` for both the v1 interleaved
/// layout and the v2 split layout.
fn decode_rows(raw: &RawSegment<'_>, path: &Path) -> Result<(Vec<u64>, Vec<f32>), StorageError> {
    let Some(section) = raw.vectors else {
        return Ok((Vec::new(), Vec::new()));
    };
    let fail = |detail: String| corrupt(path, detail);
    if raw.version >= 2 {
        let id_section = raw.ids.unwrap_or_default();
        let mut ids = Vec::with_capacity(id_section.len() / 8);
        let mut s = ByteReader::new(id_section);
        while !s.is_exhausted() {
            ids.push(s.u64("row id").map_err(|e| fail(e.to_string()))?);
        }
        let mut values = Vec::with_capacity(raw.row_count * raw.dim);
        let mut s = ByteReader::new(section);
        while !s.is_exhausted() {
            values.push(s.f32("row value").map_err(|e| fail(e.to_string()))?);
        }
        Ok((ids, values))
    } else {
        let mut s = ByteReader::new(section);
        let mut ids = Vec::with_capacity(raw.row_count);
        let mut values = Vec::with_capacity(raw.row_count * raw.dim);
        for _ in 0..raw.row_count {
            ids.push(s.u64("row id").map_err(|e| fail(e.to_string()))?);
            for _ in 0..raw.dim {
                values.push(s.f32("row value").map_err(|e| fail(e.to_string()))?);
            }
        }
        Ok((ids, values))
    }
}

/// Decodes the META and AUX sections.
fn decode_meta_aux(
    raw: &RawSegment<'_>,
    path: &Path,
) -> Result<(Vec<PatchRecord>, Vec<AuxBlob>), StorageError> {
    let fail = |detail: String| corrupt(path, detail);
    let mut meta = Vec::new();
    if let Some(section) = raw.meta {
        let mut s = ByteReader::new(section);
        let count = s.u64("meta count").map_err(|e| fail(e.to_string()))? as usize;
        meta.reserve(count.min(1 << 24));
        for _ in 0..count {
            meta.push(decode_patch_record(&mut s).map_err(|e| fail(e.to_string()))?);
        }
    }
    let mut aux = Vec::new();
    if let Some(section) = raw.aux {
        let mut s = ByteReader::new(section);
        let count = s.u32("aux count").map_err(|e| fail(e.to_string()))? as usize;
        aux.reserve(count.min(1 << 16));
        for _ in 0..count {
            let key = s.u64("aux key").map_err(|e| fail(e.to_string()))?;
            let blob = s.blob("aux blob").map_err(|e| fail(e.to_string()))?;
            aux.push((key, blob));
        }
    }
    Ok((meta, aux))
}

/// Reads and fully verifies a segment file onto the heap. Any structural or
/// checksum failure returns [`StorageError::Corrupt`] (or
/// [`StorageError::UnsupportedVersion`]); the caller decides whether to
/// quarantine. Unknown section kinds are skipped after their CRC check.
pub(crate) fn read_segment_file(path: &Path) -> Result<LoadedSegment, StorageError> {
    let bytes =
        std::fs::read(path).map_err(|e| io::io_err(format!("read of {}", path.display()), e))?;
    let raw = parse_segment(&bytes, path)?;
    let (ids, values) = decode_rows(&raw, path)?;
    if ids.len() != raw.row_count {
        return Err(corrupt(path, "row id count mismatch".to_string()));
    }
    let (meta, aux) = decode_meta_aux(&raw, path)?;
    Ok(LoadedSegment {
        id: raw.id,
        dim: raw.dim,
        zone: raw.zone,
        ids,
        rows: values,
        meta,
        aux,
    })
}

/// Writes the retired version-1 layout (interleaved rows, unaligned
/// sections). Kept so compatibility tests can prove v1 files written by
/// earlier builds still load.
#[cfg(test)]
pub(crate) fn write_segment_file_v1(
    path: &Path,
    data: &SegmentFileData<'_>,
) -> Result<(), StorageError> {
    let mut vectors = ByteWriter::new();
    for (id, row) in &data.rows {
        vectors.u64(*id);
        for &v in *row {
            vectors.f32(v);
        }
    }
    let mut meta = ByteWriter::new();
    meta.u64(data.meta.len() as u64);
    for record in &data.meta {
        encode_patch_record(&mut meta, record);
    }
    let mut aux = ByteWriter::new();
    aux.u32(data.aux.len() as u32);
    for (frame_key, blob) in &data.aux {
        aux.u64(*frame_key);
        aux.blob(blob);
    }
    let sections = [
        (SECTION_VECTORS, vectors.into_bytes()),
        (SECTION_META, meta.into_bytes()),
        (SECTION_AUX, aux.into_bytes()),
    ];
    let header_len = 8 + 4 + 8 + 8 + 8 + 4 + sections.len() * (4 + 8 + 8 + 4);
    let preamble_len = 4 + 4 + 4 + 4;
    let mut offset = (preamble_len + header_len) as u64;
    let mut header = ByteWriter::new();
    header.u64(data.id);
    header.u32(data.dim as u32);
    header.u64(data.rows.len() as u64);
    let (zone_min, zone_max) = data
        .zone
        .map(|z| (z.min_id, z.max_id))
        .unwrap_or((u64::MAX, 0));
    header.u64(zone_min);
    header.u64(zone_max);
    header.u32(sections.len() as u32);
    for (kind, bytes) in &sections {
        header.u32(*kind);
        header.u64(offset);
        header.u64(bytes.len() as u64);
        header.u32(crc32(bytes));
        offset += bytes.len() as u64;
    }
    let header = header.into_bytes();
    let mut file = ByteWriter::new();
    file.bytes(&SEGMENT_MAGIC);
    file.u32(1); // version 1
    file.u32(header.len() as u32);
    file.u32(crc32(&header));
    file.bytes(&header);
    for (_, bytes) in &sections {
        file.bytes(bytes);
    }
    io::write_file_atomic(
        path,
        &file.into_bytes(),
        points::SEGMENT_WRITE,
        points::SEGMENT_SYNC,
        points::SEGMENT_RENAME,
        &None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lovo-seg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(id: u64) -> PatchRecord {
        PatchRecord {
            patch_id: id,
            video_id: (id >> 4) as u32,
            frame_index: (id & 0xF) as u32,
            patch_index: 0,
            bbox: (1.0, 2.0, 3.0, 4.0),
            timestamp: id as f64 * 0.125,
            class_code: if id % 2 == 0 { Some(3) } else { None },
        }
    }

    fn sample_rows(n: u64, dim: usize) -> Vec<(u64, Vec<f32>)> {
        (0..n)
            .map(|i| {
                (
                    i + 100,
                    (0..dim).map(|d| i as f32 + d as f32 * 0.25 - 0.5).collect(),
                )
            })
            .collect()
    }

    fn sample_data<'a>(
        rows: &'a [(u64, Vec<f32>)],
        meta_rows: &'a [PatchRecord],
        blob: &'a [u8],
    ) -> SegmentFileData<'a> {
        SegmentFileData {
            id: 1,
            dim: rows.first().map_or(4, |(_, v)| v.len()),
            zone: rows.first().map(|_| ZoneMap {
                min_id: 100,
                max_id: 100 + rows.len() as u64 - 1,
                rows: rows.len(),
            }),
            rows: rows.iter().map(|(id, v)| (*id, v.as_slice())).collect(),
            meta: meta_rows.iter().collect(),
            aux: vec![(42, blob)],
        }
    }

    /// Absolute `(kind, offset, len)` triples parsed back out of a written
    /// file's header.
    fn section_table(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let header = &bytes[16..16 + header_len];
        let count = u32::from_le_bytes(header[36..40].try_into().unwrap()) as usize;
        (0..count)
            .map(|i| {
                let at = 40 + i * 24;
                (
                    u32::from_le_bytes(header[at..at + 4].try_into().unwrap()),
                    u64::from_le_bytes(header[at + 4..at + 12].try_into().unwrap()) as usize,
                    u64::from_le_bytes(header[at + 12..at + 20].try_into().unwrap()) as usize,
                )
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("seg-000001.lseg");
        let rows = sample_rows(10, 4);
        let meta_rows: Vec<PatchRecord> = rows.iter().map(|(id, _)| meta(*id)).collect();
        let blob = vec![9u8, 8, 7];
        let data = sample_data(&rows, &meta_rows, &blob);
        write_segment_file(&path, &data, points::SEGMENT_WRITE, &None).unwrap();
        let loaded = read_segment_file(&path).unwrap();
        assert_eq!(loaded.id, 1);
        assert_eq!(loaded.dim, 4);
        assert_eq!(loaded.row_count(), 10);
        let round: Vec<(u64, Vec<f32>)> = loaded
            .iter_rows()
            .map(|(id, row)| (id, row.to_vec()))
            .collect();
        assert_eq!(round, rows);
        assert_eq!(loaded.meta, meta_rows);
        assert_eq!(loaded.aux, vec![(42u64, blob)]);
        assert_eq!(
            loaded.zone,
            Some(ZoneMap {
                min_id: 100,
                max_id: 109,
                rows: 10
            })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_sections_start_at_64_byte_offsets() {
        let rows = sample_rows(7, 5); // deliberately odd sizes
        let meta_rows: Vec<PatchRecord> = rows.iter().map(|(id, _)| meta(*id)).collect();
        let bytes = encode_segment_file(&sample_data(&rows, &meta_rows, &[1, 2, 3]));
        let table = section_table(&bytes);
        assert_eq!(table.len(), 4);
        for (kind, offset, len) in &table {
            assert_eq!(
                offset % SECTION_ALIGN,
                0,
                "section {kind} starts at unaligned offset {offset}"
            );
            assert!(offset + len <= bytes.len());
        }
        // The vectors payload is raw row-major f32: rows × dim × 4 bytes.
        let vectors = table.iter().find(|(k, ..)| *k == SECTION_VECTORS).unwrap();
        assert_eq!(vectors.2, 7 * 5 * 4);
        let ids = table.iter().find(|(k, ..)| *k == SECTION_IDS).unwrap();
        assert_eq!(ids.2, 7 * 8);
    }

    /// The reader's two row decoders, v1's interleaved records and v2's
    /// split IDS and VECTORS sections, load the same segment.
    #[test]
    fn v1_files_load_through_both_read_paths() {
        let dir = scratch_dir("v1compat");
        let v1 = dir.join("seg-v1.lseg");
        let v2 = dir.join("seg-v2.lseg");
        let rows = sample_rows(12, 3);
        let meta_rows: Vec<PatchRecord> = rows.iter().map(|(id, _)| meta(*id)).collect();
        let blob = vec![5u8, 6];
        let data = sample_data(&rows, &meta_rows, &blob);
        write_segment_file_v1(&v1, &data).unwrap();
        write_segment_file(&v2, &data, points::SEGMENT_WRITE, &None).unwrap();

        let from_v1 = read_segment_file(&v1).unwrap();
        let from_v2 = read_segment_file(&v2).unwrap();
        assert_eq!(from_v1.ids, from_v2.ids);
        assert_eq!(from_v1.rows, from_v2.rows);
        assert_eq!(from_v1.meta, from_v2.meta);
        assert_eq!(from_v1.aux, from_v2.aux);
        assert_eq!(from_v1.zone, from_v2.zone);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_anywhere_are_detected() {
        let dir = scratch_dir("flips");
        let path = dir.join("seg.lseg");
        let rows = sample_rows(5, 2);
        let meta_rows: Vec<PatchRecord> = rows.iter().map(|(id, _)| meta(*id)).collect();
        let data = sample_data(&rows, &meta_rows, &[3u8]);
        write_segment_file(&path, &data, points::SEGMENT_WRITE, &None).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit in the header and in the middle of every section
        // (the inter-section padding is deliberately outside all CRCs, so
        // positions are derived from the section table, not hardcoded).
        let mut positions = vec![5usize, 20];
        for (_, offset, len) in section_table(&clean) {
            if len > 0 {
                positions.push(offset + len / 2);
            }
        }
        for pos in positions {
            let mut corrupted = clean.clone();
            corrupted[pos] ^= 0x10;
            std::fs::write(&path, &corrupted).unwrap();
            assert!(
                read_segment_file(&path).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
        // Truncation is detected too.
        std::fs::write(&path, &clean[..clean.len() - 10]).unwrap();
        assert!(read_segment_file(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_version_is_refused_not_misread() {
        let dir = scratch_dir("version");
        let path = dir.join("seg.lseg");
        let data = SegmentFileData {
            id: 0,
            dim: 1,
            zone: None,
            rows: vec![],
            meta: vec![],
            aux: vec![],
        };
        write_segment_file(&path, &data, points::SEGMENT_WRITE, &None).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // version field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment_file(&path),
            Err(StorageError::UnsupportedVersion { found: 99, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
