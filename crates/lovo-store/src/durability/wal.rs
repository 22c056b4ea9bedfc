//! Write-ahead log for the growing append buffer.
//!
//! One WAL file protects every collection's unsealed rows. Each
//! [`WalRecord`] is one ingest batch (the engine batches per key frame) and
//! is the unit of atomicity: a batch is acknowledged only after its record
//! is fully written and fsynced. Replay
//! on open applies complete records in order, and the first torn or
//! corrupt record truncates the log there: everything before it was
//! acknowledged (or at least fully committed), everything at and after it
//! never was.
//!
//! ## File layout
//!
//! ```text
//! header:  magic "LWAL" | version u32 | wal_id u64 | header_crc u32
//! record:  payload_len u32 | payload_crc u32 | payload bytes
//! payload: collection string
//!          | patch_count u32 | per patch: PatchRecord | vector f32-slice
//!          | aux_count u32   | per aux:   frame_key u64 | blob
//! ```
//!
//! All integers little-endian; `payload_crc` is CRC32 over the payload
//! bytes, so any bit flip — not just truncation — invalidates the record.

use super::codec::{decode_patch_record, encode_patch_record, ByteReader, ByteWriter};
use super::crc::crc32;
use super::fault::points;
use super::io::{self, Faults};
use super::StorageError;
use crate::metadata::PatchRecord;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

pub(crate) const WAL_MAGIC: [u8; 4] = *b"LWAL";
pub(crate) const WAL_VERSION: u32 = 1;
const HEADER_LEN: u64 = 4 + 4 + 8 + 4;
/// Upper bound on a single record's payload; a length prefix beyond this is
/// treated as corruption rather than attempted as an allocation.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// One logged ingest batch: the collection it targets, its rows (vector +
/// metadata, exactly as passed to `insert_patches`), and any auxiliary
/// blobs riding along (the engine attaches serialized key frames here so
/// they survive a crash alongside the rows they describe).
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Target collection name.
    pub collection: String,
    /// The batch rows: `(vector, metadata record)`, in insertion order.
    /// Vectors are logged pre-normalization; replay routes them through the
    /// same insert path as the original write, so the stored rows come out
    /// bit-identical.
    pub patches: Vec<(Vec<f32>, PatchRecord)>,
    /// Auxiliary blobs keyed by frame key (`video << 32 | frame`).
    pub aux: Vec<(u64, Vec<u8>)>,
}

/// Encodes one record payload from borrowed parts: the one encoder behind
/// both [`WalRecord`] and the insert path, which logs its batch as it holds
/// it instead of copying every row into an owned record first.
pub(crate) fn encode_payload<'a>(
    collection: &str,
    patches: impl ExactSizeIterator<Item = (&'a [f32], &'a PatchRecord)>,
    aux: &[(u64, Vec<u8>)],
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.string(collection);
    w.u32(patches.len() as u32);
    for (vector, record) in patches {
        encode_patch_record(&mut w, record);
        w.f32_slice(vector);
    }
    w.u32(aux.len() as u32);
    for (frame_key, blob) in aux {
        w.u64(*frame_key);
        w.blob(blob);
    }
    w.into_bytes()
}

impl WalRecord {
    #[cfg(test)]
    fn encode(&self) -> Vec<u8> {
        encode_payload(
            &self.collection,
            self.patches
                .iter()
                .map(|(vector, record)| (&vector[..], record)),
            &self.aux,
        )
    }

    fn decode(payload: &[u8]) -> Result<Self, StorageError> {
        let corrupt = |what: &str| StorageError::Corrupt {
            file: "wal record".to_string(),
            detail: what.to_string(),
        };
        let mut r = ByteReader::new(payload);
        let collection = r
            .string("wal collection")
            .map_err(|e| corrupt(&e.to_string()))?;
        let patch_count = r
            .u32("wal patch count")
            .map_err(|e| corrupt(&e.to_string()))?;
        let mut patches = Vec::with_capacity(patch_count.min(1 << 20) as usize);
        for _ in 0..patch_count {
            let record = decode_patch_record(&mut r).map_err(|e| corrupt(&e.to_string()))?;
            let vector = r
                .f32_slice("wal vector")
                .map_err(|e| corrupt(&e.to_string()))?;
            patches.push((vector, record));
        }
        let aux_count = r
            .u32("wal aux count")
            .map_err(|e| corrupt(&e.to_string()))?;
        let mut aux = Vec::with_capacity(aux_count.min(1 << 16) as usize);
        for _ in 0..aux_count {
            let frame_key = r.u64("wal aux key").map_err(|e| corrupt(&e.to_string()))?;
            let blob = r
                .blob("wal aux blob")
                .map_err(|e| corrupt(&e.to_string()))?;
            aux.push((frame_key, blob));
        }
        if !r.is_exhausted() {
            return Err(corrupt("trailing bytes after wal record payload"));
        }
        Ok(Self {
            collection,
            patches,
            aux,
        })
    }
}

/// What replay found in a WAL file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalReplay {
    /// Complete, checksum-valid records applied.
    pub records: usize,
    /// Bytes cut off the tail (0 when the log ended cleanly). A non-zero
    /// value means the process died mid-append: the torn record was never
    /// acknowledged, so dropping it loses nothing that was promised.
    pub truncated_bytes: u64,
}

/// An open write-ahead log positioned for appending. (The log's id lives in
/// its file name and header; the manifest's `active_wal` selects it.)
pub(crate) struct Wal {
    path: PathBuf,
    file: File,
    /// Committed length: header plus every complete record.
    len: u64,
    records: u64,
}

impl Wal {
    /// File name for WAL `id` under the store root.
    pub(crate) fn file_name(id: u64) -> String {
        format!("wal-{id:06}.log")
    }

    /// Creates a fresh WAL: writes and fsyncs the header.
    pub(crate) fn create(dir: &Path, id: u64, faults: &Faults) -> Result<Self, StorageError> {
        let path = dir.join(Self::file_name(id));
        let mut header = ByteWriter::new();
        header.bytes(&WAL_MAGIC);
        header.u32(WAL_VERSION);
        header.u64(id);
        let body = header.into_bytes();
        let crc = crc32(&body);
        let mut full = body;
        full.extend_from_slice(&crc.to_le_bytes());

        let mut file = File::create(&path)
            .map_err(|e| io::io_err(format!("create of {}", path.display()), e))?;
        io::write_all(&mut file, &full, &path, points::WAL_CREATE, faults)?;
        io::sync_file(&file, &path, points::WAL_CREATE, faults)?;
        io::sync_parent_dir(&path)?;
        Ok(Self {
            path,
            file,
            len: HEADER_LEN,
            records: 0,
        })
    }

    /// Opens an existing WAL, replays its complete records through
    /// `apply`, truncates any torn/corrupt tail, and returns the log
    /// positioned for appending after the last good record.
    pub(crate) fn open_replay(
        dir: &Path,
        id: u64,
        faults: &Faults,
        mut apply: impl FnMut(WalRecord),
    ) -> Result<(Self, WalReplay), StorageError> {
        let path = dir.join(Self::file_name(id));
        let file =
            File::open(&path).map_err(|e| io::io_err(format!("open of {}", path.display()), e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io::io_err(format!("stat of {}", path.display()), e))?
            .len();
        let mut reader = BufReader::new(file);

        // Header: magic, version, id, CRC. A bad header means the whole log
        // is untrustworthy — unlike a torn tail this is hard corruption.
        let mut header = [0u8; HEADER_LEN as usize];
        reader
            .read_exact(&mut header)
            .map_err(|_| StorageError::Corrupt {
                file: path.display().to_string(),
                detail: "wal header truncated".to_string(),
            })?;
        let corrupt = |detail: &str| StorageError::Corrupt {
            file: path.display().to_string(),
            detail: detail.to_string(),
        };
        if header[..4] != WAL_MAGIC {
            return Err(corrupt("bad wal magic"));
        }
        let mut r = ByteReader::new(&header[4..]);
        let version = r.u32("wal version").map_err(|e| corrupt(&e.to_string()))?;
        if version != WAL_VERSION {
            return Err(StorageError::UnsupportedVersion {
                file: path.display().to_string(),
                found: version,
                expected: WAL_VERSION,
            });
        }
        let stored_id = r.u64("wal id").map_err(|e| corrupt(&e.to_string()))?;
        let stored_crc = r
            .u32("wal header crc")
            .map_err(|e| corrupt(&e.to_string()))?;
        if crc32(&header[..16]) != stored_crc || stored_id != id {
            return Err(corrupt("wal header checksum or id mismatch"));
        }

        // Records until EOF or the first torn/corrupt one.
        let mut replay = WalReplay::default();
        let mut good_len = HEADER_LEN;
        loop {
            let mut prefix = [0u8; 8];
            match read_exact_or_eof(&mut reader, &mut prefix) {
                ReadOutcome::Full => {}
                ReadOutcome::Eof => break,
                ReadOutcome::Partial | ReadOutcome::Error => {
                    replay.truncated_bytes = file_len - good_len;
                    break;
                }
            }
            let payload_len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
            let payload_crc = u32::from_le_bytes([prefix[4], prefix[5], prefix[6], prefix[7]]);
            if payload_len > MAX_RECORD_LEN {
                replay.truncated_bytes = file_len - good_len;
                break;
            }
            let mut payload = vec![0u8; payload_len as usize];
            match read_exact_or_eof(&mut reader, &mut payload) {
                ReadOutcome::Full => {}
                _ => {
                    replay.truncated_bytes = file_len - good_len;
                    break;
                }
            }
            if crc32(&payload) != payload_crc {
                replay.truncated_bytes = file_len - good_len;
                break;
            }
            // A record whose framing and checksum pass but whose payload does
            // not decode is hard corruption, not a torn tail: the bytes were
            // fully committed, so something rewrote them.
            let record = WalRecord::decode(&payload)?;
            apply(record);
            replay.records += 1;
            good_len += 8 + u64::from(payload_len);
        }

        // Physically truncate the torn tail so subsequent appends start at
        // the last good byte instead of interleaving with garbage.
        let mut file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| io::io_err(format!("reopen of {}", path.display()), e))?;
        if replay.truncated_bytes > 0 {
            file.set_len(good_len)
                .map_err(|e| io::io_err(format!("truncate of {}", path.display()), e))?;
            io::sync_file(&file, &path, points::WAL_SYNC, faults)?;
        }
        file.seek(SeekFrom::Start(good_len))
            .map_err(|e| io::io_err(format!("seek in {}", path.display()), e))?;
        Ok((
            Self {
                path,
                file,
                len: good_len,
                records: replay.records as u64,
            },
            replay,
        ))
    }

    /// Complete records currently in the log.
    pub(crate) fn record_count(&self) -> u64 {
        self.records
    }

    /// Committed length in bytes (header + complete records).
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Path of the backing file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record, given as its [`encode_payload`] bytes, and
    /// fsyncs it before returning — the acknowledgement point. On any
    /// error the in-memory committed length is NOT advanced, so a torn
    /// append is invisible to later appends in the same process and
    /// truncated by replay in the next one.
    pub(crate) fn append(&mut self, payload: &[u8], faults: &Faults) -> Result<(), StorageError> {
        let mut framed = Vec::with_capacity(payload.len() + 8);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(payload);
        let result = io::write_all(
            &mut self.file,
            &framed,
            &self.path,
            points::WAL_APPEND,
            faults,
        )
        .and_then(|()| io::sync_file(&self.file, &self.path, points::WAL_SYNC, faults));
        if let Err(e) = result {
            // Roll the file back to the last committed record so a retried
            // append in this process does not land after torn bytes (a crash
            // instead leaves the tail for replay to truncate).
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(e);
        }
        self.len += framed.len() as u64;
        self.records += 1;
        Ok(())
    }
}

enum ReadOutcome {
    Full,
    Eof,
    Partial,
    Error,
}

/// Reads exactly `buf.len()` bytes, distinguishing clean EOF (no bytes) from
/// a partial tail (some bytes, then EOF) — the torn-record signal.
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        let Some(slot) = buf.get_mut(filled..) else {
            return ReadOutcome::Error;
        };
        match reader.read(slot) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadOutcome::Error,
        }
    }
    ReadOutcome::Full
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lovo-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(collection: &str, base: u64, rows: usize) -> WalRecord {
        WalRecord {
            collection: collection.to_string(),
            patches: (0..rows)
                .map(|i| {
                    (
                        vec![base as f32 + i as f32, 0.5, -1.25],
                        PatchRecord {
                            patch_id: base + i as u64,
                            video_id: 1,
                            frame_index: i as u32,
                            patch_index: 0,
                            bbox: (0.0, 0.0, 8.0, 8.0),
                            timestamp: i as f64 / 30.0,
                            class_code: Some(2),
                        },
                    )
                })
                .collect(),
            aux: vec![(base, vec![1, 2, 3])],
        }
    }

    #[test]
    fn a_borrowed_batch_encodes_to_the_owned_records_bytes() {
        let owned = record("a", 7, 3);
        // The insert path's shape: vectors borrowed, records held once.
        let batch: Vec<(&[f32], PatchRecord)> = owned
            .patches
            .iter()
            .map(|(vector, record)| (&vector[..], record.clone()))
            .collect();
        let payload = encode_payload(
            "a",
            batch.iter().map(|(vector, record)| (*vector, record)),
            &owned.aux,
        );
        assert_eq!(payload, owned.encode());
        assert_eq!(WalRecord::decode(&payload).unwrap(), owned);
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = scratch_dir("roundtrip");
        let mut wal = Wal::create(&dir, 0, &None).unwrap();
        let records = [record("a", 0, 3), record("b", 100, 1)];
        for r in &records {
            wal.append(&r.encode(), &None).unwrap();
        }
        assert_eq!(wal.record_count(), 2);
        drop(wal);
        let mut seen = Vec::new();
        let (wal, replay) = Wal::open_replay(&dir, 0, &None, |r| seen.push(r)).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(seen, records);
        assert_eq!(wal.record_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = scratch_dir("torn");
        let mut wal = Wal::create(&dir, 3, &None).unwrap();
        wal.append(&record("a", 0, 2).encode(), &None).unwrap();
        let good_len = wal.len();
        wal.append(&record("a", 50, 2).encode(), &None).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        // Tear the second record: cut it 5 bytes short.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);

        let mut seen = Vec::new();
        let (mut wal, replay) = Wal::open_replay(&dir, 3, &None, |r| seen.push(r)).unwrap();
        assert_eq!(replay.records, 1);
        assert_eq!(replay.truncated_bytes, full - 5 - good_len);
        assert_eq!(seen.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        // The log still accepts appends after truncation.
        wal.append(&record("a", 90, 1).encode(), &None).unwrap();
        drop(wal);
        let mut seen = Vec::new();
        let (_, replay) = Wal::open_replay(&dir, 3, &None, |r| seen.push(r)).unwrap();
        assert_eq!(replay.records, 2);
        assert_eq!(seen[1].patches[0].1.patch_id, 90);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_record_truncates_from_there() {
        let dir = scratch_dir("flip");
        let mut wal = Wal::create(&dir, 0, &None).unwrap();
        wal.append(&record("a", 0, 2).encode(), &None).unwrap();
        let first_end = wal.len();
        wal.append(&record("a", 10, 2).encode(), &None).unwrap();
        wal.append(&record("a", 20, 2).encode(), &None).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        // Flip one payload byte of the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[first_end as usize + 12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let mut seen = Vec::new();
        let (_, replay) = Wal::open_replay(&dir, 0, &None, |r| seen.push(r)).unwrap();
        // Record 1 survives; records 2 AND 3 are dropped — replay never
        // resynchronizes past a corrupt record.
        assert_eq!(replay.records, 1);
        assert!(replay.truncated_bytes > 0);
        assert_eq!(seen[0].patches[0].1.patch_id, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_is_a_hard_error() {
        let dir = scratch_dir("header");
        let wal = Wal::create(&dir, 0, &None).unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Wal::open_replay(&dir, 0, &None, |_| {}),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_wal_is_an_io_error() {
        let dir = scratch_dir("missing");
        assert!(matches!(
            Wal::open_replay(&dir, 9, &None, |_| {}),
            Err(StorageError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
