//! Crash-recovery matrix: deterministic fault injection at every durable I/O
//! point, asserting that reopening the store always recovers exactly the
//! acknowledged writes — and that the recovered database answers queries
//! identically to a twin that never crashed.
//!
//! The crash model: a [`FaultAction::CrashAfter`] fault makes the faulted
//! operation return [`StorageError::InjectedCrash`]; the test then DROPS the
//! database without any shutdown path and reopens from disk — exactly what a
//! `kill -9` leaves behind (plus whatever bytes the faulted write landed).

#[cfg(any(debug_assertions, feature = "failpoints"))]
use lovo_store::durability::{points, FaultAction, FaultPlan};
use lovo_store::{
    patch_id, BatchQuery, CollectionConfig, DurabilityConfig, PatchRecord, StorageError,
    StoreError, VectorDatabase,
};
use std::path::PathBuf;
#[cfg(any(debug_assertions, feature = "failpoints"))]
use std::sync::Arc;

const DIM: usize = 8;
const COL: &str = "lovo_patches";

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lovo-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vector(i: u64) -> Vec<f32> {
    // Distinct, deterministic, non-degenerate directions. Reduce the id
    // first: packed patch ids exceed f32's 24-bit mantissa, and casting them
    // directly would collapse a whole batch onto one point.
    let x = (i % 65_537) as f32;
    (0..DIM)
        .map(|d| ((x + 1.0) * 0.37 + d as f32 * 1.31).sin())
        .collect()
}

fn record(video: u32, frame: u32, patch: u32) -> PatchRecord {
    PatchRecord {
        patch_id: patch_id(video, frame, patch),
        video_id: video,
        frame_index: frame,
        patch_index: patch,
        bbox: (patch as f32, frame as f32, 16.0, 16.0),
        timestamp: frame as f64 / 30.0,
        class_code: Some((patch % 5) as u8),
    }
}

/// One ingest batch: `per_frame` patches of one key frame.
fn batch(video: u32, frame: u32, per_frame: u32) -> Vec<(Vec<f32>, PatchRecord)> {
    (0..per_frame)
        .map(|patch| {
            let rec = record(video, frame, patch);
            (vector(rec.patch_id), rec)
        })
        .collect()
}

fn insert_batch(
    db: &VectorDatabase,
    rows: &[(Vec<f32>, PatchRecord)],
) -> lovo_store::Result<usize> {
    db.insert_patches(COL, rows.iter().map(|(v, r)| (v.as_slice(), r.clone())))
}

fn config() -> CollectionConfig {
    CollectionConfig::new(DIM).with_segment_capacity(64)
}

/// An in-memory database fed the same acknowledged batches — the
/// never-crashed twin the recovered store must be indistinguishable from.
fn twin(batches: &[Vec<(Vec<f32>, PatchRecord)>], seal: bool) -> VectorDatabase {
    let db = VectorDatabase::new();
    db.create_collection(COL, config()).unwrap();
    for rows in batches {
        insert_batch(&db, rows).unwrap();
    }
    if seal {
        db.seal_collection(COL).unwrap();
    }
    db
}

fn top_ids(db: &VectorDatabase, query: &[f32], k: usize) -> Vec<u64> {
    let request = BatchQuery {
        query,
        k,
        filter: None,
    };
    db.search_batch_with_stats_opts(COL, &[request], 0)
        .unwrap()
        .pop()
        .unwrap_or_default()
        .0
        .into_iter()
        .map(|h| h.patch_id)
        .collect()
}

/// Asserts the recovered database returns the same hits as the twin for a
/// spread of probes.
fn assert_matches_twin(recovered: &VectorDatabase, twin: &VectorDatabase) {
    assert_eq!(recovered.metadata_rows(), twin.metadata_rows());
    for probe in [0u64, 7, 40, 1000, 123_456] {
        let q = vector(probe);
        assert_eq!(
            top_ids(recovered, &q, 10),
            top_ids(twin, &q, 10),
            "probe {probe} diverged from the never-crashed twin"
        );
    }
}

#[cfg(any(debug_assertions, feature = "failpoints"))]
fn is_injected_crash(err: &StoreError) -> bool {
    matches!(err, StoreError::Storage(StorageError::InjectedCrash { .. }))
}

#[test]
fn clean_reopen_restores_rows_and_results() {
    let root = scratch_root("clean");
    let batches: Vec<_> = (0..6u32).map(|f| batch(1, f, 20)).collect();
    {
        let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
        db.create_collection(COL, config()).unwrap();
        for rows in &batches[..4] {
            insert_batch(&db, rows).unwrap();
        }
        db.seal_collection(COL).unwrap();
        // Two more batches stay in the growing buffer, covered only by the WAL.
        for rows in &batches[4..] {
            insert_batch(&db, rows).unwrap();
        }
        assert!(db.is_durable());
        assert!(db.wal_records() > 0);
    } // dropped without any shutdown: the kill -9 model
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert!(report.is_clean(), "clean shutdown must recover losslessly");
    assert!(report.segments_loaded >= 1);
    assert_eq!(report.wal_rows_replayed, 40, "two 20-row unsealed batches");
    let reference = twin(&batches, false);
    assert_matches_twin(&db, &reference);
    // The reopened store keeps working: more writes, another reopen.
    insert_batch(&db, &batch(2, 0, 20)).unwrap();
    drop(db);
    let (db, _) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert_eq!(db.metadata_rows(), 140);
    let _ = std::fs::remove_dir_all(&root);
}

#[cfg(any(debug_assertions, feature = "failpoints"))]
#[test]
fn faulted_wal_append_loses_only_the_unacknowledged_batch() {
    for action in [FaultAction::Fail, FaultAction::ShortWrite(13)] {
        let root = scratch_root(&format!("append-{action:?}"));
        let plan = Arc::new(FaultPlan::new());
        let db = VectorDatabase::create_durable(
            &root,
            DurabilityConfig::new().with_faults(plan.clone()),
        )
        .unwrap();
        db.create_collection(COL, config()).unwrap();
        let acked: Vec<_> = (0..2u32).map(|f| batch(1, f, 10)).collect();
        for rows in &acked {
            insert_batch(&db, rows).unwrap();
        }
        plan.inject(points::WAL_APPEND, action);
        let err = insert_batch(&db, &batch(1, 9, 10)).unwrap_err();
        assert!(matches!(err, StoreError::Storage(_)), "{err}");
        assert_eq!(plan.triggered(), vec![points::WAL_APPEND.to_string()]);
        // The failed batch was not applied in memory either: memory and disk
        // agree that it never happened.
        assert_eq!(db.metadata_rows(), 20);
        // The log rolled back cleanly — the next append lands fine.
        insert_batch(&db, &batch(1, 3, 10)).unwrap();
        drop(db);
        let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
        assert!(report.is_clean());
        let reference = twin(
            &[acked[0].clone(), acked[1].clone(), batch(1, 3, 10)],
            false,
        );
        assert_matches_twin(&db, &reference);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[cfg(any(debug_assertions, feature = "failpoints"))]
#[test]
fn crash_between_wal_append_and_fsync_drops_the_unacked_batch() {
    let root = scratch_root("wal-sync");
    let plan = Arc::new(FaultPlan::new());
    let db =
        VectorDatabase::create_durable(&root, DurabilityConfig::new().with_faults(plan.clone()))
            .unwrap();
    db.create_collection(COL, config()).unwrap();
    let acked = batch(1, 0, 12);
    insert_batch(&db, &acked).unwrap();
    plan.inject(points::WAL_SYNC, FaultAction::CrashAfter(0));
    let err = insert_batch(&db, &batch(1, 1, 12)).unwrap_err();
    assert!(is_injected_crash(&err), "{err}");
    drop(db); // killed between append and fsync
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    // The batch was never acknowledged; recovery holding exactly the acked
    // writes means holding only batch 0.
    assert_eq!(db.metadata_rows(), 12);
    assert!(report.is_clean());
    assert_matches_twin(&db, &twin(std::slice::from_ref(&acked), false));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_wal_tail_is_truncated_to_the_last_acked_batch() {
    let root = scratch_root("torn");
    let batches: Vec<_> = (0..3u32).map(|f| batch(1, f, 15)).collect();
    {
        let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
        db.create_collection(COL, config()).unwrap();
        for rows in &batches {
            insert_batch(&db, rows).unwrap();
        }
    }
    // Tear the last record: the crash landed only part of the final append.
    let wal = root.join("wal-000000.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(len - 7).unwrap();
    drop(file);
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert!(report.wal_bytes_truncated > 0);
    assert!(!report.is_clean());
    assert_eq!(db.metadata_rows(), 30, "first two batches survive");
    assert_matches_twin(&db, &twin(&batches[..2], false));
    // Post-truncation the log accepts appends and the store stays durable.
    insert_batch(&db, &batches[2]).unwrap();
    drop(db);
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert!(report.is_clean());
    assert_matches_twin(&db, &twin(&batches, false));
    let _ = std::fs::remove_dir_all(&root);
}

#[cfg(any(debug_assertions, feature = "failpoints"))]
#[test]
fn crash_matrix_mid_seal_recovers_every_acked_row() {
    // Kill the seal at each I/O stage: segment write (torn), segment fsync,
    // rename into place, manifest write/fsync/rename. Whatever the stage, the
    // acked rows must all come back (from the WAL, the old manifest, or the
    // new one) and queries must match the twin.
    let cases: &[(&'static str, FaultAction)] = &[
        (points::SEGMENT_WRITE, FaultAction::CrashAfter(64)),
        (points::SEGMENT_SYNC, FaultAction::CrashAfter(0)),
        (points::SEGMENT_RENAME, FaultAction::CrashAfter(0)),
        (points::MANIFEST_WRITE, FaultAction::CrashAfter(10)),
        (points::MANIFEST_SYNC, FaultAction::CrashAfter(0)),
        (points::MANIFEST_RENAME, FaultAction::CrashAfter(0)),
    ];
    let batches: Vec<_> = (0..4u32).map(|f| batch(1, f, 12)).collect();
    for (point, action) in cases {
        let root = scratch_root(&format!("seal-{}", point.replace('.', "-")));
        let plan = Arc::new(FaultPlan::new());
        let db = VectorDatabase::create_durable(
            &root,
            DurabilityConfig::new().with_faults(plan.clone()),
        )
        .unwrap();
        db.create_collection(COL, config()).unwrap();
        for rows in &batches {
            insert_batch(&db, rows).unwrap();
        }
        plan.inject(point, *action);
        let err = db.seal_collection(COL).unwrap_err();
        assert!(is_injected_crash(&err), "{point}: {err}");
        drop(db);
        let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
        assert!(
            report.quarantined.is_empty(),
            "{point}: a half-written segment must never be visible, let alone quarantined"
        );
        assert_matches_twin(&db, &twin(&batches, false));
        // And the recovered store can complete the interrupted seal.
        db.seal_collection(COL).unwrap();
        drop(db);
        let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
        assert!(report.is_clean(), "{point}");
        assert_matches_twin(&db, &twin(&batches, true));
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[cfg(any(debug_assertions, feature = "failpoints"))]
#[test]
fn crash_matrix_mid_compaction_yields_old_or_new_set_never_a_mix() {
    let cases: &[(&'static str, FaultAction)] = &[
        (points::COMPACT_SEGMENT_WRITE, FaultAction::CrashAfter(100)),
        (points::SEGMENT_SYNC, FaultAction::CrashAfter(0)),
        (points::SEGMENT_RENAME, FaultAction::CrashAfter(0)),
        (points::MANIFEST_WRITE, FaultAction::CrashAfter(0)),
        (points::MANIFEST_RENAME, FaultAction::CrashAfter(0)),
    ];
    for (point, action) in cases {
        let root = scratch_root(&format!("compact-{}", point.replace('.', "-")));
        let plan = Arc::new(FaultPlan::new());
        let db = VectorDatabase::create_durable(
            &root,
            DurabilityConfig::new().with_faults(plan.clone()),
        )
        .unwrap();
        db.create_collection(COL, config()).unwrap();
        // Three undersized sealed segments (12 rows each, capacity 64).
        let batches: Vec<_> = (0..3u32).map(|f| batch(1, f, 12)).collect();
        for rows in &batches {
            insert_batch(&db, rows).unwrap();
            db.seal_collection(COL).unwrap();
        }
        assert_eq!(db.collection_stats(COL).unwrap().sealed_segments, 3);
        plan.inject(point, *action);
        let err = db.compact_collection(COL).unwrap_err();
        assert!(is_injected_crash(&err), "{point}: {err}");
        drop(db);
        let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
        // Old set or new set — never a mix, never a loss, never a duplicate.
        let sealed = db.collection_stats(COL).unwrap().sealed_segments;
        assert!(
            sealed == 3 || sealed == 1,
            "{point}: recovered {sealed} segments — a mixed set"
        );
        assert_eq!(
            report.rows_loaded, 36,
            "{point}: every acked row, exactly once"
        );
        assert!(report.quarantined.is_empty(), "{point}");
        let reference = twin(&batches, true);
        assert_matches_twin(&db, &reference);
        // Compaction can complete after recovery.
        db.compact_collection(COL).unwrap();
        assert_eq!(db.collection_stats(COL).unwrap().sealed_segments, 1);
        drop(db);
        let (db, _) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
        assert_matches_twin(&db, &reference);
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn corrupt_sealed_segment_is_quarantined_and_reported_not_fatal() {
    let root = scratch_root("quarantine");
    let healthy = batch(1, 0, 20);
    let doomed = batch(2, 0, 20);
    {
        let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
        db.create_collection(COL, config()).unwrap();
        insert_batch(&db, &healthy).unwrap();
        db.seal_collection(COL).unwrap();
        insert_batch(&db, &doomed).unwrap();
        db.seal_collection(COL).unwrap();
    }
    // Flip one byte in the middle of the second segment file.
    let seg_dir = root.join("segments");
    let mut files: Vec<_> = std::fs::read_dir(&seg_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 2);
    let target = files.last().unwrap();
    let mut bytes = std::fs::read(target).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(target, &bytes).unwrap();

    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.rows_lost(), 20);
    assert!(!report.is_clean());
    assert_eq!(report.segments_loaded, 1);
    // The corrupt file was moved aside, not deleted: operators can inspect it.
    assert_eq!(
        std::fs::read_dir(root.join("quarantine")).unwrap().count(),
        1
    );
    // The engine degrades: the healthy segment still serves.
    assert_eq!(db.metadata_rows(), 20);
    let q = vector(healthy[3].1.patch_id);
    assert_eq!(top_ids(&db, &q, 1)[0], healthy[3].1.patch_id);
    // A second reopen is clean — the quarantine was committed to the manifest.
    drop(db);
    let (_, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.segments_loaded, 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wal_rotates_once_every_row_is_sealed() {
    let root = scratch_root("rotate");
    let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
    db.create_collection(COL, config()).unwrap();
    insert_batch(&db, &batch(1, 0, 30)).unwrap();
    assert_eq!(db.wal_records(), 1);
    db.seal_collection(COL).unwrap();
    // Every row now lives in a sealed segment file: the log was rotated.
    assert_eq!(db.wal_records(), 0);
    let wal_files: Vec<_> = std::fs::read_dir(&root)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.starts_with("wal-").then_some(name)
        })
        .collect();
    assert_eq!(wal_files, vec!["wal-000001.log".to_string()]);
    drop(db);
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.wal_records_replayed, 0, "nothing left to replay");
    assert_eq!(db.metadata_rows(), 30);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn aux_blobs_survive_seal_compaction_and_recovery() {
    let root = scratch_root("aux");
    let frame_key = |video: u32, frame: u32| (u64::from(video) << 32) | u64::from(frame);
    {
        let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
        db.create_collection(COL, config()).unwrap();
        for frame in 0..3u32 {
            let rows = batch(1, frame, 10);
            db.insert_patches_with_aux(
                COL,
                rows.iter().map(|(v, r)| (v.as_slice(), r.clone())),
                vec![(frame_key(1, frame), vec![frame as u8; 9])],
            )
            .unwrap();
            db.seal_collection(COL).unwrap();
        }
    }
    // Recovered via segment AUX sections (the WAL already rotated away).
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    for frame in 0..3u32 {
        assert_eq!(
            report.aux_blobs.get(&frame_key(1, frame)),
            Some(&vec![frame as u8; 9]),
            "frame {frame} blob lost at seal"
        );
    }
    // Compaction must carry the blobs into the merged segment's AUX section.
    db.compact_collection(COL).unwrap();
    assert_eq!(db.collection_stats(COL).unwrap().sealed_segments, 1);
    drop(db);
    let (_, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    for frame in 0..3u32 {
        assert_eq!(
            report.aux_blobs.get(&frame_key(1, frame)),
            Some(&vec![frame as u8; 9]),
            "frame {frame} blob lost at compaction"
        );
    }
    // Unsealed path: a blob logged with an unsealed batch survives via WAL.
    let (db, _) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    let rows = batch(1, 7, 5);
    db.insert_patches_with_aux(
        COL,
        rows.iter().map(|(v, r)| (v.as_slice(), r.clone())),
        vec![(frame_key(1, 7), vec![0xAB; 4])],
    )
    .unwrap();
    drop(db);
    let (_, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert_eq!(report.aux_blobs.get(&frame_key(1, 7)), Some(&vec![0xAB; 4]));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn replacing_a_collection_fences_its_stale_wal_records() {
    let root = scratch_root("replace");
    {
        let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
        db.create_collection(COL, config()).unwrap();
        insert_batch(&db, &batch(1, 0, 10)).unwrap(); // old incarnation, unsealed
        db.create_collection(COL, config()).unwrap(); // replace
        insert_batch(&db, &batch(2, 0, 4)).unwrap();
    }
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    // Only the new incarnation's rows may resurrect.
    assert_eq!(db.metadata_rows(), 4);
    assert_eq!(report.wal_rows_replayed, 4);
    assert!(db.video_ids().contains(&2));
    assert!(!db.video_ids().contains(&1));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn orphaned_files_are_swept_at_open() {
    let root = scratch_root("orphans");
    {
        let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
        db.create_collection(COL, config()).unwrap();
        insert_batch(&db, &batch(1, 0, 10)).unwrap();
        db.seal_collection(COL).unwrap();
    }
    // Plant the debris a crash can leave: a temp file from an interrupted
    // atomic write and a segment file no manifest references.
    std::fs::write(root.join("MANIFEST.tmp"), b"torn").unwrap();
    std::fs::write(root.join("segments").join("seg-ghost-000099.lseg"), b"x").unwrap();
    let (db, report) = VectorDatabase::open_durable(&root, DurabilityConfig::new()).unwrap();
    assert_eq!(report.orphan_files_removed, 2);
    assert!(!root.join("MANIFEST.tmp").exists());
    assert!(!root.join("segments").join("seg-ghost-000099.lseg").exists());
    assert_eq!(db.metadata_rows(), 10);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn create_refuses_an_occupied_root_and_open_refuses_an_empty_one() {
    let root = scratch_root("refuse");
    let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
    drop(db);
    match VectorDatabase::create_durable(&root, DurabilityConfig::new()) {
        Err(StoreError::Storage(StorageError::AlreadyExists { .. })) => {}
        Err(other) => panic!("expected AlreadyExists, got: {other}"),
        Ok(_) => panic!("create over an occupied root must fail"),
    }
    let empty = scratch_root("refuse-empty");
    assert!(VectorDatabase::open_durable(&empty, DurabilityConfig::new()).is_err());
    let _ = std::fs::remove_dir_all(&root);
}
