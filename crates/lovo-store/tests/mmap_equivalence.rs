//! mmap ≡ heap equivalence: the mapped read path must be observationally
//! identical to the heap read path — bit-for-bit search results (ids AND
//! scores) across every index family, filtered and unfiltered — and must
//! degrade exactly like it: mmap failures fall back to heap, corrupt
//! segments quarantine identically, compaction releases mappings before it
//! deletes the files they map.
//!
//! The equivalence holds by construction — both paths hand the same
//! recovered rows (decoded onto the heap, or mapped) to
//! `Segment::restore_sealed`, which makes them the segment's buffer and calls
//! `Segment::seal`; seal builds the index from those rows through
//! `create_segment_index_from_rows`, the one constructor every sealed index
//! goes through — and these tests pin that construction against regressions
//! (a stray re-normalization, a lossy copy, an alignment slip).

use lovo_index::{IndexKind, SearchStats, MIN_TRAINED_SEGMENT_ROWS};
#[cfg(any(debug_assertions, feature = "failpoints"))]
use lovo_store::durability::{points, FaultAction, FaultPlan};
use lovo_store::{
    patch_id, BatchQuery, CollectionConfig, DurabilityConfig, JoinedHit, OpenOptions,
    PatchPredicate, PatchRecord, VectorDatabase, MMAP_SUPPORTED,
};
use std::collections::BTreeSet;
use std::path::PathBuf;
#[cfg(any(debug_assertions, feature = "failpoints"))]
use std::sync::Arc;

const DIM: usize = 16;
const COL: &str = "lovo_patches";

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lovo-mmap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn vector(i: u64) -> Vec<f32> {
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

fn batch(video: u32, frame: u32, per_frame: u32) -> Vec<(Vec<f32>, PatchRecord)> {
    (0..per_frame)
        .map(|patch| {
            let rec = record(video, frame, patch);
            (vector(rec.patch_id), rec)
        })
        .collect()
}

/// The flat family's configuration, which the fault, warm-up and
/// compaction tests below use.
fn flat_config() -> CollectionConfig {
    CollectionConfig::new(DIM)
        .with_index_kind(IndexKind::BruteForce)
        .with_segment_capacity(64)
}

/// Every index family the segment writer can seal, with the rows each
/// sealed segment gets: flat, IVF-PQ and HNSW. The IVF-PQ segments hold at
/// least `MIN_TRAINED_SEGMENT_ROWS`, below which a segment seals flat
/// instead and the trained restore path would go untested.
fn families() -> Vec<(&'static str, CollectionConfig, u32)> {
    let trained = MIN_TRAINED_SEGMENT_ROWS as u32 + 44;
    vec![
        ("flat", flat_config(), 40),
        (
            "ivf-pq",
            CollectionConfig::new(DIM)
                .with_index_kind(IndexKind::IvfPq)
                .with_segment_capacity(2 * trained as usize),
            trained,
        ),
        (
            "hnsw",
            CollectionConfig::new(DIM)
                .with_index_kind(IndexKind::Hnsw)
                .with_segment_capacity(64),
            40,
        ),
    ]
}

/// Builds a durable store with three sealed segments of `per_frame` rows
/// each (two videos) plus an unsealed WAL tail, then drops it.
fn build_store_with(root: &PathBuf, config: CollectionConfig, per_frame: u32) {
    let db = VectorDatabase::create_durable(root, DurabilityConfig::new()).unwrap();
    db.create_collection(COL, config).unwrap();
    for (video, frame) in [(1u32, 0u32), (1, 1), (2, 0)] {
        let rows = batch(video, frame, per_frame);
        db.insert_patches(COL, rows.iter().map(|(v, r)| (v.as_slice(), r.clone())))
            .unwrap();
        db.seal_collection(COL).unwrap();
    }
    // A WAL-only tail: growing rows take the heap path in both modes.
    let tail = batch(2, 1, 7);
    db.insert_patches(COL, tail.iter().map(|(v, r)| (v.as_slice(), r.clone())))
        .unwrap();
}

fn build_store(root: &PathBuf, config: CollectionConfig) {
    build_store_with(root, config, 40);
}

/// One unfiltered search: its `k` best joined hits, best first, and its
/// work counters.
fn search(db: &VectorDatabase, query: &[f32], k: usize) -> (Vec<JoinedHit>, SearchStats) {
    let request = BatchQuery {
        query,
        k,
        filter: None,
    };
    db.search_batch_with_stats_opts(COL, &[request], 0)
        .unwrap()
        .pop()
        .unwrap()
}

/// Full search observation: ids plus exact score bit patterns.
fn observe(db: &VectorDatabase, query: &[f32], k: usize) -> Vec<(u64, u32)> {
    search(db, query, k)
        .0
        .into_iter()
        .map(|h| (h.patch_id, h.score.to_bits()))
        .collect()
}

fn observe_filtered(
    db: &VectorDatabase,
    query: &[f32],
    k: usize,
    predicate: &PatchPredicate,
) -> Vec<(u64, u32)> {
    let filter = db.resolve_filter(predicate);
    let request = BatchQuery {
        query,
        k,
        filter: filter.as_ref(),
    };
    db.search_batch_with_stats_opts(COL, &[request], 0)
        .unwrap()
        .pop()
        .unwrap()
        .0
        .into_iter()
        .map(|h| (h.patch_id, h.score.to_bits()))
        .collect()
}

/// The probe set: spread over both videos, plus off-manifold directions.
fn probes() -> Vec<Vec<f32>> {
    let mut probes: Vec<Vec<f32>> = [0u64, 3, 17, 1000, 99_999]
        .iter()
        .map(|&i| vector(i))
        .collect();
    probes.push(vector(patch_id(1, 1, 5)));
    probes.push(vector(patch_id(2, 0, 31)));
    // Deterministic pseudo-random probes (LCG), not drawn from the corpus.
    let mut state = 0x9E37_79B9u64;
    for _ in 0..5 {
        let q: Vec<f32> = (0..DIM)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        probes.push(q);
    }
    probes
}

fn predicates() -> Vec<PatchPredicate> {
    vec![
        PatchPredicate {
            video_ids: Some(BTreeSet::from([1u32])),
            ..PatchPredicate::default()
        },
        PatchPredicate {
            class_codes: Some(BTreeSet::from([0u8, 3])),
            ..PatchPredicate::default()
        },
        PatchPredicate {
            video_ids: Some(BTreeSet::from([2u32])),
            time_range: Some((0.0, 0.02)),
            ..PatchPredicate::default()
        },
    ]
}

/// The property: for every index family, every probe, every k, and every
/// pushed-down predicate, the mmap-opened store answers bit-identically to
/// the heap-opened store — in eager and deferred verification modes.
#[test]
fn mmap_and_heap_reads_are_bit_identical_across_index_families() {
    for (name, config, rows_per_segment) in families() {
        let root = scratch_root(&format!("equiv-{name}"));
        build_store_with(&root, config, rows_per_segment);

        let (heap, heap_report) = VectorDatabase::open_durable_with(
            &root,
            DurabilityConfig::new(),
            OpenOptions::default(),
        )
        .unwrap();
        assert!(heap_report.is_clean(), "{name}: heap open");
        assert_eq!(heap.mapped_bytes(), 0, "{name}: heap open must not map");

        for deferred in [false, true] {
            let options = OpenOptions::default()
                .with_mmap(true)
                .with_verify_payload(!deferred);
            let (mapped, report) =
                VectorDatabase::open_durable_with(&root, DurabilityConfig::new(), options).unwrap();
            assert!(report.is_clean(), "{name}: mmap open (deferred={deferred})");
            if MMAP_SUPPORTED {
                assert!(
                    mapped.mapped_bytes() > 0,
                    "{name}: sealed v2 segments must serve from mappings"
                );
            }
            assert_eq!(
                heap.metadata_rows(),
                mapped.metadata_rows(),
                "{name}: row counts diverge"
            );
            for (p, query) in probes().iter().enumerate() {
                if config.index_kind == IndexKind::IvfPq {
                    // The flat fallback probes no cells: a trained index
                    // must serve both reads.
                    for db in [&heap, &mapped] {
                        let cells = search(db, query, 10).1.cells_probed;
                        assert!(cells > 0, "{name}: probe {p} fell back to flat");
                    }
                }
                for k in [1usize, 10, 50] {
                    assert_eq!(
                        observe(&heap, query, k),
                        observe(&mapped, query, k),
                        "{name}: probe {p} k={k} diverged (deferred={deferred})"
                    );
                }
                for (f, predicate) in predicates().iter().enumerate() {
                    assert_eq!(
                        observe_filtered(&heap, query, 10, predicate),
                        observe_filtered(&mapped, query, 10, predicate),
                        "{name}: probe {p} filter {f} diverged (deferred={deferred})"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Warm-up touches every mapped byte and the residency gauge sees it; both
/// are advisory no-ops on the heap path.
#[test]
fn warmup_faults_mappings_in_and_reports_bytes() {
    let root = scratch_root("warmup");
    build_store(&root, flat_config());
    let (db, _) = VectorDatabase::open_durable_with(
        &root,
        DurabilityConfig::new(),
        OpenOptions::default().with_mmap(true),
    )
    .unwrap();
    if MMAP_SUPPORTED {
        assert_eq!(db.warmup(), db.mapped_bytes());
        assert!(db.resident_bytes() <= db.mapped_bytes().next_multiple_of(4096));
    } else {
        assert_eq!(db.warmup(), 0);
        assert_eq!(db.mapped_bytes(), 0);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// An injected mmap failure (`segment.mmap`) must not fail the open: the
/// loader falls back to the heap read for that file and recovery stays
/// clean, with identical query results.
#[cfg(any(debug_assertions, feature = "failpoints"))]
#[test]
fn mmap_fault_falls_back_to_heap_read() {
    let root = scratch_root("fault-mmap");
    build_store(&root, flat_config());
    let plan = Arc::new(FaultPlan::new());
    // Faults are one-shot: arm one per sealed segment so every map fails.
    for _ in 0..3 {
        plan.inject(points::SEGMENT_MMAP, FaultAction::Fail);
    }
    let (db, report) = VectorDatabase::open_durable_with(
        &root,
        DurabilityConfig::new().with_faults(plan.clone()),
        OpenOptions::default().with_mmap(true),
    )
    .unwrap();
    assert!(report.is_clean(), "fallback must be invisible to recovery");
    assert!(
        plan.triggered().contains(&points::SEGMENT_MMAP.to_string()),
        "the mmap point must actually have fired"
    );
    assert_eq!(
        db.mapped_bytes(),
        0,
        "the faulted file must not stay mapped"
    );
    let (heap, _) =
        VectorDatabase::open_durable_with(&root, DurabilityConfig::new(), OpenOptions::default())
            .unwrap();
    for query in probes() {
        assert_eq!(observe(&heap, &query, 10), observe(&db, &query, 10));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `segment.madvise` failures are advisory: warm-up reports zero bytes and
/// queries are unaffected.
#[cfg(any(debug_assertions, feature = "failpoints"))]
#[test]
fn madvise_fault_is_advisory_only() {
    let root = scratch_root("fault-madvise");
    build_store(&root, flat_config());
    let plan = Arc::new(FaultPlan::new());
    let (db, _) = VectorDatabase::open_durable_with(
        &root,
        DurabilityConfig::new().with_faults(plan.clone()),
        OpenOptions::default().with_mmap(true),
    )
    .unwrap();
    // One one-shot fault per live mapping: every hint in the warm-up pass
    // must be refused for the total to come out zero.
    for _ in 0..3 {
        plan.inject(points::SEGMENT_MADVISE, FaultAction::Fail);
    }
    assert_eq!(db.warmup(), 0, "a refused hint reports zero bytes advised");
    if MMAP_SUPPORTED {
        assert!(
            plan.triggered()
                .contains(&points::SEGMENT_MADVISE.to_string()),
            "the madvise point must actually have fired"
        );
    }
    assert_eq!(search(&db, &vector(3), 5).0.len(), 5);
    let _ = std::fs::remove_dir_all(&root);
}

/// A corrupt segment quarantines identically under mmap and heap opens:
/// same report shape, same survivor set, corrupt file moved aside — and the
/// mapping is dropped before the rename, or the rename would fail the test
/// on platforms that refuse to move busy files (and leak on the rest).
#[test]
fn corrupt_mapped_segment_quarantines_exactly_like_heap() {
    for options in [
        OpenOptions::default(),
        OpenOptions::default().with_mmap(true),
    ] {
        let tag = if options.mmap { "mmap" } else { "heap" };
        let root = scratch_root(&format!("quarantine-{tag}"));
        let healthy = batch(1, 0, 20);
        let doomed = batch(2, 0, 20);
        {
            let db = VectorDatabase::create_durable(&root, DurabilityConfig::new()).unwrap();
            db.create_collection(COL, CollectionConfig::new(DIM).with_segment_capacity(64))
                .unwrap();
            db.insert_patches(COL, healthy.iter().map(|(v, r)| (v.as_slice(), r.clone())))
                .unwrap();
            db.seal_collection(COL).unwrap();
            db.insert_patches(COL, doomed.iter().map(|(v, r)| (v.as_slice(), r.clone())))
                .unwrap();
            db.seal_collection(COL).unwrap();
        }
        let mut files: Vec<_> = std::fs::read_dir(root.join("segments"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let target = files.last().unwrap();
        let mut bytes = std::fs::read(target).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(target, &bytes).unwrap();

        let (db, report) =
            VectorDatabase::open_durable_with(&root, DurabilityConfig::new(), options).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{tag}");
        assert_eq!(report.rows_lost(), 20, "{tag}");
        assert_eq!(report.segments_loaded, 1, "{tag}");
        assert_eq!(
            std::fs::read_dir(root.join("quarantine")).unwrap().count(),
            1,
            "{tag}: the corrupt file must be moved aside"
        );
        assert_eq!(db.metadata_rows(), 20, "{tag}");
        let q = vector(healthy[3].1.patch_id);
        assert_eq!(
            search(&db, &q, 1).0[0].patch_id,
            healthy[3].1.patch_id,
            "{tag}: the healthy segment must still serve"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Compaction under mmap: the merged segment replaces the mapped inputs,
/// their mappings are released (not leaked), and the compacted store still
/// answers like a never-compacted heap twin.
#[test]
fn compaction_releases_input_mappings_and_preserves_results() {
    let root = scratch_root("compact");
    // 12-row segments: below the capacity/2 = 32 compaction threshold, so
    // one pass merges all three.
    build_store_with(&root, flat_config(), 12);
    let (db, _) = VectorDatabase::open_durable_with(
        &root,
        DurabilityConfig::new(),
        OpenOptions::default().with_mmap(true),
    )
    .unwrap();
    let before = db.mapped_bytes();
    let reference: Vec<_> = probes().iter().map(|q| observe(&db, q, 10)).collect();
    db.compact_collection(COL).unwrap();
    assert_eq!(db.collection_stats(COL).unwrap().sealed_segments, 1);
    if MMAP_SUPPORTED {
        assert!(before > 0);
        // The inputs' mappings died with their segments; the merged segment
        // was written (and loaded) through the heap path of this process, so
        // nothing stays mapped until the next open.
        assert_eq!(db.mapped_bytes(), 0, "input mappings must be released");
    }
    let after: Vec<_> = probes().iter().map(|q| observe(&db, q, 10)).collect();
    assert_eq!(reference, after, "compaction changed results");
    drop(db);
    // The compacted store reopens mapped and clean.
    let (db, report) = VectorDatabase::open_durable_with(
        &root,
        DurabilityConfig::new(),
        OpenOptions::default().with_mmap(true),
    )
    .unwrap();
    assert!(report.is_clean());
    if MMAP_SUPPORTED {
        assert!(db.mapped_bytes() > 0);
    }
    let after: Vec<_> = probes().iter().map(|q| observe(&db, q, 10)).collect();
    assert_eq!(reference, after, "reopen after compaction changed results");
    let _ = std::fs::remove_dir_all(&root);
}

/// MAP_POPULATE is a pure pre-fault hint: results identical, residency at
/// or above the lazy mapping's.
#[test]
fn populate_changes_residency_not_results() {
    let root = scratch_root("populate");
    build_store(&root, flat_config());
    let (lazy, _) = VectorDatabase::open_durable_with(
        &root,
        DurabilityConfig::new(),
        OpenOptions::default().with_mmap(true),
    )
    .unwrap();
    let (eager, _) = VectorDatabase::open_durable_with(
        &root,
        DurabilityConfig::new(),
        OpenOptions::default().with_mmap(true).with_populate(true),
    )
    .unwrap();
    if MMAP_SUPPORTED {
        assert_eq!(eager.mapped_bytes(), lazy.mapped_bytes());
        assert_eq!(eager.resident_bytes(), eager.mapped_bytes());
    }
    for query in probes() {
        assert_eq!(observe(&lazy, &query, 10), observe(&eager, &query, 10));
    }
    let _ = std::fs::remove_dir_all(&root);
}
