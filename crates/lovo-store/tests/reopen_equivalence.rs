//! Reopen ≡ live: a durable store closed and reopened answers every search
//! exactly as it did before it was closed — the same ids and the same score
//! bits, for every index family, filtered and unfiltered — and compaction
//! changes no answer, before or after a reopen.
//!
//! The equivalence holds by construction: a reopen hands each segment
//! file's rows, in insertion order, to `Segment::restore_sealed`, which
//! makes them the segment's buffer and calls `Segment::seal`, the same
//! seal a live segment went through; seal builds the index through
//! `create_segment_index_from_rows`, the one constructor every sealed index
//! goes through, and the k-means training it runs is fixed-seeded. These
//! tests pin that construction against regressions (a stray
//! re-normalization, a lossy decode, a reordered restore).

use lovo_index::{IndexKind, SearchStats, MIN_TRAINED_SEGMENT_ROWS};
use lovo_store::{
    patch_id, BatchQuery, CollectionConfig, DurabilityConfig, JoinedHit, PatchPredicate,
    PatchRecord, VectorDatabase,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DIM: usize = 16;
const COL: &str = "lovo_patches";

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lovo-reopen-{tag}-{}", std::process::id()));
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

/// The flat family's configuration, which the compaction test uses.
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
/// each (two videos) plus an unsealed WAL tail, and returns it still open.
fn build_store(root: &Path, config: CollectionConfig, per_frame: u32) -> VectorDatabase {
    let db = VectorDatabase::create_durable(root, DurabilityConfig::new()).unwrap();
    db.create_collection(COL, config).unwrap();
    for (video, frame) in [(1u32, 0u32), (1, 1), (2, 0)] {
        let rows = batch(video, frame, per_frame);
        db.insert_patches(COL, rows.iter().map(|(v, r)| (v.as_slice(), r.clone())))
            .unwrap();
        db.seal_collection(COL).unwrap();
    }
    // A WAL-only tail: these rows come back by replay, not from a file.
    let tail = batch(2, 1, 7);
    db.insert_patches(COL, tail.iter().map(|(v, r)| (v.as_slice(), r.clone())))
        .unwrap();
    db
}

fn reopen(root: &Path) -> VectorDatabase {
    let (db, report) = VectorDatabase::open_durable(root, DurabilityConfig::new()).unwrap();
    assert!(report.is_clean(), "reopen lost data: {report:?}");
    db
}

/// One search: its `k` best joined hits, best first, and its work counters.
fn search(
    db: &VectorDatabase,
    query: &[f32],
    k: usize,
    predicate: Option<&PatchPredicate>,
) -> (Vec<JoinedHit>, SearchStats) {
    let filter = predicate.and_then(|p| db.resolve_filter(p));
    let request = BatchQuery {
        query,
        k,
        filter: filter.as_ref(),
    };
    db.search_batch_with_stats_opts(COL, &[request], 0)
        .unwrap()
        .pop()
        .unwrap()
}

/// Full search observation: ids plus exact score bit patterns.
fn observe(
    db: &VectorDatabase,
    query: &[f32],
    k: usize,
    predicate: Option<&PatchPredicate>,
) -> Vec<(u64, u32)> {
    search(db, query, k, predicate)
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

/// No filter, then each pushed-down predicate.
fn predicates() -> Vec<Option<PatchPredicate>> {
    vec![
        None,
        Some(PatchPredicate {
            video_ids: Some(BTreeSet::from([1u32])),
            ..PatchPredicate::default()
        }),
        Some(PatchPredicate {
            class_codes: Some(BTreeSet::from([0u8, 3])),
            ..PatchPredicate::default()
        }),
        Some(PatchPredicate {
            video_ids: Some(BTreeSet::from([2u32])),
            time_range: Some((0.0, 0.02)),
            ..PatchPredicate::default()
        }),
    ]
}

/// Every answer of the probe × `k` × predicate matrix, in a fixed order.
fn observe_all(db: &VectorDatabase) -> Vec<Vec<(u64, u32)>> {
    let mut answers = Vec::new();
    for query in probes() {
        for k in [1usize, 10, 50] {
            for predicate in predicates() {
                answers.push(observe(db, &query, k, predicate.as_ref()));
            }
        }
    }
    answers
}

/// The flat fallback probes no cells, so every probe of a trained IVF-PQ
/// store must report some.
fn assert_probes_cells(db: &VectorDatabase, name: &str, when: &str) {
    for (p, query) in probes().iter().enumerate() {
        let cells = search(db, query, 10, None).1.cells_probed;
        assert!(cells > 0, "{name} {when}: probe {p} fell back to flat");
    }
}

/// The property: for every index family, every probe, every `k` and every
/// pushed-down predicate, the reopened store answers bit-identically to
/// the same store before it was closed.
#[test]
fn reopened_store_answers_bit_identically_across_index_families() {
    for (name, config, rows_per_segment) in families() {
        let root = scratch_root(&format!("equiv-{name}"));
        let live = build_store(&root, config, rows_per_segment);
        if config.index_kind == IndexKind::IvfPq {
            assert_probes_cells(&live, name, "live");
        }
        let rows = live.metadata_rows();
        let before = observe_all(&live);
        drop(live);

        let reopened = reopen(&root);
        assert_eq!(reopened.metadata_rows(), rows, "{name}: row counts diverge");
        if config.index_kind == IndexKind::IvfPq {
            assert_probes_cells(&reopened, name, "reopened");
        }
        let after = observe_all(&reopened);
        assert_eq!(before.len(), after.len());
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b, a, "{name}: answer {i} of the matrix diverged");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Compaction merges the sealed segments into one without changing an
/// answer, and the compacted store reopens clean with the same answers.
#[test]
fn compaction_and_reopen_preserve_results() {
    let root = scratch_root("compact");
    // 12-row segments: below the capacity/2 = 32 compaction threshold, so
    // one pass merges all three.
    let db = build_store(&root, flat_config(), 12);
    let reference: Vec<_> = probes().iter().map(|q| observe(&db, q, 10, None)).collect();
    db.compact_collection(COL).unwrap();
    assert_eq!(db.collection_stats(COL).unwrap().sealed_segments, 1);
    let after: Vec<_> = probes().iter().map(|q| observe(&db, q, 10, None)).collect();
    assert_eq!(reference, after, "compaction changed results");
    drop(db);

    let db = reopen(&root);
    assert_eq!(db.collection_stats(COL).unwrap().sealed_segments, 1);
    let after: Vec<_> = probes().iter().map(|q| observe(&db, q, 10, None)).collect();
    assert_eq!(reference, after, "reopen after compaction changed results");
    let _ = std::fs::remove_dir_all(&root);
}
