//! Engine-level durability: build LOVO over a durable store, kill it (drop
//! with no shutdown path), reopen with [`Lovo::open`], and require the
//! reopened engine to answer queries identically to the original — including
//! the rerank stage, whose key frames come back from the persisted blobs
//! rather than from re-ingesting footage.

use lovo_core::{DurabilityConfig, Lovo, LovoConfig};
use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};
use std::path::PathBuf;

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lovo-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn videos(seed: u64, frames: usize) -> VideoCollection {
    VideoCollection::generate(
        DatasetConfig::for_kind(DatasetKind::Bellevue)
            .with_frames_per_video(frames)
            .with_seed(seed),
    )
}

const QUERIES: &[&str] = &[
    "a red car driving in the center of the road",
    "a bus on the road",
    "a person walking on the sidewalk",
];

#[test]
fn reopened_engine_answers_queries_identically() {
    let root = scratch_root("identical");
    let footage = videos(7, 120);
    let config = LovoConfig::default().with_segment_capacity(500);
    let lovo = Lovo::build_durable(&footage, config, &root, DurabilityConfig::new()).unwrap();
    let before: Vec<_> = QUERIES.iter().map(|q| lovo.query(q).unwrap()).collect();
    let stats_before = lovo.collection_stats();
    drop(lovo); // no shutdown hook exists — this IS the kill -9 model

    let (reopened, report) = Lovo::open(config, &root, DurabilityConfig::new()).unwrap();
    assert!(
        report.is_clean(),
        "clean shutdown must recover losslessly: {report:?}"
    );
    assert!(report.segments_loaded >= 1);
    let stats_after = reopened.collection_stats();
    assert_eq!(stats_after.entities, stats_before.entities);
    for (query, old) in QUERIES.iter().zip(&before) {
        let new = reopened.query(query).unwrap();
        assert_eq!(
            new.frames, old.frames,
            "query {query:?} diverged after reopen (rerank frames lost?)"
        );
        assert!(
            !new.frames.is_empty(),
            "query {query:?} must still rank frames"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reopened_engine_keeps_ingesting_and_rejects_recovered_video_ids() {
    let root = scratch_root("ingest");
    let config = LovoConfig::default();
    {
        Lovo::build_durable(&videos(7, 90), config, &root, DurabilityConfig::new()).unwrap();
    }
    let (reopened, _) = Lovo::open(config, &root, DurabilityConfig::new()).unwrap();
    // Recovered video ids stay reserved: re-ingesting them would silently
    // collide patch ids with the recovered rows.
    assert!(
        reopened.add_videos(&videos(7, 90)).is_err(),
        "duplicate video ids must stay rejected across a restart"
    );
    // Fresh ids append fine, durably.
    let mut batch = videos(43, 90);
    for video in &mut batch.videos {
        video.id += 1000;
    }
    let entities_before = reopened.collection_stats().entities;
    reopened.add_videos(&batch).unwrap();
    let entities_after = reopened.collection_stats().entities;
    assert!(entities_after > entities_before);
    drop(reopened);
    let (again, report) = Lovo::open(config, &root, DurabilityConfig::new()).unwrap();
    assert!(report.is_clean());
    assert_eq!(again.collection_stats().entities, entities_after);
    let result = again.query("a bus on the road").unwrap();
    assert!(!result.frames.is_empty());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn open_rejects_a_mismatched_embedding_dimensionality() {
    let root = scratch_root("dim");
    let config = LovoConfig::default();
    {
        Lovo::build_durable(&videos(7, 90), config, &root, DurabilityConfig::new()).unwrap();
    }
    let mut narrower = LovoConfig::default();
    narrower.visual.class_dim = config.visual.class_dim / 2;
    narrower.text.class_dim = narrower.visual.class_dim;
    narrower.cross_modality.class_dim = narrower.visual.class_dim;
    let err = Lovo::open(narrower, &root, DurabilityConfig::new());
    assert!(
        err.is_err(),
        "a store built at another dim must be refused up front"
    );
    // The right config still opens.
    assert!(Lovo::open(config, &root, DurabilityConfig::new()).is_ok());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn undecodable_key_frame_blob_is_counted_at_reopen() {
    let root = scratch_root("undecodable");
    let config = LovoConfig::default();
    {
        let lovo =
            Lovo::build_durable(&videos(7, 90), config, &root, DurabilityConfig::new()).unwrap();
        // A batch of no rows whose one key-frame blob is not a wire frame,
        // keyed to a frame no video holds.
        lovo.database()
            .insert_patches_with_aux(
                lovo_core::summary::PATCH_COLLECTION,
                std::iter::empty(),
                vec![(u64::MAX, vec![0xde, 0xad])],
            )
            .unwrap();
    }
    let (reopened, report) = Lovo::open(config, &root, DurabilityConfig::new()).unwrap();
    assert_eq!(report.frames_undecodable, 1, "{report:?}");
    assert!(!report.is_clean());
    let result = reopened.query("a bus on the road").unwrap();
    assert!(!result.frames.is_empty());
    let _ = std::fs::remove_dir_all(&root);
}
