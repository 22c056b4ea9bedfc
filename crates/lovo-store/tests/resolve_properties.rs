//! Property test for predicate resolution: whatever the table holds and in
//! whatever order it arrived, the filter `MetadataStore::resolve` compiles
//! accepts exactly the rows `PatchPredicate::matches` accepts, its ranges
//! cover them, it reports their number — and the frame and video lookups the
//! directory now serves equal a walk over all rows.
//!
//! Tables come in two kinds: packed ids, where every key frame owns one run
//! of the id-ordered table and predicates resolve to ranges and postings off
//! the frame directory, and ad-hoc ids whose frames interleave, where the
//! store must notice and take the per-row join. Both are generated with
//! out-of-order arrivals, replacements (also ones that move a row to another
//! frame or class) and class-less rows.

use lovo_index::IdFilter;
use lovo_store::{patch_id, MetadataStore, PatchPredicate, PatchRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn row(id: u64, video: u32, frame: u32, timestamp: f64, class: Option<u8>) -> PatchRecord {
    PatchRecord {
        patch_id: id,
        video_id: video,
        frame_index: frame,
        patch_index: (id & 0xfff) as u32,
        bbox: (1.0, 2.0, 3.0, 4.0),
        timestamp,
        class_code: class,
    }
}

fn class(rng: &mut SmallRng) -> Option<u8> {
    match rng.gen_range(0..4u8) {
        3 => None,
        code => Some(code),
    }
}

/// The insertion sequence of one generated table.
fn generated_inserts(rng: &mut SmallRng, packed: bool) -> Vec<PatchRecord> {
    let mut inserts = Vec::new();
    if packed {
        for video in 0..rng.gen_range(0..4u32) {
            // Sparse video ids, so some requested videos are absent.
            let video = video * 2 + 1;
            for frame in 0..rng.gen_range(1..6u32) {
                for patch in 0..rng.gen_range(1..5u32) {
                    let timestamp = f64::from(frame) * 0.5;
                    let id = patch_id(video, frame, patch);
                    inserts.push(row(id, video, frame, timestamp, class(rng)));
                }
            }
        }
    } else {
        for i in 0..rng.gen_range(0..40u64) {
            let frame = (i % 5) as u32;
            // Usually one timestamp per frame; sometimes one per row.
            let timestamp = if rng.gen_range(0..8) == 0 {
                i as f64 * 0.1
            } else {
                f64::from(frame) * 0.5
            };
            inserts.push(row(i * 3, (i % 2) as u32, frame, timestamp, class(rng)));
        }
    }
    match rng.gen_range(0..3) {
        0 => {}
        1 => inserts.reverse(),
        _ => {
            // Fisher–Yates; the offline `rand` shim has no `shuffle`.
            for i in (1..inserts.len()).rev() {
                inserts.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
    // Replacements: same id, another class; and (rarely) another frame,
    // which no packed id allows — the table stops being exact.
    for _ in 0..rng.gen_range(0..4) {
        if !inserts.is_empty() {
            let victim = inserts[rng.gen_range(0..inserts.len())].clone();
            let moved = rng.gen_range(0..3) == 0;
            inserts.push(PatchRecord {
                class_code: class(rng),
                frame_index: victim.frame_index + u32::from(moved),
                ..victim
            });
        }
    }
    inserts
}

fn generated_predicate(rng: &mut SmallRng) -> PatchPredicate {
    let video_ids = rng.gen_range(0..2).eq(&0).then(|| {
        let count = rng.gen_range(0..4);
        (0..count).map(|_| rng.gen_range(0..8u32)).collect()
    });
    let time_range = rng
        .gen_range(0..2)
        .eq(&0)
        .then(|| match rng.gen_range(0..4) {
            0 => (100.0, 200.0), // nothing is that late
            1 => (1.5, 0.5),     // inverted
            _ => {
                let start = f64::from(rng.gen_range(0..5u32)) * 0.5;
                (start, start + f64::from(rng.gen_range(0..4u32)) * 0.5)
            }
        });
    let class_codes = rng.gen_range(0..2).eq(&0).then(|| {
        let count = rng.gen_range(1..3);
        (0..count).map(|_| rng.gen_range(0..5u8)).collect()
    });
    PatchPredicate {
        video_ids,
        time_range,
        class_codes,
    }
}

#[test]
fn resolved_filters_accept_exactly_the_matching_rows() {
    let mut rng = SmallRng::seed_from_u64(0x5e1e_c7ed);
    let (mut from_directory, mut from_join) = (0usize, 0usize);
    for case in 0..600 {
        let packed = case % 2 == 0;
        let inserts = generated_inserts(&mut rng, packed);
        let mut store = MetadataStore::new();
        // Arrive one by one or in batches, as ingest and recovery do.
        if rng.gen_range(0..2) == 0 {
            for record in &inserts {
                store.insert(record.clone());
            }
        } else {
            for batch in inserts.chunks(rng.gen_range(1..7)) {
                store.extend(batch.iter().cloned());
            }
        }
        // The model: the last record written under each id.
        let model: BTreeMap<u64, PatchRecord> =
            inserts.iter().map(|r| (r.patch_id, r.clone())).collect();

        assert_eq!(store.len(), model.len(), "case {case}");
        assert_eq!(store.is_empty(), model.is_empty());
        for (id, record) in &model {
            assert_eq!(store.get(*id).unwrap(), record, "case {case}");
            assert!(store.get(id + 1).is_err() || model.contains_key(&(id + 1)));
        }
        let videos: BTreeSet<u32> = model.values().map(|r| r.video_id).collect();
        assert_eq!(store.video_ids(), videos, "case {case}");
        let frames: BTreeSet<(u32, u32)> = model
            .values()
            .map(|r| (r.video_id, r.frame_index))
            .collect();
        assert_eq!(store.frame_count(), frames.len(), "case {case}");
        for &(video, frame) in frames.iter().chain([&(9, 9)]) {
            let expected: Vec<&PatchRecord> = model
                .values()
                .filter(|r| (r.video_id, r.frame_index) == (video, frame))
                .collect();
            assert_eq!(
                store.patches_of_frame(video, frame),
                expected,
                "case {case}"
            );
        }

        for _ in 0..12 {
            let predicate = generated_predicate(&mut rng);
            let Some(filter) = store.resolve(&predicate) else {
                assert!(predicate.is_unconstrained());
                continue;
            };
            assert!(!predicate.is_unconstrained());
            match filter.id_filter() {
                IdFilter::Set(_) => from_join += 1,
                _ => from_directory += 1,
            }
            let expected: BTreeSet<u64> = model
                .values()
                .filter(|r| predicate.matches(r))
                .map(|r| r.patch_id)
                .collect();
            let accepted: BTreeSet<u64> = model
                .keys()
                .copied()
                .filter(|&id| filter.id_filter().accepts(id))
                .collect();
            let context = format!("case {case} {predicate:?} {filter:?}");
            assert_eq!(accepted, expected, "{context}");
            assert_eq!(
                accepted,
                store.matching_ids(&predicate).into_iter().collect(),
                "{context}"
            );
            assert_eq!(filter.id_filter().matched(), expected.len(), "{context}");
            let ranges = filter.ranges().expect("resolved filters carry ranges");
            assert!(
                ranges.windows(2).all(|pair| pair[0].1 < pair[1].0),
                "{context}"
            );
            for id in &expected {
                assert!(
                    ranges
                        .iter()
                        .any(|&(start, end)| start <= *id && *id <= end),
                    "{id} outside the ranges, {context}"
                );
            }
        }
    }
    // Both resolutions ran: the directory for packed tables, the per-row
    // join where frames interleave or a replacement moved a row.
    assert!(from_directory > 1000, "{from_directory}");
    assert!(from_join > 1000, "{from_join}");
}

#[test]
fn memory_estimate_counts_rows_directory_and_postings() {
    let mut store = MetadataStore::new();
    assert_eq!(store.memory_bytes(), 0);
    // 3 frames of 4 rows in one video; half the rows carry a class.
    for frame in 0..3u32 {
        for patch in 0..4u32 {
            let class = (patch % 2 == 0).then_some(7u8);
            let id = patch_id(2, frame, patch);
            store.insert(row(id, 2, frame, f64::from(frame), class));
        }
    }
    let rows = 12 * std::mem::size_of::<PatchRecord>();
    let directory = 3 * 32; // key, timestamp, first and last position
    let posting = 6 * 4 + 16; // 4-byte offsets from one 16-byte block base
    assert_eq!(store.memory_bytes(), rows + directory + posting);
}
