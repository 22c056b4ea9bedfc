//! Filtered-search selectivity sweep: a video-id predicate at 1% / 10% /
//! 50% / 100% selectivity against a segmented collection with
//! video-contiguous packed ids, compared with the pre-planner strategy of
//! searching unfiltered and post-filtering the hits. Backs the claim that
//! pushdown + zone-map pruning makes selective queries pay for the footage
//! they match, not the corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lovo_index::IdFilter;
use lovo_store::{patchid, BatchQuery, CollectionConfig, PushdownFilter, SegmentedCollection};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;

const DIM: usize = 32;
const VIDEOS: u32 = 100;
const ROWS_PER_VIDEO: u32 = 400;

fn build_collection() -> SegmentedCollection {
    let config = CollectionConfig::new(DIM).with_segment_capacity(4096);
    let mut collection = SegmentedCollection::new("filtered-sweep", config).unwrap();
    let mut rng = SmallRng::seed_from_u64(0xf117);
    for video in 0..VIDEOS {
        for row in 0..ROWS_PER_VIDEO {
            let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            lovo_index::metric::normalize(&mut v);
            collection
                .insert(patchid::patch_id(video, row, 0), &v)
                .unwrap();
        }
    }
    collection.seal().unwrap();
    collection
}

/// A pushed-down video filter over the first `allowed` videos, the exact
/// shape `VectorDatabase::resolve_filter` produces for a video predicate.
fn video_filter(allowed: u32) -> PushdownFilter {
    let videos: BTreeSet<u32> = (0..allowed).collect();
    let ranges = videos.iter().map(|&v| patchid::video_id_range(v)).collect();
    let ids = IdFilter::from_predicate(move |id| videos.contains(&patchid::video_of(id)));
    PushdownFilter::new(ids).with_ranges(ranges)
}

fn bench_selectivity_sweep(c: &mut Criterion) {
    let collection = build_collection();
    let mut rng = SmallRng::seed_from_u64(0x9e1);
    let query: Vec<f32> = {
        let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        lovo_index::metric::normalize(&mut v);
        v
    };

    let mut group = c.benchmark_group("filtered_search_top10");
    group.sample_size(30);
    for percent in [1u32, 10, 50, 100] {
        let filter = video_filter(VIDEOS * percent / 100);
        group.bench_with_input(
            BenchmarkId::new("pushdown", percent),
            &filter,
            |b, filter| {
                b.iter(|| {
                    let request = BatchQuery {
                        query: black_box(&query),
                        k: 10,
                        filter: Some(filter),
                    };
                    collection.search_batch_with_stats_opts(&[request]).unwrap()
                })
            },
        );
        // The pre-planner strategy: full unfiltered search, then drop hits
        // outside the predicate.
        let allowed = VIDEOS * percent / 100;
        group.bench_with_input(
            BenchmarkId::new("post_filter", percent),
            &allowed,
            |b, &allowed| {
                b.iter(|| {
                    let hits = collection.search(black_box(&query), 10).unwrap();
                    hits.into_iter()
                        .filter(|h| patchid::video_of(h.id) < allowed)
                        .collect::<Vec<_>>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_selectivity_sweep);
criterion_main!(benches);
