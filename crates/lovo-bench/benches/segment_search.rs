//! Segment-count sweep: search latency of a `SegmentedCollection` as the
//! same 20k-row corpus is split into 1, 4, 16 or 64 segments. Shows what
//! the sequential fan-out + merge costs per extra segment against a
//! monolithic index, and where compaction pays off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lovo_store::{CollectionConfig, SegmentedCollection};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const DIM: usize = 32;
const N: usize = 20_000;

fn random_unit_vectors(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            lovo_index::metric::normalize(&mut v);
            v
        })
        .collect()
}

fn build_collection(vectors: &[Vec<f32>], segments: usize) -> SegmentedCollection {
    let capacity = N.div_ceil(segments);
    let config = CollectionConfig::new(DIM).with_segment_capacity(capacity);
    let mut collection = SegmentedCollection::new(format!("sweep-{segments}"), config).unwrap();
    for (i, v) in vectors.iter().enumerate() {
        collection.insert(i as u64, v).unwrap();
    }
    collection.seal().unwrap();
    collection
}

fn bench_segment_sweep(c: &mut Criterion) {
    let vectors = random_unit_vectors(N, 19);
    let query = &vectors[42];

    let mut group = c.benchmark_group("segmented_search_top10");
    group.sample_size(30);
    for segments in [1usize, 4, 16, 64] {
        let collection = build_collection(&vectors, segments);
        assert_eq!(collection.stats().sealed_segments, segments);
        group.bench_with_input(
            BenchmarkId::from_parameter(segments),
            &collection,
            |b, collection| b.iter(|| collection.search(black_box(query), 10).unwrap()),
        );
    }
    group.finish();
}

/// A collection whose capacity is the full corpus but whose rows were sealed
/// into 64 undersized fragments — the shape many small incremental appends
/// leave behind, and the input compaction exists for.
fn build_fragmented(vectors: &[Vec<f32>]) -> SegmentedCollection {
    let config = CollectionConfig::new(DIM).with_segment_capacity(N);
    let mut collection = SegmentedCollection::new("fragmented", config).unwrap();
    let fragment = N / 64;
    for (i, v) in vectors.iter().enumerate() {
        collection.insert(i as u64, v).unwrap();
        if (i + 1) % fragment == 0 {
            collection.seal().unwrap();
        }
    }
    collection.seal().unwrap();
    collection
}

fn bench_compaction(c: &mut Criterion) {
    let vectors = random_unit_vectors(N, 23);
    let mut group = c.benchmark_group("compaction");
    group.sample_size(10);
    group.bench_function("merge_64_undersized_segments", |b| {
        b.iter_with_setup(
            || build_fragmented(&vectors),
            |mut collection| {
                let result = collection.compact().unwrap();
                assert!(result.segments_merged > 0);
                black_box(result);
            },
        )
    });
    group.finish();
}

criterion_group!(benches, bench_segment_sweep, bench_compaction);
criterion_main!(benches);
