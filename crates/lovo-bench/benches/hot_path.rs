//! Hot-path microbenchmarks for the flat-storage + bounded-selection
//! overhaul: distance kernels (`dot` vs `dot_batch`), flat-scan top-k, ADC
//! list scoring over contiguous vs per-entry code storage, and end-to-end
//! segmented search. `cargo bench --bench hot_path` covers the workloads of
//! the hot-path overhaul's before / after comparison (its headline numbers
//! are in `docs/benchmarks.md`, "Retired emitters").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lovo_index::metric::{dot, dot_batch};
use lovo_index::{FlatIndex, PqCode, PqConfig, ProductQuantizer, VectorIndex};
use lovo_store::{CollectionConfig, SegmentedCollection};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const DIM: usize = 64;

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

fn bench_kernels(c: &mut Criterion) {
    let vectors = random_unit_vectors(10_000, 3);
    let rows: Vec<f32> = vectors.iter().flatten().copied().collect();
    let query = vectors[0].clone();
    let mut out: Vec<f32> = Vec::with_capacity(vectors.len());

    let mut group = c.benchmark_group("kernels");
    group.bench_function("dot_64d", |b| {
        b.iter(|| dot(black_box(&query), black_box(&vectors[1])))
    });
    group.bench_function("dot_batch_10k_rows", |b| {
        b.iter(|| {
            out.clear();
            dot_batch(black_box(&query), black_box(&rows), DIM, &mut out);
            out[out.len() - 1]
        })
    });
    group.finish();
}

fn bench_flat_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("flat_topk");
    for &n in &[10_000usize, 100_000] {
        let vectors = random_unit_vectors(n, 11);
        let mut flat = FlatIndex::new(DIM);
        for (i, v) in vectors.iter().enumerate() {
            flat.insert(i as u64, v).unwrap();
        }
        let query = vectors[42].clone();
        group.bench_with_input(BenchmarkId::from_parameter(n), &flat, |b, flat| {
            b.iter(|| flat.search(black_box(&query), 10, None).unwrap())
        });
    }
    group.finish();
}

fn bench_adc_list(c: &mut Criterion) {
    let n = 100_000usize;
    let vectors = random_unit_vectors(n, 17);
    let pq = ProductQuantizer::train(PqConfig::for_dim(DIM), &vectors[..4_000]).unwrap();
    let stride = pq.config().num_subspaces;
    let boxed: Vec<PqCode> = vectors.iter().map(|v| pq.encode(v).unwrap()).collect();
    let contiguous: Vec<u8> = boxed
        .iter()
        .flat_map(|code| code.0.iter().copied())
        .collect();
    let query = vectors[0].clone();
    let table = pq.adc_table(&query).unwrap();
    let mut scores: Vec<f32> = Vec::with_capacity(n);

    let mut group = c.benchmark_group("adc_scan_100k");
    group.bench_function("contiguous_list", |b| {
        b.iter(|| {
            scores.clear();
            table.score_list(black_box(&contiguous), stride, &mut scores);
            scores[scores.len() - 1]
        })
    });
    group.bench_function("per_entry_codes", |b| {
        b.iter(|| {
            boxed
                .iter()
                .map(|code| table.score(black_box(code)))
                .sum::<f32>()
        })
    });
    group.finish();
}

fn bench_segment_search(c: &mut Criterion) {
    let n = 32_768usize;
    let vectors = random_unit_vectors(n, 23);
    let mut collection = SegmentedCollection::new(
        "hot_path",
        CollectionConfig::new(DIM).with_segment_capacity(4096),
    )
    .unwrap();
    for (i, v) in vectors.iter().enumerate() {
        collection.insert(i as u64, v).unwrap();
    }
    collection.seal().unwrap();
    let query = vectors[7].clone();

    c.bench_function("segment_search_32k_top10", |b| {
        b.iter(|| collection.search(black_box(&query), 10).unwrap())
    });
}

criterion_group!(
    benches,
    bench_kernels,
    bench_flat_topk,
    bench_adc_list,
    bench_segment_search
);
criterion_main!(benches);
