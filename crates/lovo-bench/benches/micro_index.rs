//! Microbenchmarks of the index substrate: PQ encoding, ADC scoring, and ANN
//! search across the three index families of Table V. These back the latency
//! claims (fast search well below a millisecond per probe on laptop-scale
//! collections; IVF-PQ and HNSW far below brute force).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lovo_index::{
    FlatIndex, HnswConfig, HnswIndex, IvfPqConfig, IvfPqIndex, PqConfig, ProductQuantizer,
    VectorIndex,
};
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

fn bench_pq(c: &mut Criterion) {
    let sample = random_unit_vectors(4_000, 7);
    let pq = ProductQuantizer::train(PqConfig::for_dim(DIM), &sample).unwrap();
    let query = &sample[0];
    let codes: Vec<_> = sample
        .iter()
        .take(1_000)
        .map(|v| pq.encode(v).unwrap())
        .collect();
    let mut group = c.benchmark_group("pq");
    group.bench_function("encode", |b| {
        b.iter(|| pq.encode(black_box(query)).unwrap())
    });
    group.bench_function("adc_scan_1k", |b| {
        b.iter(|| {
            let table = pq.adc_table(black_box(query)).unwrap();
            codes.iter().map(|code| table.score(code)).sum::<f32>()
        })
    });
    group.finish();
}

fn bench_search_families(c: &mut Criterion) {
    let vectors = random_unit_vectors(N, 11);
    let mut flat = FlatIndex::new(DIM);
    let mut hnsw = HnswIndex::new(HnswConfig::for_dim(DIM)).unwrap();
    for (i, v) in vectors.iter().enumerate() {
        flat.insert(i as u64, v).unwrap();
        hnsw.insert(i as u64, v).unwrap();
    }
    let ids = (0..vectors.len() as u64).collect();
    let ivf = IvfPqIndex::build_from_rows(IvfPqConfig::for_dim(DIM), ids, vectors.concat().into())
        .unwrap();
    let query = &vectors[42];

    let mut group = c.benchmark_group("ann_search_top10");
    group.sample_size(30);
    for (name, index) in [
        ("BF", &flat as &dyn VectorIndex),
        ("IVF-PQ", &ivf as &dyn VectorIndex),
        ("HNSW", &hnsw as &dyn VectorIndex),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &index, |b, index| {
            b.iter(|| index.search(black_box(query), 10, None).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pq, bench_search_families);
criterion_main!(benches);
