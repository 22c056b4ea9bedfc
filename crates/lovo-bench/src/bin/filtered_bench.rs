//! Machine-readable filtered-query benchmark: emits `BENCH_pr4.json`-style
//! numbers comparing predicate **pushdown** (planner path: id filter compiled
//! into every scan + zone-map segment pruning) against the pre-planner
//! strategy of **unfiltered search + post-filter**, across a video-id
//! selectivity sweep (1% / 10% / 50% / 100%), plus one metadata-joined
//! time-window + class predicate.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p lovo-bench --bin filtered_bench -- \
//!     [--rows 100000] [--dim 64] [--videos 100] [--queries 32] [--k 10] [--out PATH]
//! ```
//!
//! JSON goes to stdout; `--out` additionally writes it to a file. CI runs
//! this with a small `--rows` so the emitter can never bit-rot.

use lovo_index::SearchStats;
use lovo_store::{
    patchid, BatchQuery, CollectionConfig, JoinedHit, PatchPredicate, PatchRecord, PushdownFilter,
    VectorDatabase,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

const COLLECTION: &str = "patches";

struct LatencyStats {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// Runs `run_query` over every query, repeating whole passes until ~0.4 s of
/// samples accumulate, and summarizes per-query latency.
fn measure_queries(queries: &[Vec<f32>], mut run_query: impl FnMut(&[f32])) -> LatencyStats {
    let mut samples_us: Vec<f64> = Vec::new();
    let mut total_secs = 0.0f64;
    let budget_secs = 0.4;
    let max_passes = 50;
    for _ in 0..max_passes {
        for q in queries {
            let start = Instant::now();
            run_query(q);
            let secs = start.elapsed().as_secs_f64();
            samples_us.push(secs * 1e6);
            total_secs += secs;
        }
        if total_secs >= budget_secs {
            break;
        }
    }
    samples_us.sort_by(|a, b| a.total_cmp(b));
    LatencyStats {
        qps: samples_us.len() as f64 / total_secs,
        p50_us: percentile(&samples_us, 0.50),
        p99_us: percentile(&samples_us, 0.99),
    }
}

fn json_latency(name: &str, s: &LatencyStats) -> String {
    format!(
        "\"{name}\": {{\"qps\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
        s.qps, s.p50_us, s.p99_us
    )
}

fn random_unit(dim: usize, rng: &mut SmallRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    lovo_index::metric::normalize(&mut v);
    v
}

/// One (optionally filtered) query through the store's batched search.
fn search_one(
    db: &VectorDatabase,
    query: &[f32],
    k: usize,
    filter: Option<&PushdownFilter>,
) -> (Vec<JoinedHit>, SearchStats) {
    db.search_batch_with_stats_opts(COLLECTION, &[BatchQuery { query, k, filter }], 0)
        .unwrap()
        .pop()
        .unwrap()
}

fn parse_flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let rows = parse_flag(&args, "--rows", 100_000);
    let dim = parse_flag(&args, "--dim", 64);
    let videos = parse_flag(&args, "--videos", 100).max(1) as u32;
    let num_queries = parse_flag(&args, "--queries", 32);
    let k = parse_flag(&args, "--k", 10);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let rows_per_video = (rows as u32).div_ceil(videos).max(1);
    eprintln!(
        "[filtered_bench] building: {videos} videos x {rows_per_video} rows, dim={dim}, IVF-PQ segments..."
    );
    let db = VectorDatabase::new();
    db.create_collection(COLLECTION, CollectionConfig::new(dim))
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(0xbe7c);
    for video in 0..videos {
        let batch: Vec<(Vec<f32>, PatchRecord)> = (0..rows_per_video)
            .map(|row| {
                let record = PatchRecord {
                    patch_id: patchid::patch_id(video, row, 0),
                    video_id: video,
                    frame_index: row,
                    patch_index: 0,
                    bbox: (0.0, 0.0, 32.0, 32.0),
                    timestamp: f64::from(row) / 30.0,
                    class_code: Some((row % 8) as u8),
                };
                (random_unit(dim, &mut rng), record)
            })
            .collect();
        db.insert_patches(
            COLLECTION,
            batch.iter().map(|(v, r)| (v.as_slice(), r.clone())),
        )
        .unwrap();
    }
    db.seal_collection(COLLECTION).unwrap();
    let stats = db.collection_stats(COLLECTION).unwrap();
    eprintln!(
        "[filtered_bench] built: {} rows in {} sealed segments",
        stats.entities, stats.sealed_segments
    );

    let mut qrng = SmallRng::seed_from_u64(0x9e1);
    let queries: Vec<Vec<f32>> = (0..num_queries.max(1))
        .map(|_| random_unit(dim, &mut qrng))
        .collect();

    let mut sections: Vec<String> = Vec::new();

    // --- Video-id selectivity sweep. ---
    for percent in [1usize, 10, 50, 100] {
        let allowed = ((videos as usize * percent) / 100).max(1) as u32;
        let predicate = PatchPredicate {
            video_ids: Some((0..allowed).collect::<BTreeSet<u32>>()),
            ..Default::default()
        };
        let filter = db.resolve_filter(&predicate).unwrap();
        eprintln!("[filtered_bench] selectivity {percent}%: measuring...");

        let pushdown = measure_queries(&queries, |q| {
            black_box(search_one(&db, q, k, Some(&filter)));
        });
        let post_filter = measure_queries(&queries, |q| {
            let (hits, stats) = search_one(&db, q, k, None);
            black_box(
                hits.into_iter()
                    .filter(|h| h.record.video_id < allowed)
                    .collect::<Vec<_>>(),
            );
            black_box(stats);
        });
        let (_, probe_stats) = search_one(&db, &queries[0], k, Some(&filter));
        sections.push(format!(
            "    \"video_selectivity_{percent}pct\": {{\n      {},\n      {},\n      \
             \"speedup\": {:.2},\n      \"segments_pruned\": {},\n      \"segments_probed\": {}\n    }}",
            json_latency("pushdown", &pushdown),
            json_latency("post_filter", &post_filter),
            pushdown.qps / post_filter.qps,
            probe_stats.segments_pruned,
            probe_stats.segments_probed,
        ));
    }

    // --- Metadata-joined predicate: a time window + object class. The
    // pushdown path pays the metadata join per query; it still wins by
    // skipping ADC scoring and rescore work inside every probed segment. ---
    let joined_predicate = PatchPredicate {
        time_range: Some((0.0, f64::from(rows_per_video) / 30.0 * 0.25)),
        class_codes: Some([1u8, 2].into_iter().collect()),
        ..Default::default()
    };
    eprintln!("[filtered_bench] time+class predicate: measuring...");
    let joined = measure_queries(&queries, |q| {
        let filter = db.resolve_filter(&joined_predicate);
        black_box(search_one(&db, q, k, filter.as_ref()));
    });
    sections.push(format!(
        "    \"time_class_predicate\": {{\n      {}\n    }}",
        json_latency("pushdown_with_join", &joined)
    ));

    // --- Batched queries: the whole query set in one shared fan-out pass. ---
    eprintln!("[filtered_bench] batch path: measuring...");
    let batch_start = Instant::now();
    let mut batch_passes = 0usize;
    while batch_start.elapsed().as_secs_f64() < 0.4 {
        let requests: Vec<BatchQuery<'_>> = queries
            .iter()
            .map(|q| BatchQuery {
                query: q.as_slice(),
                k,
                filter: None,
            })
            .collect();
        black_box(
            db.search_batch_with_stats_opts(COLLECTION, &requests, 0)
                .unwrap(),
        );
        batch_passes += 1;
    }
    let batch_qps = (batch_passes * queries.len()) as f64 / batch_start.elapsed().as_secs_f64();
    sections.push(format!(
        "    \"batch_unfiltered\": {{\"qps\": {batch_qps:.1}, \"batch_size\": {}}}",
        queries.len()
    ));

    let json = format!(
        "{{\n  \"bench\": \"filtered_search_pr4\",\n  \"rows\": {},\n  \"dim\": {dim},\n  \
         \"videos\": {videos},\n  \"k\": {k},\n  \"sealed_segments\": {},\n  \"results\": {{\n{}\n  }}\n}}",
        stats.entities,
        stats.sealed_segments,
        sections.join(",\n"),
    );
    println!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{json}\n")).expect("write bench json");
        eprintln!("[filtered_bench] wrote {path}");
    }
}
