//! Zero-copy mmap benchmark (PR 9): what the mapped read path buys at open
//! and what it costs (nothing, ideally) at query time.
//!
//! Four measurements, emitted as one JSON document (`--out BENCH_pr9.json`):
//!
//! 1. **Cold open** — one flat durable corpus, opened three ways: heap
//!    (read + CRC + decode every byte), mmap eager (map, CRC over the
//!    mapping), and mmap deferred (map, verify only the header — the
//!    payload CRC moved to the writer's side of the ledger; see
//!    docs/durability.md). The headline is `speedup_deferred`.
//! 2. **Warm QPS, flat** — the same corpus opened heap vs mmap + warmup;
//!    identical results required, QPS ratio reported.
//! 3. **Warm QPS, IVF-PQ** — same comparison over an IVF-PQ corpus.
//! 4. **Larger-than-RAM emulation** — the flat corpus mapped without
//!    populate under an artificial residency budget (a fraction of the
//!    mapped bytes, standing in for a small-RAM box without needing a
//!    cgroup): every time the `mincore` gauge exceeds the budget, the
//!    bench drops pages (`MADV_DONTNEED`) and keeps querying. Every
//!    result must match the heap twin — the degradation is demand-paging
//!    latency, never wrong answers or OOM.

use lovo_index::IndexKind;
use lovo_store::{
    patch_id, CollectionConfig, DurabilityConfig, OpenOptions, PatchRecord, VectorDatabase,
    MMAP_SUPPORTED,
};
use std::path::PathBuf;
use std::time::Instant;

const COL: &str = "bench";
const K: usize = 10;

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lovo-mmap-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn row(i: u64, dim: usize) -> Vec<f32> {
    let x = (i % 65_537) as f32;
    (0..dim)
        .map(|d| ((x + 1.0) * 0.37 + d as f32 * 1.31).sin())
        .collect()
}

fn record(i: u64) -> PatchRecord {
    let frame = (i / 64) as u32;
    let patch = (i % 64) as u32;
    PatchRecord {
        patch_id: patch_id(1, frame, patch),
        video_id: 1,
        frame_index: frame,
        patch_index: patch,
        bbox: (patch as f32, frame as f32, 16.0, 16.0),
        timestamp: frame as f64 / 30.0,
        class_code: Some((i % 7) as u8),
    }
}

/// Builds a durable corpus of `rows` vectors, sealed in segments of
/// `capacity`, then drops it (everything on disk, nothing in memory).
fn build_store(root: &PathBuf, rows: u64, dim: usize, kind: IndexKind, capacity: usize) -> f64 {
    let start = Instant::now();
    let db = VectorDatabase::create_durable(root, DurabilityConfig::new()).expect("create");
    db.create_collection(
        COL,
        CollectionConfig::new(dim)
            .with_index_kind(kind)
            .with_segment_capacity(capacity),
    )
    .expect("collection");
    let mut next = 0u64;
    while next < rows {
        let end = (next + capacity as u64).min(rows);
        let batch: Vec<(Vec<f32>, PatchRecord)> =
            (next..end).map(|i| (row(i, dim), record(i))).collect();
        db.insert_patches(COL, batch.iter().map(|(v, r)| (v.as_slice(), r.clone())))
            .expect("insert");
        db.seal_collection(COL).expect("seal");
        next = end;
    }
    start.elapsed().as_secs_f64()
}

/// Query mix: half drawn near corpus rows, half off-manifold (LCG).
fn queries(count: usize, rows: u64, dim: usize) -> Vec<Vec<f32>> {
    let mut out = Vec::with_capacity(count);
    let mut state = 0x9E37_79B9u64;
    for q in 0..count {
        if q % 2 == 0 {
            out.push(row((q as u64 * 7919) % rows.max(1), dim));
        } else {
            let v: Vec<f32> = (0..dim)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                })
                .collect();
            out.push(v);
        }
    }
    out
}

fn observe(db: &VectorDatabase, query: &[f32]) -> Vec<(u64, u32)> {
    db.search(COL, query, K)
        .expect("search")
        .into_iter()
        .map(|h| (h.patch_id, h.score.to_bits()))
        .collect()
}

fn timed_open(root: &PathBuf, options: OpenOptions) -> (VectorDatabase, f64) {
    let start = Instant::now();
    let (db, report) =
        VectorDatabase::open_durable_with(root, DurabilityConfig::new(), options).expect("open");
    let seconds = start.elapsed().as_secs_f64();
    assert!(report.is_clean(), "bench store must recover cleanly");
    (db, seconds)
}

fn qps(db: &VectorDatabase, queries: &[Vec<f32>], rounds: usize) -> f64 {
    for q in queries {
        let _ = observe(db, q); // warm pass
    }
    let start = Instant::now();
    for _ in 0..rounds {
        for q in queries {
            let _ = observe(db, q);
        }
    }
    (rounds * queries.len()) as f64 / start.elapsed().as_secs_f64()
}

fn bench_cold_open(root: &PathBuf, probes: &[Vec<f32>]) -> String {
    let (heap, heap_seconds) = timed_open(root, OpenOptions::default());
    let reference: Vec<_> = probes.iter().map(|q| observe(&heap, q)).collect();
    drop(heap);
    let (eager, eager_seconds) = timed_open(root, OpenOptions::default().with_mmap(true));
    let eager_results: Vec<_> = probes.iter().map(|q| observe(&eager, q)).collect();
    drop(eager);
    let (deferred, deferred_seconds) = timed_open(
        root,
        OpenOptions::default()
            .with_mmap(true)
            .with_verify_payload(false),
    );
    let deferred_results: Vec<_> = probes.iter().map(|q| observe(&deferred, q)).collect();
    drop(deferred);
    assert_eq!(reference, eager_results, "eager mmap open diverged");
    assert_eq!(reference, deferred_results, "deferred mmap open diverged");
    format!(
        "  \"cold_open\": {{\"heap_seconds\": {heap_seconds:.4}, \
         \"mmap_eager_seconds\": {eager_seconds:.4}, \
         \"mmap_deferred_seconds\": {deferred_seconds:.4}, \
         \"speedup_eager\": {:.2}, \"speedup_deferred\": {:.2}, \
         \"results_identical\": true}}",
        heap_seconds / eager_seconds,
        heap_seconds / deferred_seconds,
    )
}

fn bench_warm_qps(root: &PathBuf, label: &str, queries: &[Vec<f32>], rounds: usize) -> String {
    let (heap, _) = timed_open(root, OpenOptions::default());
    let (mapped, _) = timed_open(root, OpenOptions::default().with_mmap(true));
    let warmed = mapped.warmup();
    let identical = queries
        .iter()
        .all(|q| observe(&heap, q) == observe(&mapped, q));
    assert!(identical, "{label}: mmap-warm results diverged from heap");
    let qps_heap = qps(&heap, queries, rounds);
    let qps_mapped = qps(&mapped, queries, rounds);
    format!(
        "  \"warm_qps_{label}\": {{\"qps_heap\": {qps_heap:.1}, \
         \"qps_mmap_warm\": {qps_mapped:.1}, \"ratio\": {:.3}, \
         \"mapped_bytes\": {}, \"warmup_bytes\": {warmed}, \
         \"results_identical\": {identical}}}",
        qps_mapped / qps_heap,
        mapped.mapped_bytes(),
    )
}

fn bench_larger_than_ram(root: &PathBuf, queries: &[Vec<f32>], rounds: usize) -> String {
    // Heap twin for correctness; opened first so its transient load peak
    // doesn't overlap the budgeted phase.
    let (heap, _) = timed_open(root, OpenOptions::default());
    let reference: Vec<_> = queries.iter().map(|q| observe(&heap, q)).collect();
    drop(heap);

    // populate=false + deferred verification: nothing is faulted in until
    // a scan touches it — the open itself stays O(header) no matter how
    // small the budget.
    let (db, _) = timed_open(
        root,
        OpenOptions::default()
            .with_mmap(true)
            .with_verify_payload(false),
    );
    let mapped_bytes = db.mapped_bytes();
    // The emulated memory limit: a quarter of the corpus. On a real
    // small-RAM box the kernel would evict cold pages on its own; here the
    // bench plays the eviction hand explicitly so the run is deterministic
    // on a 128 GB machine.
    let budget = (mapped_bytes / 4).max(1);
    let mut max_resident = 0usize;
    let mut releases = 0usize;
    let mut correct = true;
    let start = Instant::now();
    for _ in 0..rounds {
        for (q, want) in queries.iter().zip(&reference) {
            correct &= &observe(&db, q) == want;
            let resident = db.resident_bytes();
            max_resident = max_resident.max(resident);
            if resident > budget {
                db.release_pages();
                releases += 1;
            }
        }
    }
    let qps_churn = (rounds * queries.len()) as f64 / start.elapsed().as_secs_f64();
    assert!(correct, "larger-than-RAM run returned wrong results");
    format!(
        "  \"larger_than_ram\": {{\"mapped_bytes\": {mapped_bytes}, \
         \"budget_bytes\": {budget}, \"max_resident_bytes\": {max_resident}, \
         \"page_releases\": {releases}, \"qps_under_churn\": {qps_churn:.1}, \
         \"all_queries_correct\": {correct}, \"completed\": true}}",
    )
}

fn main() {
    let mut rows = 1_000_000u64;
    let mut ivf_rows = 1_000_000u64;
    let mut dim = 256usize;
    let mut query_count = 32usize;
    let mut rounds = 3usize;
    let mut out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).cloned();
        let take = |name: &str| -> String {
            value
                .clone()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag {
            "--rows" => {
                rows = take("--rows").parse().expect("--rows: integer");
                i += 2;
            }
            "--ivf-rows" => {
                ivf_rows = take("--ivf-rows").parse().expect("--ivf-rows: integer");
                i += 2;
            }
            "--dim" => {
                dim = take("--dim").parse().expect("--dim: integer");
                i += 2;
            }
            "--queries" => {
                query_count = take("--queries").parse().expect("--queries: integer");
                i += 2;
            }
            "--rounds" => {
                rounds = take("--rounds").parse().expect("--rounds: integer");
                i += 2;
            }
            "--out" => {
                out = Some(take("--out"));
                i += 2;
            }
            other => panic!("unknown flag {other}"),
        }
    }

    let capacity = ((rows / 8).max(512) as usize).min(262_144);
    let ivf_capacity = ((ivf_rows / 8).max(512) as usize).min(262_144);
    let probe_set = queries(query_count, rows, dim);

    eprintln!("[mmap_bench] building flat corpus: {rows} rows, dim {dim}");
    let flat_root = scratch_root("flat");
    let flat_build = build_store(&flat_root, rows, dim, IndexKind::BruteForce, capacity);

    eprintln!("[mmap_bench] cold opens");
    let cold = bench_cold_open(&flat_root, &probe_set[..probe_set.len().min(4)]);
    eprintln!("[mmap_bench] warm QPS, flat");
    let flat_qps = bench_warm_qps(&flat_root, "flat", &probe_set, rounds);
    eprintln!("[mmap_bench] larger-than-RAM churn");
    let ltr = bench_larger_than_ram(&flat_root, &probe_set, rounds);
    let _ = std::fs::remove_dir_all(&flat_root);

    eprintln!("[mmap_bench] building IVF-PQ corpus: {ivf_rows} rows, dim {dim}");
    let ivf_root = scratch_root("ivf");
    let ivf_build = build_store(&ivf_root, ivf_rows, dim, IndexKind::IvfPq, ivf_capacity);
    eprintln!("[mmap_bench] warm QPS, IVF-PQ");
    let ivf_queries = queries(query_count, ivf_rows, dim);
    let ivf_qps = bench_warm_qps(&ivf_root, "ivf_pq", &ivf_queries, rounds);
    let _ = std::fs::remove_dir_all(&ivf_root);

    let json = format!(
        "{{\n  \"bench\": \"mmap_pr9\",\n  \"mmap_supported\": {MMAP_SUPPORTED},\n  \
         \"rows\": {rows},\n  \"ivf_rows\": {ivf_rows},\n  \"dim\": {dim},\n  \
         \"queries\": {query_count},\n  \"rounds\": {rounds},\n  \
         \"flat_build_seconds\": {flat_build:.2},\n  \
         \"ivf_build_seconds\": {ivf_build:.2},\n{cold},\n{flat_qps},\n{ltr},\n{ivf_qps}\n}}"
    );
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, format!("{json}\n")).expect("write --out file");
        eprintln!("[mmap_bench] wrote {path}");
    }
}
