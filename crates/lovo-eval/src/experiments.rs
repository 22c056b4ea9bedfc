//! One runner per table/figure of the paper's evaluation section.
//!
//! Every runner returns a [`Report`] whose rows mirror the corresponding
//! artifact (same row/series labels), so the `lovo-bench` binaries can print
//! them directly and EXPERIMENTS.md can record paper-vs-measured values.
//!
//! All runners take a `scale` in `(0, 1]` multiplying the dataset sizes: the
//! experiment binaries use `1.0` (minutes of runtime), the test-suite smoke
//! tests use small values (seconds). Reported latencies are the *modeled*
//! seconds described in `lovo-baselines` (calibrated per-frame costs of the
//! neural components on the paper's testbed) unless a row says otherwise.

use crate::metrics::{average_precision, GroundTruthIndex};
use crate::workloads::{extension_queries, motivation_queries, queries_for};
use lovo_baselines::{
    Figo, LovoSystem, Miris, ObjectQuerySystem, QueryResponse, Umt, Visa, Vocal, Zelda,
};
use lovo_core::LovoConfig;
use lovo_index::IndexKind;
use lovo_video::query::ObjectQuery;
use lovo_video::{DatasetConfig, DatasetKind, VideoCollection};
use serde::{Deserialize, Serialize};

/// Number of hits requested from every system when measuring AveP
/// (the paper takes 10x the ground-truth count; 50 covers that for the
/// laptop-scale collections).
pub const ACCURACY_TOP_K: usize = 50;

/// A printable experiment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Which paper artifact this reproduces, e.g. `"Fig. 6"`.
    pub artifact: String,
    /// Report title.
    pub title: String,
    /// Column headers (the first column is the row label).
    pub columns: Vec<String>,
    /// Rows: label + one cell per column.
    pub rows: Vec<(String, Vec<String>)>,
    /// Free-form notes (scale caveats, paper-expectation reminders).
    pub notes: Vec<String>,
}

impl Report {
    fn new(artifact: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            artifact: artifact.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn push_row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = Vec::new();
        let header: Vec<String> = std::iter::once("".to_string())
            .chain(self.columns.iter().cloned())
            .collect();
        let all_rows: Vec<Vec<String>> = std::iter::once(header.clone())
            .chain(self.rows.iter().map(|(label, cells)| {
                std::iter::once(label.clone())
                    .chain(cells.iter().cloned())
                    .collect()
            }))
            .collect();
        for row in &all_rows {
            for (i, cell) in row.iter().enumerate() {
                if widths.len() <= i {
                    widths.push(0);
                }
                // In chars, as `{:width$}` pads: Fig. 11(b)'s cells hold "µs".
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = format!("== {} — {} ==\n", self.artifact, self.title);
        for (r, row) in all_rows.iter().enumerate() {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    format!("{cell:width$}", width = widths.get(i).copied().unwrap_or(0))
                })
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
            if r == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
                out.push('\n');
            }
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

fn fmt_s(seconds: f64) -> String {
    if seconds >= 100.0 {
        format!("{seconds:.0}")
    } else if seconds >= 1.0 {
        format!("{seconds:.1}")
    } else {
        format!("{seconds:.3}")
    }
}

fn fmt_ap(ap: f32) -> String {
    format!("{ap:.2}")
}

/// The evaluation-scale collection for a dataset kind: the default generator
/// configuration with its frame count scaled by `scale`.
pub fn evaluation_collection(kind: DatasetKind, scale: f64) -> VideoCollection {
    let base = DatasetConfig::for_kind(kind);
    let capped = match kind {
        DatasetKind::Bellevue => base.with_frames_per_video(900),
        DatasetKind::Beach => base.with_frames_per_video(800),
        DatasetKind::Cityscapes => base.with_num_videos(3).with_frames_per_video(400),
        DatasetKind::Qvhighlights => base.with_num_videos(8).with_frames_per_video(120),
        DatasetKind::ActivityNetQa => base.with_num_videos(8).with_frames_per_video(120),
    };
    let frames = ((capped.frames_per_video as f64 * scale).round() as usize).max(60);
    VideoCollection::generate(capped.with_frames_per_video(frames))
}

/// Evaluates one system on one query: AveP and the query response.
pub fn evaluate_query(
    system: &dyn ObjectQuerySystem,
    videos: &VideoCollection,
    query: &ObjectQuery,
    top: usize,
) -> (f32, QueryResponse) {
    let response = system.query(videos, query, top);
    let ground_truth = GroundTruthIndex::build(videos, query);
    let ap = if response.supported {
        average_precision(&response.hits, &ground_truth)
    } else {
        0.0
    };
    (ap, response)
}

/// The four main datasets of the evaluation (Table II).
pub const MAIN_DATASETS: [DatasetKind; 4] = [
    DatasetKind::Cityscapes,
    DatasetKind::Bellevue,
    DatasetKind::Qvhighlights,
    DatasetKind::Beach,
];

/// Fig. 2(a): motivation — per-query execution time of the method families
/// across query complexities.
pub fn fig2_motivation(scale: f64) -> Report {
    let videos = evaluation_collection(DatasetKind::Bellevue, scale);
    let mut report = Report::new(
        "Fig. 2(a)",
        "Execution time (modeled seconds) per query complexity",
        &["QA-index", "QD-search", "Hybrid", "Vision-based"],
    );

    let mut vocal = Vocal::new();
    let vocal_pre = vocal.preprocess(&videos);
    let miris = Miris::new();
    let mut zelda = Zelda::new();
    let zelda_pre = zelda.preprocess(&videos);

    for query in motivation_queries() {
        let qa = vocal.query(&videos, &query, ACCURACY_TOP_K);
        let qd = miris.query(&videos, &query, ACCURACY_TOP_K);
        let vision = zelda.query(&videos, &query, ACCURACY_TOP_K);
        // Hybrid: answer from the index when possible, otherwise fall back to
        // the QD-search scan on top of the failed index lookup.
        let hybrid = if qa.supported {
            qa.modeled_seconds
        } else {
            qa.modeled_seconds + qd.modeled_seconds
        };
        report.push_row(
            query.complexity.name(),
            vec![
                if qa.supported {
                    fmt_s(qa.modeled_seconds)
                } else {
                    "unsupported".to_string()
                },
                fmt_s(qd.modeled_seconds),
                fmt_s(hybrid),
                fmt_s(vision.modeled_seconds),
            ],
        );
    }
    report.note(format!(
        "one-time costs not shown: QA-index indexing {:.1}s, vision-based encoding {:.1}s",
        vocal_pre.modeled_seconds, zelda_pre.modeled_seconds
    ));
    report.note("paper expectation: QA-index ~0.5s but unsupported beyond simple; QD-search 10^2-10^4s; vision-based supports all at moderate cost");
    report
}

/// Fig. 6: AveP of LOVO and every baseline on the sixteen Table II queries.
pub fn fig6_accuracy(scale: f64) -> Report {
    let mut report = Report::new(
        "Fig. 6",
        "Average precision per query (n/s = query unsupported)",
        &["VOCAL", "ZELDA", "UMT", "VISA", "MIRIS", "FiGO", "LOVO"],
    );
    for kind in MAIN_DATASETS {
        let videos = evaluation_collection(kind, scale);
        let mut vocal = Vocal::new();
        vocal.preprocess(&videos);
        let mut zelda = Zelda::new();
        zelda.preprocess(&videos);
        let mut umt = Umt::new();
        umt.preprocess(&videos);
        let mut visa = Visa::new();
        visa.preprocess(&videos);
        let miris = Miris::new();
        let figo = Figo::new();
        let mut lovo = LovoSystem::default();
        lovo.preprocess(&videos);
        let systems: Vec<&dyn ObjectQuerySystem> =
            vec![&vocal, &zelda, &umt, &visa, &miris, &figo, &lovo];
        for query in queries_for(kind) {
            let cells = systems
                .iter()
                .map(|system| {
                    if !system.supports(&query) {
                        "n/s".to_string()
                    } else {
                        let (ap, _) = evaluate_query(*system, &videos, &query, ACCURACY_TOP_K);
                        fmt_ap(ap)
                    }
                })
                .collect();
            report.push_row(query.id.clone(), cells);
        }
    }
    report.note("paper expectation: LOVO highest or tied-highest AveP on every query; VOCAL unsupported beyond predefined classes; MIRIS/FiGO degrade on attribute/relation queries");
    report
}

/// Fig. 7: qualitative top-1 frame of each method for Q4.2 on the Beach scenario.
pub fn fig7_qualitative(scale: f64) -> Report {
    let videos = evaluation_collection(DatasetKind::Beach, scale);
    let query = queries_for(DatasetKind::Beach)
        .into_iter()
        .find(|q| q.id == "Q4.2")
        .expect("Q4.2 exists");
    let mut report = Report::new(
        "Fig. 7",
        "Top-1 retrieved frame for Q4.2 (green bus with white roof)",
        &["top-1 frame", "content of the returned box", "correct?"],
    );
    let mut zelda = Zelda::new();
    zelda.preprocess(&videos);
    let mut umt = Umt::new();
    umt.preprocess(&videos);
    let mut visa = Visa::new();
    visa.preprocess(&videos);
    let miris = Miris::new();
    let figo = Figo::new();
    let mut lovo = LovoSystem::default();
    lovo.preprocess(&videos);
    let ground_truth = GroundTruthIndex::build(&videos, &query);
    let systems: Vec<&dyn ObjectQuerySystem> = vec![&miris, &figo, &umt, &zelda, &visa, &lovo];
    for system in systems {
        let response = system.query(&videos, &query, 1);
        let (frame_label, description, correct) = match response.hits.first() {
            Some(hit) => {
                let frame = &videos.videos[hit.video_id as usize].frames[hit.frame_index as usize];
                let description = frame
                    .objects
                    .iter()
                    .max_by(|a, b| {
                        hit.bbox
                            .iou(&a.bbox)
                            .partial_cmp(&hit.bbox.iou(&b.bbox))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|o| o.attributes.describe())
                    .unwrap_or_else(|| "no object under the box".to_string());
                (
                    format!("video {} frame {}", hit.video_id, hit.frame_index),
                    description,
                    ground_truth.is_match(hit),
                )
            }
            None => ("-".to_string(), "no result".to_string(), false),
        };
        report.push_row(
            system.name(),
            vec![
                frame_label,
                description,
                if correct { "yes" } else { "no" }.to_string(),
            ],
        );
    }
    report.note("paper expectation: only LOVO returns a green, white-roofed bus; baselines return wrong colour/class or incomplete objects");
    report
}

/// Fig. 8: search and total runtime of MIRIS, FiGO and LOVO per dataset.
pub fn fig8_runtime(scale: f64) -> Report {
    let mut report = Report::new(
        "Fig. 8",
        "Per-query runtime (modeled seconds): search / total",
        &[
            "MIRIS search",
            "MIRIS total",
            "FiGO search",
            "FiGO total",
            "LOVO search",
            "LOVO total",
            "LOVO search speedup",
        ],
    );
    for kind in MAIN_DATASETS {
        let videos = evaluation_collection(kind, scale);
        let queries = queries_for(kind);
        let miris = Miris::new();
        let figo = Figo::new();
        let mut lovo = LovoSystem::default();
        let lovo_pre = lovo.preprocess(&videos);
        let mean = |f: &dyn Fn(&ObjectQuery) -> f64| {
            queries.iter().map(f).sum::<f64>() / queries.len() as f64
        };
        let miris_search = mean(&|q| miris.query(&videos, q, ACCURACY_TOP_K).modeled_seconds);
        let figo_search = mean(&|q| figo.query(&videos, q, ACCURACY_TOP_K).modeled_seconds);
        let lovo_search = mean(&|q| lovo.query(&videos, q, ACCURACY_TOP_K).modeled_seconds);
        // QD-search systems pay their full cost per query; LOVO amortizes its
        // one-time processing and pays only the search at query time.
        let miris_total = miris_search + 2.0;
        let figo_total = figo_search + 1.0;
        let lovo_total = lovo_search + lovo_pre.modeled_seconds;
        let speedup = figo_search.max(miris_search) / lovo_search.max(1e-9);
        report.push_row(
            kind.name(),
            vec![
                fmt_s(miris_search),
                fmt_s(miris_total),
                fmt_s(figo_search),
                fmt_s(figo_total),
                fmt_s(lovo_search),
                fmt_s(lovo_total),
                format!("{speedup:.0}x"),
            ],
        );
    }
    report.note("paper expectation: LOVO search up to ~85x faster than the slower QD-search system; totals 9-23x better than MIRIS");
    report
}

/// Table III: processing / search / total time of ZELDA, UMT, VISA and LOVO.
pub fn table3_vision_methods(scale: f64) -> Report {
    let mut report = Report::new(
        "Table III",
        "Vision-based and end-to-end methods (modeled seconds)",
        &[
            "ZELDA proc",
            "ZELDA search",
            "UMT proc",
            "UMT search",
            "VISA proc",
            "VISA search",
            "LOVO proc",
            "LOVO search",
        ],
    );
    for kind in MAIN_DATASETS {
        let videos = evaluation_collection(kind, scale);
        let queries = queries_for(kind);
        let mut zelda = Zelda::new();
        let zelda_pre = zelda.preprocess(&videos);
        let mut umt = Umt::new();
        let umt_pre = umt.preprocess(&videos);
        let mut visa = Visa::new();
        let visa_pre = visa.preprocess(&videos);
        let mut lovo = LovoSystem::default();
        let lovo_pre = lovo.preprocess(&videos);
        let mean = |system: &dyn ObjectQuerySystem| {
            queries
                .iter()
                .map(|q| system.query(&videos, q, ACCURACY_TOP_K).modeled_seconds)
                .sum::<f64>()
                / queries.len() as f64
        };
        report.push_row(
            kind.name(),
            vec![
                fmt_s(zelda_pre.modeled_seconds),
                fmt_s(mean(&zelda)),
                fmt_s(umt_pre.modeled_seconds),
                fmt_s(mean(&umt)),
                fmt_s(visa_pre.modeled_seconds),
                fmt_s(mean(&visa)),
                fmt_s(lovo_pre.modeled_seconds),
                fmt_s(mean(&lovo)),
            ],
        );
    }
    report.note("paper expectation: ZELDA search fastest but least precise; UMT search dominates its total; VISA slowest overall; LOVO search tens of seconds, dominated by rerank");
    report
}

/// Fig. 9: time distribution of LOVO query execution per dataset.
pub fn fig9_breakdown(scale: f64) -> Report {
    let mut report = Report::new(
        "Fig. 9",
        "LOVO time distribution (modeled seconds)",
        &["processing", "rerank", "indexing + fast search"],
    );
    for kind in MAIN_DATASETS {
        let videos = evaluation_collection(kind, scale);
        let queries = queries_for(kind);
        let mut lovo = LovoSystem::default();
        let pre = lovo.preprocess(&videos);
        let system = lovo.inner().expect("built");
        let mut rerank = 0.0f64;
        let mut fast = 0.0f64;
        for query in &queries {
            let result = system.query(&query.text).expect("query");
            rerank += result.reranked_frames as f64
                * lovo_baselines::lovo_adapter::RERANK_SECONDS_PER_FRAME;
            fast += result.timings.fast_search_seconds + result.timings.text_encoding_seconds;
        }
        rerank /= queries.len() as f64;
        fast /= queries.len() as f64;
        let indexing = system.ingest_stats().indexing_seconds;
        report.push_row(
            kind.name(),
            vec![
                fmt_s(pre.modeled_seconds),
                fmt_s(rerank),
                fmt_s(indexing + fast),
            ],
        );
    }
    report.note("paper expectation: offline processing largest, rerank next, indexing + fast search smallest");
    report
}

/// Fig. 10: scalability of total and search time with video duration.
pub fn fig10_scalability(durations_seconds: &[f64]) -> Report {
    let mut report = Report::new(
        "Fig. 10",
        "Scalability with video duration (modeled seconds)",
        &[
            "VOCAL total",
            "MIRIS total",
            "FiGO total",
            "LOVO total",
            "VOCAL search",
            "MIRIS search",
            "FiGO search",
            "LOVO search",
        ],
    );
    let query = &queries_for(DatasetKind::Bellevue)[0];
    for &duration in durations_seconds {
        let config =
            DatasetConfig::for_kind(DatasetKind::Bellevue).with_total_duration_seconds(duration);
        let videos = VideoCollection::generate(config);
        let mut vocal = Vocal::new();
        let vocal_pre = vocal.preprocess(&videos);
        let miris = Miris::new();
        let figo = Figo::new();
        let mut lovo = LovoSystem::default();
        let lovo_pre = lovo.preprocess(&videos);

        let vocal_q = vocal.query(&videos, query, ACCURACY_TOP_K);
        let miris_q = miris.query(&videos, query, ACCURACY_TOP_K);
        let figo_q = figo.query(&videos, query, ACCURACY_TOP_K);
        let lovo_q = lovo.query(&videos, query, ACCURACY_TOP_K);
        report.push_row(
            format!("{duration:.0}s"),
            vec![
                fmt_s(vocal_pre.modeled_seconds + vocal_q.modeled_seconds),
                fmt_s(miris_q.modeled_seconds),
                fmt_s(figo_q.modeled_seconds),
                fmt_s(lovo_pre.modeled_seconds + lovo_q.modeled_seconds),
                fmt_s(vocal_q.modeled_seconds),
                fmt_s(miris_q.modeled_seconds),
                fmt_s(figo_q.modeled_seconds),
                fmt_s(lovo_q.modeled_seconds),
            ],
        );
    }
    report.note("paper expectation: QD-search total/search grows steeply with duration; LOVO search stays nearly flat");
    report
}

/// Fig. 11: module-level scalability of LOVO.
pub fn fig11_modules(scale: f64) -> Report {
    let mut report = Report::new("Fig. 11", "Module scalability", &["value"]);

    // (a) processing time vs number of key frames (modeled, 0.08 s/frame).
    for frames in [500usize, 1_000, 2_000, 4_000] {
        let scaled = ((frames as f64) * scale).round().max(50.0) as usize;
        report.push_row(
            format!("(a) processing time for {scaled} key frames"),
            vec![fmt_s(
                scaled as f64 * lovo_baselines::lovo_adapter::PROCESSING_SECONDS_PER_KEYFRAME,
            )],
        );
    }

    // (b) index size and fast-search time vs inserted entities (real measurements).
    for entities in [2_000usize, 10_000, 40_000] {
        use lovo_index::VectorIndex as _;
        let entities = ((entities as f64) * scale).round().max(500.0) as usize;
        let dim = 32;
        let mut rng_state = 1u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let mut rows: Vec<f32> = Vec::with_capacity(entities * dim);
        for _ in 0..entities {
            let mut v: Vec<f32> = (0..dim).map(|_| next()).collect();
            lovo_index::metric::normalize(&mut v);
            rows.extend_from_slice(&v);
        }
        let query = rows[..dim].to_vec();
        let index = lovo_index::IvfPqIndex::build_from_rows(
            lovo_index::IvfPqConfig::for_dim(dim),
            (0..entities as u64).collect(),
            rows.into(),
        )
        .unwrap();
        // The first search that needs the ADC stage trains the residual PQ;
        // take it untimed, so the cell times search and not training. One
        // search takes microseconds, so the cell is the mean of many.
        const TIMED_SEARCHES: u32 = 100;
        let _ = index.search(&query, 50, None).unwrap();
        let start = std::time::Instant::now();
        for _ in 0..TIMED_SEARCHES {
            let _ = index.search(&query, 50, None).unwrap();
        }
        let per_search = start.elapsed() / TIMED_SEARCHES;
        report.push_row(
            format!("(b) {entities} entities"),
            vec![format!(
                "index {:.1} MB, fast search {:.1} µs",
                index.memory_bytes() as f64 / 1e6,
                per_search.as_secs_f64() * 1e6
            )],
        );
    }

    // (c) fast-search time per entity per dataset (real measurements).
    for kind in MAIN_DATASETS {
        let videos = evaluation_collection(kind, (scale * 0.5).max(0.05));
        let mut lovo = LovoSystem::default();
        lovo.preprocess(&videos);
        let system = lovo.inner().expect("built");
        let query = &queries_for(kind)[0];
        let result = system.query(&query.text).expect("query");
        let per_entity =
            result.timings.fast_search_seconds / system.indexed_patches().max(1) as f64;
        report.push_row(
            format!("(c) {} fast search per entity", kind.name()),
            vec![format!("{per_entity:.2e} s")],
        );
    }

    // (d) rerank time vs number of candidate objects (modeled 0.9 s/frame).
    for objects in [1_000usize, 5_000, 10_000, 15_000] {
        let frames = objects / 10; // ~10 objects per candidate frame
        report.push_row(
            format!("(d) rerank time for {objects} objects"),
            vec![fmt_s(
                frames as f64 * lovo_baselines::lovo_adapter::RERANK_SECONDS_PER_FRAME * scale,
            )],
        );
    }
    report.note("paper expectation: (a) linear ~0.08s/frame, (b) search stays <1s as the index grows, (c) ~1e-4s per entity, (d) rerank grows gradually, ~1s per key frame");
    report
}

/// Table IV: ablation study on Cityscapes and Bellevue.
pub fn table4_ablation(scale: f64) -> Report {
    let mut report = Report::new(
        "Table IV",
        "Ablations: AveP / fast-search ms (wall) / rerank seconds (modeled)",
        &["AveP", "Fast Search", "Rerank"],
    );
    let variants: [(&str, LovoConfig); 4] = [
        ("LOVO", LovoConfig::default()),
        ("w/o Rerank", LovoConfig::ablation_without_rerank()),
        ("w/o ANNS", LovoConfig::ablation_without_anns()),
        ("w/o Key frame", LovoConfig::ablation_without_keyframe()),
    ];
    for (kind, query_ids) in [
        (DatasetKind::Cityscapes, ["Q1.1", "Q1.2"]),
        (DatasetKind::Bellevue, ["Q2.1", "Q2.2"]),
    ] {
        let videos = evaluation_collection(kind, scale);
        let queries: Vec<ObjectQuery> = queries_for(kind)
            .into_iter()
            .filter(|q| query_ids.contains(&q.id.as_str()))
            .collect();
        for (variant_name, config) in &variants {
            let mut lovo = LovoSystem::new(*config);
            lovo.preprocess(&videos);
            for query in &queries {
                let (ap, _) = evaluate_query(&lovo, &videos, query, ACCURACY_TOP_K);
                let system = lovo.inner().expect("built");
                let result = system.query(&query.text).expect("query");
                let rerank_modeled = result.reranked_frames as f64
                    * lovo_baselines::lovo_adapter::RERANK_SECONDS_PER_FRAME;
                report.push_row(
                    format!("{} {variant_name}", query.id),
                    vec![
                        fmt_ap(ap),
                        format!("{:.3}", result.timings.fast_search_seconds * 1e3),
                        if result.reranked_frames == 0 {
                            "-".to_string()
                        } else {
                            fmt_s(rerank_modeled)
                        },
                    ],
                );
            }
        }
    }
    report.note("paper expectation: removing rerank hurts complex queries (Q2.2) most; removing ANNS slows fast search 57-289%; removing key-frame selection slows fast search ~10x and grows storage");
    report
}

/// Table V: ANN variants (BF, IVF-PQ, HNSW) on the Cityscapes queries.
pub fn table5_ann_variants(scale: f64) -> Report {
    let mut report = Report::new(
        "Table V",
        "ANN variants on Cityscapes: AveP / search seconds (modeled) / total seconds (modeled)",
        &["AveP", "Search", "Total"],
    );
    let videos = evaluation_collection(DatasetKind::Cityscapes, scale);
    let queries = queries_for(DatasetKind::Cityscapes);
    for (name, kind) in [
        ("BF", IndexKind::BruteForce),
        ("IVF-PQ", IndexKind::IvfPq),
        ("HNSW", IndexKind::Hnsw),
    ] {
        let mut lovo = LovoSystem::new(LovoConfig::default().with_index_kind(kind));
        let pre = lovo.preprocess(&videos);
        for query in &queries {
            let (ap, response) = evaluate_query(&lovo, &videos, query, ACCURACY_TOP_K);
            report.push_row(
                format!("{} LOVO({name})", query.id),
                vec![
                    fmt_ap(ap),
                    fmt_s(response.modeled_seconds),
                    fmt_s(response.modeled_seconds + pre.modeled_seconds),
                ],
            );
        }
    }
    report.note("paper expectation: all three variants reach similar AveP; BF slightly more accurate but slowest; IVF-PQ balances accuracy, latency and memory");
    report
}

/// Incremental ingest (segmented storage engine): wall-clock cost of
/// appending a new batch of footage with `Lovo::add_videos` vs rebuilding the
/// whole collection from scratch, plus the segment bookkeeping that proves
/// appends never rebuild existing segments.
pub fn incremental_ingest(scale: f64) -> Report {
    use lovo_core::Lovo;
    let mut report = Report::new(
        "Incremental ingest",
        "Append cost vs full rebuild (wall-clock seconds)",
        &[
            "append s",
            "rebuild s",
            "speedup",
            "entities",
            "sealed segments",
            "index builds",
        ],
    );
    let frames = ((500.0 * scale).round() as usize).max(60);
    let config = LovoConfig::default();
    let base = DatasetConfig::for_kind(DatasetKind::Bellevue).with_frames_per_video(frames);

    let first = VideoCollection::generate(base.clone().with_seed(101));
    let engine = Lovo::build(&first, config).expect("initial build");
    let initial = engine.ingest_stats();
    let stats = engine.collection_stats();
    report.push_row(
        "initial build",
        vec![
            "-".to_string(),
            fmt_s(initial.total_seconds()),
            "-".to_string(),
            stats.entities.to_string(),
            stats.sealed_segments.to_string(),
            stats.index_builds.to_string(),
        ],
    );

    let mut combined = first;
    for (batch_no, seed) in [103u64, 107, 109].into_iter().enumerate() {
        let mut batch = VideoCollection::generate(base.clone().with_seed(seed));
        let offset = combined.videos.len() as u32;
        for video in &mut batch.videos {
            video.id += offset;
        }

        let run = engine.add_videos(&batch).expect("append");
        combined.videos.extend(batch.videos);

        // The baseline the segmented engine replaces: a monolithic index must
        // re-summarize and re-index everything on any change.
        let rebuilt = Lovo::build(&combined, config).expect("rebuild");
        let rebuild_seconds = rebuilt.ingest_stats().total_seconds();
        let append_seconds = run.total_seconds();
        let stats = engine.collection_stats();
        report.push_row(
            format!("append batch {}", batch_no + 1),
            vec![
                fmt_s(append_seconds),
                fmt_s(rebuild_seconds),
                format!("{:.1}x", rebuild_seconds / append_seconds.max(1e-9)),
                stats.entities.to_string(),
                stats.sealed_segments.to_string(),
                stats.index_builds.to_string(),
            ],
        );
    }

    let compaction = engine.compact().expect("compact");
    let stats = engine.collection_stats();
    report.push_row(
        "after compaction",
        vec![
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            stats.entities.to_string(),
            stats.sealed_segments.to_string(),
            stats.index_builds.to_string(),
        ],
    );
    report.note(format!(
        "compaction merged {} undersized segments into {}",
        compaction.segments_merged, compaction.segments_created
    ));
    report.note("expectation: append cost stays flat while rebuild cost grows with the collection; index builds grow by exactly the segments each append seals");
    report
}

/// Table VII: the ActivityNet-QA extension queries.
pub fn table7_extension(scale: f64) -> Report {
    let mut report = Report::new(
        "Table VII",
        "ActivityNet-QA extension: AveP / search seconds (modeled) / total seconds (modeled)",
        &["AveP", "Search", "Total"],
    );
    let videos = evaluation_collection(DatasetKind::ActivityNetQa, scale);
    let mut lovo = LovoSystem::default();
    let pre = lovo.preprocess(&videos);
    for query in extension_queries() {
        let (ap, response) = evaluate_query(&lovo, &videos, &query, ACCURACY_TOP_K);
        report.push_row(
            query.id.clone(),
            vec![
                fmt_ap(ap),
                fmt_s(response.modeled_seconds),
                fmt_s(response.modeled_seconds + pre.modeled_seconds),
            ],
        );
    }
    report.note(
        "paper expectation: LOVO answers open-ended QA-style queries with high AveP (0.72-0.99)",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE_SCALE: f64 = 0.12;

    #[test]
    fn report_rendering_includes_rows_and_notes() {
        let mut r = Report::new("Fig. X", "demo", &["a", "b"]);
        r.push_row("row1", vec!["1".into(), "2".into()]);
        r.note("hello");
        let text = r.render();
        assert!(text.contains("Fig. X"));
        assert!(text.contains("row1"));
        assert!(text.contains("note: hello"));
    }

    #[test]
    fn fig2_smoke() {
        let report = fig2_motivation(SMOKE_SCALE);
        assert_eq!(report.rows.len(), 3);
        // QA-index must be unsupported for the complex query.
        assert!(report.rows[2].1[0].contains("unsupported"));
    }

    #[test]
    fn ablation_smoke_has_all_variants() {
        let report = table4_ablation(SMOKE_SCALE);
        // 2 datasets x 2 queries x 4 variants
        assert_eq!(report.rows.len(), 16);
        assert!(report
            .rows
            .iter()
            .any(|(label, _)| label.contains("w/o Rerank")));
    }

    #[test]
    fn extension_smoke_produces_four_rows() {
        let report = table7_extension(SMOKE_SCALE);
        assert_eq!(report.rows.len(), 4);
        // AveP values parse as numbers in [0, 1].
        for (_, cells) in &report.rows {
            let ap: f32 = cells[0].parse().unwrap();
            assert!((0.0..=1.0).contains(&ap));
        }
    }

    #[test]
    fn incremental_ingest_report_tracks_segment_bookkeeping() {
        let report = incremental_ingest(SMOKE_SCALE);
        // initial build + 3 appends + compaction summary.
        assert_eq!(report.rows.len(), 5);
        assert!(report.rows[3].0.contains("append batch 3"));
        // The deterministic invariants (wall-clock columns are reported but
        // not asserted — timing under a parallel test harness is noisy):
        // entities and index builds grow strictly with every append, and
        // compaction conserves entities while shrinking the segment count.
        let column = |row: usize, col: usize| -> usize { report.rows[row].1[col].parse().unwrap() };
        for row in 1..4 {
            assert!(column(row, 3) > column(row - 1, 3), "entities row {row}");
            assert!(column(row, 5) > column(row - 1, 5), "builds row {row}");
            assert_eq!(column(row, 4), column(row - 1, 4) + 1, "segments row {row}");
        }
        assert_eq!(column(4, 3), column(3, 3), "compaction conserves entities");
        assert!(column(4, 4) < column(3, 4), "compaction narrows fan-out");
    }

    #[test]
    fn scalability_search_time_grows_slower_for_lovo_than_qd_search() {
        let report = fig10_scalability(&[20.0, 150.0]);
        assert_eq!(report.rows.len(), 2);
        let parse = |s: &str| s.parse::<f64>().unwrap();
        let miris_small = parse(&report.rows[0].1[5]);
        let miris_large = parse(&report.rows[1].1[5]);
        let lovo_large: f64 = parse(&report.rows[1].1[7]);
        assert!(
            miris_large > miris_small * 1.5,
            "MIRIS search should grow with duration ({miris_small} -> {miris_large})"
        );
        // At the larger duration LOVO's search (which saturates at the fixed
        // top-k rerank budget) must be several times cheaper than QD-search.
        assert!(
            lovo_large * 3.0 < miris_large,
            "LOVO search {lovo_large}s should be well below MIRIS {miris_large}s"
        );
    }
}
