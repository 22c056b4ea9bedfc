//! Adapter exposing `lovo_core::Lovo` through the [`ObjectQuerySystem`] trait
//! so the evaluation harness can compare it head-to-head with the baselines.
//!
//! The modeled latency calibration follows the paper's reported magnitudes:
//! video processing is dominated by the visual encoder at ≈0.08 s per key
//! frame (Fig. 11(a)); the fast search costs its real wall-clock (it is a real
//! index probe in this reproduction too); the cross-modality rerank is modeled
//! at ≈0.9 s per candidate frame (Fig. 11(d) reports ≈1 s per key frame).

use crate::{ObjectQuerySystem, PreprocessReport, QueryResponse, RankedHit};
use lovo_core::{Lovo, LovoConfig, QuerySpec};
use lovo_video::query::ObjectQuery;
use lovo_video::VideoCollection;
use std::time::Instant;

/// Modeled visual-encoding cost per key frame in seconds (Fig. 11(a)).
pub const PROCESSING_SECONDS_PER_KEYFRAME: f64 = 0.08;
/// Modeled cross-modality rerank cost per candidate frame in seconds (Fig. 11(d)).
pub const RERANK_SECONDS_PER_FRAME: f64 = 0.9;

/// LOVO behind the common evaluation trait.
pub struct LovoSystem {
    config: LovoConfig,
    system: Option<Lovo>,
}

impl Default for LovoSystem {
    fn default() -> Self {
        Self::new(LovoConfig::default())
    }
}

impl LovoSystem {
    /// Creates the adapter with an explicit configuration (the ablation and
    /// ANN-variant experiments pass non-default configurations here).
    pub fn new(config: LovoConfig) -> Self {
        Self {
            config,
            system: None,
        }
    }

    /// Borrow the built system, if `preprocess` has run.
    pub fn inner(&self) -> Option<&Lovo> {
        self.system.as_ref()
    }
}

impl ObjectQuerySystem for LovoSystem {
    fn name(&self) -> &'static str {
        "LOVO"
    }

    fn preprocess(&mut self, videos: &VideoCollection) -> PreprocessReport {
        let start = Instant::now();
        let system = Lovo::build(videos, self.config).expect("LOVO build failed");
        let stats = system.ingest_stats();
        self.system = Some(system);
        PreprocessReport {
            wall_seconds: start.elapsed().as_secs_f64(),
            modeled_seconds: stats.key_frames as f64 * PROCESSING_SECONDS_PER_KEYFRAME
                + stats.indexing_seconds,
            frames_processed: stats.key_frames,
        }
    }

    fn query(&self, _videos: &VideoCollection, query: &ObjectQuery, top: usize) -> QueryResponse {
        let Some(system) = &self.system else {
            return QueryResponse {
                supported: false,
                ..Default::default()
            };
        };
        let start = Instant::now();
        let spec =
            QuerySpec::new(query.text.as_str()).with_k(system.config().fast_search_k.max(top));
        let result = system.query_spec(&spec).expect("LOVO query failed");
        let hits = result
            .frames
            .iter()
            .take(top)
            .map(|f| RankedHit {
                video_id: f.video_id,
                frame_index: f.frame_index,
                bbox: f.bbox,
                score: f.score,
            })
            .collect();
        let modeled_seconds = result.timings.text_encoding_seconds
            + result.timings.fast_search_seconds
            + result.reranked_frames as f64 * RERANK_SECONDS_PER_FRAME;
        QueryResponse {
            hits,
            wall_seconds: start.elapsed().as_secs_f64(),
            modeled_seconds,
            supported: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_video::query::{QueryComplexity, QueryConstraints};
    use lovo_video::{Color, DatasetConfig, DatasetKind, Location, ObjectClass};

    fn videos() -> VideoCollection {
        VideoCollection::generate(
            DatasetConfig::for_kind(DatasetKind::Bellevue)
                .with_frames_per_video(240)
                .with_seed(13),
        )
    }

    fn red_center_query() -> ObjectQuery {
        ObjectQuery::new(
            "Q2.1",
            "A red car driving in the center of the road.",
            QueryConstraints {
                class: Some(ObjectClass::Car),
                color: Some(Color::Red),
                location: Some(Location::RoadCenter),
                ..Default::default()
            },
            QueryComplexity::Normal,
        )
    }

    #[test]
    fn adapter_builds_and_answers() {
        let collection = videos();
        let mut lovo = LovoSystem::default();
        let pre = lovo.preprocess(&collection);
        assert!(pre.frames_processed > 0);
        assert!(pre.modeled_seconds > 0.0);
        let response = lovo.query(&collection, &red_center_query(), 10);
        assert!(response.supported);
        assert!(!response.hits.is_empty());
        assert!(response.modeled_seconds > 0.0);
    }

    #[test]
    fn unbuilt_adapter_reports_unsupported() {
        let collection = videos();
        let lovo = LovoSystem::default();
        let response = lovo.query(&collection, &red_center_query(), 10);
        assert!(!response.supported);
        assert!(response.hits.is_empty());
    }

    #[test]
    fn search_cost_is_far_below_qd_search() {
        let collection = videos();
        let mut lovo = LovoSystem::default();
        lovo.preprocess(&collection);
        let lovo_cost = lovo
            .query(&collection, &red_center_query(), 10)
            .modeled_seconds;
        let miris_cost = crate::Miris::new()
            .query(&collection, &red_center_query(), 10)
            .modeled_seconds;
        assert!(
            lovo_cost * 2.0 < miris_cost,
            "LOVO {lovo_cost:.1}s should be far below MIRIS {miris_cost:.1}s"
        );
    }
}
