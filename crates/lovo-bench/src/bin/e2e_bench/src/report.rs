//! The metric tables — the names every later performance or simplicity claim
//! is judged by — and the JSON a run prints. `BENCHMARK.json` repeats these
//! tables; a test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Which way is good. The gate reads it from `BENCHMARK.json`; here it
    /// documents the table and is checked against that file by a test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
    /// Work counters and quality scores: identical on every run of the same
    /// code and inputs, so they may be claimed as counts.
    pub exact: bool,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn time(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by every workload. The quality
/// bounds are tight because those metrics are exact. The timing bounds are
/// the widest the gate allows: ten runs under ten seeds spread 2–7 % on the
/// query metrics while the reference host is quiet and 10–40 % on its busy
/// afternoons (README, "Measured spreads"), and a bound inside that would
/// reject unchanged code.
pub const END_TO_END: [MetricDef; 8] = [
    gated("query_ms", "ms", Lower, 0.25, false),
    gated("query_qps", "1/s", Higher, 0.25, false),
    gated("avep", "score", Higher, 0.005, true),
    gated("recall_vs_exact", "share", Higher, 0.005, true),
    gated("ingest_fps", "1/s", Higher, 0.25, false),
    gated("bytes_per_patch", "B", Lower, 0.01, true),
    gated("peak_rss_mb", "MB", Lower, 0.05, false),
    gated("setup_s", "s", Lower, 0.25, false),
];

/// Single layers, from the traced pass. No bounds: they explain a movement
/// of an end-to-end metric, they do not gate.
pub const PER_LAYER: [MetricDef; 45] = [
    time("core.plan_us", "us"),
    time("core.group_us", "us"),
    time("core.aggregate_us", "us"),
    time("core.query_self_us", "us"),
    count("core.frames_reranked", "count", Lower),
    time("core.ingest_self_ms", "ms"),
    time("encoder.text_us", "us"),
    time("encoder.rerank_ms", "ms"),
    time("encoder.rerank_us_per_frame", "us"),
    time("encoder.visual_ms_per_keyframe", "ms"),
    time("video.keyframe_us_per_frame", "us"),
    count("video.keyframe_share", "share", Lower),
    time("video.wire_encode_us_per_keyframe", "us"),
    time("store.resolve_filter_us", "us"),
    time("store.search_us", "us"),
    count("store.segments_probed", "count", Lower),
    count("store.segments_pruned", "count", Higher),
    time("store.insert_us_per_patch", "us"),
    time("store.seal_ms_per_segment", "ms"),
    count("store.sealed_segments", "count", Lower),
    count("store.wal_bytes_per_patch", "B", Lower),
    count("store.disk_bytes_per_patch", "B", Lower),
    time("store.reopen_ms", "ms"),
    count("store.rows_lost", "count", Lower),
    count("index.vectors_scored", "count", Lower),
    count("index.cells_probed", "count", Lower),
    count("index.exact_rescored", "count", Lower),
    count("index.heap_pushes", "count", Lower),
    count("index.filtered_out", "count", Higher),
    time("index.scan_ns_per_vector", "ns"),
    count("serve.cache_hit_share", "share", Higher),
    time("serve.hit_us", "us"),
    time("serve.miss_overhead_us", "us"),
    time("serve.queue_wait_us", "us"),
    count("serve.engine_queries", "count", Lower),
    count("serve.engine_batches", "count", Lower),
    count("serve.coalesced", "count", Higher),
    count("serve.rejected", "count", Lower),
    count("serve.stale_evictions", "count", Lower),
    time("client.query_p50_ms", "ms"),
    time("client.query_p99_ms", "ms"),
    MetricDef {
        // Grows with the passes that fit in `--seconds`: a count, not exact.
        exact: false,
        ..count("client.samples", "count", Higher)
    },
    time("trace.overhead_share", "share"),
    time("machine.calib_ms", "ms"),
    count("machine.nproc", "count", Higher),
];

/// Named values of one run.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every entry of `table`. A metric the run did
/// not produce, or one that is not a finite number, is an error — never a
/// silently missing key.
pub fn result_line(
    table: &[MetricDef],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for def in table {
        let value = values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", def.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    ))
}

/// A flat JSON object of numbers (context and diagnostics lines).
pub fn number_object(values: impl Iterator<Item = (String, f64)>) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in values.enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {}",
            if i == 0 { "" } else { ", " },
            if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            }
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        for def in &END_TO_END {
            values.set(def.name, 1.5);
        }
        let line = result_line(&END_TO_END, &values, 10, 0).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let failed = result_line(&END_TO_END, &values, 10, 2).unwrap();
        assert!(failed.starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_an_error() {
        let mut values = Values::default();
        assert!(result_line(&END_TO_END, &values, 1, 0).is_err());
        for def in &END_TO_END {
            values.set(def.name, 1.0);
        }
        values.set("query_ms", f64::NAN);
        assert!(result_line(&END_TO_END, &values, 1, 0).is_err());
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(def.name), "{}", def.name);
            assert!(ok_unit(def.unit), "{}", def.unit);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
