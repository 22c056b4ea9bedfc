//! # lovo-bench
//!
//! Figure and table reproduction binaries for the LOVO reproduction
//! (`src/bin/*.rs`): one per table/figure of the paper, each a thin wrapper
//! around the corresponding `lovo_eval::experiments` runner that prints the
//! same rows the paper reports. Run them with
//! `cargo run -p lovo-bench --release --bin <name>`. Every binary accepts an
//! optional scale factor as its first argument (default 1.0).
//!
//! Timing has one harness: the stand-alone `e2e_bench` package under
//! `src/bin/e2e_bench/`, which reports end-to-end and per-layer metrics.

/// Reads the experiment scale factor from the first CLI argument,
/// defaulting to 1.0 and clamping to `[0.01, 1]`. An unparseable value warns
/// on stderr rather than silently running at full scale.
pub fn scale_from_args() -> f64 {
    std::env::args()
        .nth(1)
        .and_then(|s| match s.parse::<f64>() {
            Ok(v) => Some(v),
            Err(_) => {
                eprintln!("warning: ignoring non-numeric scale {s:?}; running at 1.0");
                None
            }
        })
        .map(|s| s.clamp(0.01, 1.0))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_defaults_to_one() {
        // The test harness's argv[1], if any, is a libtest flag or filter,
        // not a number.
        assert_eq!(super::scale_from_args(), 1.0);
    }
}
