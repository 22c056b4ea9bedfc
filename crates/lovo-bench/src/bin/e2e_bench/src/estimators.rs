//! The estimators every timing metric of the benchmark goes through, plus the
//! `/proc/self` readers. Defined once so no metric grows its own variant.
//!
//! On the 2-vCPU shared host this benchmark was written on, pooled wall-clock
//! statistics (mean, p50, whole-run QPS) of one binary swing 11–33 % between
//! runs, because the noise is one-sided: a sample is only ever made *slower*
//! by a neighbour or a descheduled thread. The estimators here therefore read
//! the fast side of each distribution, per distinct operation ([`STEADY`]).

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile: the smallest sample such that at least `p` of the
/// samples are less than or equal to it. `p` is a share in `[0, 1]`; `None`
/// for an empty input.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// The median: the middle sample, or the mean of the two middle samples of
/// an even count (a nearest-rank p50 of two samples would be their minimum).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let upper = *sorted.get(sorted.len() / 2)?;
    let lower = sorted[(sorted.len() - 1) / 2];
    Some((lower + upper) / 2.0)
}

/// The share of a class's samples (and of a phase's rounds) at or below its
/// steady time: the nearest-rank 10th percentile. The reference host slows
/// identical ops in dense bursts of 0.3–1 s with quiet gaps between them; over
/// ten-second windows of one repeated query the minimum moved 9 %, the 10th
/// percentile 17 %, the lower quartile 29 % and the median 33 %. The 10th
/// percentile is the lowest that is not a single sample once a class has the
/// twenty samples every measured phase gives it.
pub const STEADY: f64 = 0.10;

/// Samples grouped by *op class*: one distinct input plus its served outcome.
/// Keys are ordered so every derived number is independent of arrival order.
#[derive(Debug, Clone)]
pub struct ClassSamples<K: Ord> {
    classes: BTreeMap<K, Vec<f64>>,
}

// Not derived: an empty map needs no `K: Default`.
impl<K: Ord> Default for ClassSamples<K> {
    fn default() -> Self {
        Self {
            classes: BTreeMap::new(),
        }
    }
}

impl<K: Ord> ClassSamples<K> {
    pub fn record(&mut self, class: K, sample: f64) {
        self.classes.entry(class).or_default().push(sample);
    }

    /// Number of samples over all classes.
    pub fn count(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// The steady time of the whole phase: Σ count × class steady time, the
    /// *steady time* of a class being the [`STEADY`] percentile of its
    /// samples. Zero for an empty phase.
    pub fn steady_total(&self) -> f64 {
        self.classes
            .values()
            .filter_map(|s| percentile(s, STEADY).map(|fast| fast * s.len() as f64))
            .sum()
    }

    /// Every sample, pooled (diagnostics only: never gated).
    pub fn pooled(&self) -> Vec<f64> {
        self.classes.values().flatten().copied().collect()
    }
}

/// The *steady rate*: ops per round over the [`STEADY`] percentile of the
/// round wall times. `None` when no round completed or the percentile is not
/// positive.
pub fn steady_rate(ops_per_round: usize, round_walls: &[f64]) -> Option<f64> {
    percentile(round_walls, STEADY)
        .filter(|wall| *wall > 0.0)
        .map(|wall| ops_per_round as f64 / wall)
}

/// Linux reports `utime`/`stime` in clock ticks of `sysconf(_SC_CLK_TCK)`,
/// which is 100 on every Linux ABI this repository targets; without `libc`
/// the constant stands in for the call.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_SECOND)
}

/// Peak resident set size in MB out of `/proc/<pid>/status` (`VmHWM`, kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds of `steal` on the aggregate `cpu` line of `/proc/stat`: how long a
/// vCPU of this guest was ready to run while the hypervisor ran something
/// else. It is the one direct reading of a noisy neighbour a guest gets.
pub fn parse_steal_seconds(stat: &str) -> Option<f64> {
    let mut fields = stat.lines().next()?.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal
    let steal: f64 = fields.nth(7)?.parse().ok()?;
    Some(steal / CLOCK_TICKS_PER_SECOND)
}

/// Steal seconds of this machine since boot; 0 where the kernel reports none.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_steal_seconds(&stat))
        .unwrap_or(0.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Milliseconds a fixed dot-product loop takes right now. Timed before and
/// after each phase: when it moves and the code did not, the host moved.
pub fn calib_ms() -> f64 {
    let a: Vec<f32> = (0..4096).map(|i| (i % 97) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..4096).map(|i| (i % 89) as f32 * 0.02).collect();
    let start = Instant::now();
    let mut acc = 0.0f32;
    for _ in 0..2000 {
        let (a, b) = (std::hint::black_box(&a), std::hint::black_box(&b));
        acc += a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_input_is_none() {
        assert_eq!(percentile(&[], 0.25), None);
        assert_eq!(steady_rate(10, &[]), None);
        let empty: ClassSamples<u32> = ClassSamples::default();
        assert_eq!(empty.steady_total(), 0.0);
        assert_eq!(empty.count(), 0);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for p in [0.0, 0.1, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.5], p), Some(7.5));
        }
        assert_eq!(steady_rate(3, &[1.5]), Some(2.0));
    }

    #[test]
    fn percentile_is_nearest_rank_and_order_independent() {
        let samples = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 0.10), Some(1.0));
        assert_eq!(percentile(&samples, 0.25), Some(3.0));
        assert_eq!(percentile(&samples, 0.50), Some(5.0));
        assert_eq!(percentile(&samples, 0.99), Some(10.0));
        assert_eq!(percentile(&samples, 1.0), Some(10.0));
    }

    #[test]
    fn median_of_an_even_count_is_the_mean_of_the_middle_two() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[8.0, 2.0, 4.0, 6.0]), Some(5.0));
        assert_eq!(median(&[5.0, 1.0, 2.0, 4.0, 3.0]), Some(3.0));
    }

    #[test]
    fn ties_do_not_move_the_percentile() {
        assert_eq!(percentile(&[2.0, 2.0, 2.0, 2.0], 0.25), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 2.0, 2.0, 9.0], 0.5), Some(2.0));
    }

    #[test]
    fn steady_total_weights_each_class_by_its_count() {
        let mut samples = ClassSamples::default();
        // Class 0: twenty samples, 10th percentile the second fastest.
        for s in 0..20 {
            samples.record(0u32, if s < 2 { 1.0 + s as f64 } else { 50.0 });
        }
        // Class 1: one sample.
        samples.record(1u32, 10.0);
        assert_eq!(samples.count(), 21);
        assert_eq!(samples.steady_total(), 20.0 * 2.0 + 10.0);
        assert_eq!(samples.pooled().len(), 21);
    }

    #[test]
    fn steady_rate_reads_the_fast_rounds() {
        // Ten rounds: the 10th percentile is the fastest one.
        let walls: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(steady_rate(12, &walls), Some(12.0));
        assert_eq!(steady_rate(12, &[0.0]), None);
    }

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let stat = "4242 (e2e bench) x) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 2 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(2.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        let status = "Name:\te2e\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
        let stat =
            "cpu  1258491 0 31368 1547730 10460 0 4039 5960 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_seconds(stat), Some(59.6));
        assert_eq!(parse_steal_seconds("cpu0 1 2 3 4 5 6 7 8 9 10"), None);
        assert_eq!(parse_steal_seconds("cpu 1 2 3"), None);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        assert!(calib_ms() > 0.0);
    }
}
