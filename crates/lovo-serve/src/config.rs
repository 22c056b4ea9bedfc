//! Service configuration: every serving knob in one place.

use std::time::Duration;

/// Configuration of a [`crate::QueryService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads executing engine batches, and the bound on engine
    /// passes in flight (a submitter that leads its own pass on an idle
    /// service counts against it too). Each pass drains one micro-batch and
    /// scans it on its own thread; a small pool (the default is 2) leaves
    /// the most room for coalescing.
    pub workers: usize,
    /// Admission-queue depth: submissions beyond this many *queued* (not yet
    /// picked up) requests are refused with [`crate::ServeError::Rejected`].
    pub queue_depth: usize,
    /// Micro-batch coalescing window. After picking up a submission, a worker
    /// keeps the batch open this long (or until [`ServeConfig::max_batch`])
    /// so concurrent arrivals share one engine pass. The worker polls the
    /// queue through the last millisecond of the window instead of sleeping
    /// (a sub-millisecond timed sleep is neither punctual nor steady), so a
    /// window costs that worker's core for up to a millisecond a batch.
    /// `Duration::ZERO` disables coalescing: every submission runs as its
    /// own engine call.
    pub batch_window: Duration,
    /// Upper bound on submissions coalesced into one engine pass.
    pub max_batch: usize,
    /// Total result-cache capacity in entries (split evenly across 8
    /// independently locked cache shards). `0` disables caching entirely.
    pub cache_capacity: usize,
    /// Background maintenance cadence. `None` disables the maintenance
    /// thread; with `Some(interval)` the service seals left-over growing
    /// rows and compacts undersized sealed segments that often, off the
    /// query path.
    pub maintenance_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 256,
            batch_window: Duration::from_micros(500),
            max_batch: 32,
            cache_capacity: 1024,
            maintenance_interval: Some(Duration::from_millis(500)),
        }
    }
}

impl ServeConfig {
    /// Builder-style worker-count override.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder-style admission-queue depth override.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Builder-style micro-batch window override (`Duration::ZERO` disables
    /// coalescing).
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Builder-style batch-size cap override.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Builder-style cache-capacity override (`0` disables the cache).
    pub fn with_cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Builder-style maintenance-interval override (`None` disables the
    /// maintenance thread).
    pub fn with_maintenance_interval(mut self, interval: Option<Duration>) -> Self {
        self.maintenance_interval = interval;
        self
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.workers == 0 {
            return Err("workers must be positive".into());
        }
        if self.queue_depth == 0 {
            return Err("queue_depth must be positive".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be positive".into());
        }
        if self.maintenance_interval == Some(Duration::ZERO) {
            // A zero wait returns at once: the thread would seal and compact
            // back to back, holding the store's locks in a loop.
            return Err(
                "maintenance_interval must be positive; use None to disable maintenance".into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn zeroed_knobs_are_rejected() {
        assert!(ServeConfig::default().with_workers(0).validate().is_err());
        assert!(ServeConfig::default()
            .with_queue_depth(0)
            .validate()
            .is_err());
        assert!(ServeConfig::default().with_max_batch(0).validate().is_err());
        let spin = ServeConfig::default()
            .with_maintenance_interval(Some(Duration::ZERO))
            .validate()
            .unwrap_err();
        assert!(spin.contains("None"), "{spin}");
        // A zero cache capacity is legal: it disables caching.
        assert!(ServeConfig::default()
            .with_cache_capacity(0)
            .validate()
            .is_ok());
    }

    #[test]
    fn builders_set_their_field() {
        let config = ServeConfig::default()
            .with_workers(4)
            .with_queue_depth(8)
            .with_batch_window(Duration::from_millis(2))
            .with_max_batch(16)
            .with_cache_capacity(64)
            .with_maintenance_interval(None);
        assert_eq!(config.workers, 4);
        assert_eq!(config.queue_depth, 8);
        assert_eq!(config.batch_window, Duration::from_millis(2));
        assert_eq!(config.max_batch, 16);
        assert_eq!(config.cache_capacity, 64);
        assert_eq!(config.maintenance_interval, None);
    }
}
