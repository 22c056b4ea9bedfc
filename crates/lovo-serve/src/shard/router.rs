//! The [`ShardRouter`]: compiles each spec once, prunes shards the plan
//! provably cannot match, scatter-gathers the two query stages across the
//! surviving shards, and merges per-shard answers into the single-engine
//! result order.

use super::engine::{CoarseRequest, CoarseResponse, EngineShard, RerankRequest};
use super::placement::Placement;
use super::{ShardError, ShardOutage};
use crate::cache::ResultCache;
use lovo_core::{
    aggregate, CoarseHit, FrameSeed, LovoConfig, QueryPlan, QueryPlanner, QueryResult, QuerySpec,
    QueryTimings, RankedObject, SearchStats,
};
use lovo_store::durability::FaultPlan;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`ShardRouter`].
#[derive(Clone)]
pub struct ShardConfig {
    /// Per-shard admission depth: at most this many queries may have a
    /// coarse leg in flight on one shard; the next is refused with
    /// [`ShardError::Rejected`].
    pub shard_queue_depth: usize,
    /// Capacity (entries) of each shard-local coarse-result cache, keyed by
    /// plan fingerprint + that shard's epoch. `0` disables caching.
    pub cache_capacity: usize,
    /// Capacity (entries) of the router-level merged-result cache, keyed by
    /// plan fingerprint + the epoch vector of the plan's target shards —
    /// a repeat query over unchanged shards skips the scatter (and the
    /// rerank) entirely. Degraded results are never cached. `0` disables it.
    pub result_cache_capacity: usize,
    /// Independently locked shards *within* each per-shard cache.
    pub cache_shards: usize,
    /// Deadline for each gather phase. A shard that has not answered in
    /// time is treated as an outage (degraded result), not an error. `None`
    /// waits indefinitely — only safe because every leg's thread sends
    /// exactly one message even when the shard panics. `Some(ZERO)` is
    /// refused: no leg could ever answer in time.
    pub gather_timeout: Option<Duration>,
    /// Deterministic fault plan consulted at the `shard.gather` point
    /// (chaos tests); checks compile out of release builds without the
    /// `failpoints` feature, exactly like the storage layer's I/O points.
    pub faults: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for ShardConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardConfig")
            .field("shard_queue_depth", &self.shard_queue_depth)
            .field("cache_capacity", &self.cache_capacity)
            .field("result_cache_capacity", &self.result_cache_capacity)
            .field("cache_shards", &self.cache_shards)
            .field("gather_timeout", &self.gather_timeout)
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shard_queue_depth: 64,
            cache_capacity: 256,
            result_cache_capacity: 256,
            cache_shards: 4,
            gather_timeout: None,
            faults: None,
        }
    }
}

impl ShardConfig {
    /// Builder-style per-shard admission-depth override.
    pub fn with_shard_queue_depth(mut self, depth: usize) -> Self {
        self.shard_queue_depth = depth;
        self
    }

    /// Builder-style per-shard cache-capacity override (`0` disables).
    pub fn with_cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Builder-style merged-result cache-capacity override (`0` disables).
    pub fn with_result_cache_capacity(mut self, entries: usize) -> Self {
        self.result_cache_capacity = entries;
        self
    }

    /// Builder-style gather-deadline override (`None` waits indefinitely).
    pub fn with_gather_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.gather_timeout = timeout;
        self
    }

    /// Builder-style fault-plan attachment (chaos tests).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.shard_queue_depth == 0 {
            return Err("shard_queue_depth must be positive".into());
        }
        if self.cache_shards == 0 {
            return Err("cache_shards must be positive".into());
        }
        if self.gather_timeout == Some(Duration::ZERO) {
            return Err(
                "gather_timeout must be positive: a zero deadline degrades every query \
                 (use None to wait without a deadline)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Cumulative router counters (monotonic; snapshot via
/// [`ShardRouter::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Queries routed (including provably-empty short-circuits).
    pub queries: u64,
    /// Coarse legs dispatched to shards (cache misses that passed
    /// admission).
    pub coarse_requests: u64,
    /// Rerank legs dispatched to shards.
    pub rerank_requests: u64,
    /// Coarse legs answered from a shard-local cache.
    pub cache_hits: u64,
    /// Coarse legs that missed their shard-local cache.
    pub cache_misses: u64,
    /// Queries answered whole from the merged-result cache (no scatter ran).
    pub result_hits: u64,
    /// Queries that missed the merged-result cache and were scattered.
    pub result_misses: u64,
    /// Shards skipped by placement/zone pruning, summed over queries.
    pub shards_pruned: u64,
    /// Shard legs lost mid-gather (fault, panic, error, or timeout).
    pub outages: u64,
    /// Queries refused because a target shard's admission queue was full.
    pub rejected: u64,
}

impl ShardStats {
    /// Folds another snapshot into this one (routers behind a balancer
    /// aggregate through this).
    ///
    /// Every counter in the struct must be folded here — the workspace
    /// `stats-merge` lint checks the field list against this body.
    pub fn merge(&mut self, other: &ShardStats) {
        self.queries = self.queries.saturating_add(other.queries);
        self.coarse_requests = self.coarse_requests.saturating_add(other.coarse_requests);
        self.rerank_requests = self.rerank_requests.saturating_add(other.rerank_requests);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.result_hits = self.result_hits.saturating_add(other.result_hits);
        self.result_misses = self.result_misses.saturating_add(other.result_misses);
        self.shards_pruned = self.shards_pruned.saturating_add(other.shards_pruned);
        self.outages = self.outages.saturating_add(other.outages);
        self.rejected = self.rejected.saturating_add(other.rejected);
    }
}

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    coarse_requests: AtomicU64,
    rerank_requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    shards_pruned: AtomicU64,
    outages: AtomicU64,
    rejected: AtomicU64,
}

/// One routed query's answer: the merged result plus the degradation
/// markers. `outages` empty means the answer is exact — bit-identical to a
/// single engine holding the whole corpus.
#[derive(Debug, Clone)]
pub struct ShardedResult {
    /// The merged query result (partial when `outages` is non-empty: exact
    /// for every surviving shard's videos).
    pub result: QueryResult,
    /// Shards lost mid-gather, with causes. Empty on a healthy gather.
    pub outages: Vec<ShardOutage>,
    /// Shards that contributed an answer (live or cached).
    pub shards_probed: usize,
    /// Shards skipped by placement/zone pruning.
    pub shards_pruned: usize,
    /// Coarse legs served from shard-local caches.
    pub coarse_cache_hits: usize,
    /// True when the whole answer came from the merged-result cache (no
    /// shard was contacted; `shards_probed` reports the original gather's
    /// fan-out).
    pub result_cache_hit: bool,
}

impl ShardedResult {
    /// True when at least one shard was lost and the result is partial.
    pub fn is_degraded(&self) -> bool {
        !self.outages.is_empty()
    }
}

/// One scatter leg: the shard index and the work to run on it.
type Leg<R> = (usize, Box<dyn FnOnce() -> Result<R, String> + Send>);

/// What the merged-result cache stores: the full assembled answer of one
/// healthy (outage-free) gather, plus its fan-out accounting.
#[derive(Clone)]
struct CachedRouted {
    result: QueryResult,
    shards_probed: usize,
    shards_pruned: usize,
}

/// Folds the (shard index, epoch) pairs of a plan's target set into the
/// single `u64` the [`ResultCache`] keys on (FNV-style). Any shard entering
/// or leaving the target set, or any target's epoch moving, changes the fold
/// — so a stale entry can never be served as fresh.
fn fold_target_epochs(targets: &[usize], epochs: &[u64]) -> u64 {
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for (&shard, &epoch) in targets.iter().zip(epochs) {
        for word in [shard as u64, epoch] {
            fold ^= word;
            fold = fold.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fold
}

/// Routes queries across N engine shards; see the module docs for the full
/// data flow. Cheap to share behind an `Arc`: all state is interior.
pub struct ShardRouter {
    shards: Vec<Arc<dyn EngineShard>>,
    placement: Arc<dyn Placement>,
    planner: QueryPlanner,
    config: ShardConfig,
    caches: Vec<ResultCache<CoarseResponse>>,
    results: ResultCache<CachedRouted>,
    in_flight: Arc<Vec<AtomicUsize>>,
    counters: Counters,
}

impl ShardRouter {
    /// Builds a router over `shards`, whose videos were placed by
    /// `placement` (shard counts must agree). `engine_config` must be the
    /// configuration the shard engines were built with: the router compiles
    /// every spec exactly once with an identical planner, so the plan a
    /// shard executes is the plan a single engine would have compiled.
    pub fn new(
        shards: Vec<Arc<dyn EngineShard>>,
        placement: Arc<dyn Placement>,
        engine_config: LovoConfig,
        config: ShardConfig,
    ) -> Result<Self, ShardError> {
        config.validate().map_err(ShardError::Config)?;
        if shards.is_empty() {
            return Err(ShardError::Config("at least one shard is required".into()));
        }
        if placement.shard_count() != shards.len() {
            return Err(ShardError::Config(format!(
                "placement places onto {} shards but {} were provided",
                placement.shard_count(),
                shards.len()
            )));
        }
        let caches = (0..shards.len())
            .map(|_| ResultCache::new(config.cache_capacity, config.cache_shards))
            .collect();
        let results = ResultCache::new(config.result_cache_capacity, config.cache_shards);
        let in_flight = Arc::new((0..shards.len()).map(|_| AtomicUsize::new(0)).collect());
        Ok(Self {
            shards,
            placement,
            planner: QueryPlanner::new(engine_config),
            config,
            caches,
            results,
            in_flight,
            counters: Counters::default(),
        })
    }

    /// Number of shards behind this router.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard ingest epochs, in shard order. The sharded generalization
    /// of a single engine's `ingest_epoch`: entry `s` moves exactly when
    /// shard `s`'s collection changes, so cache-freshness reasoning stays
    /// per-shard.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|shard| shard.epoch()).collect()
    }

    /// Snapshot of the cumulative router counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            coarse_requests: self.counters.coarse_requests.load(Ordering::Relaxed),
            rerank_requests: self.counters.rerank_requests.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            result_hits: self.counters.result_hits.load(Ordering::Relaxed),
            result_misses: self.counters.result_misses.load(Ordering::Relaxed),
            shards_pruned: self.counters.shards_pruned.load(Ordering::Relaxed),
            outages: self.counters.outages.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
        }
    }

    /// Compiles the spec once and routes it; see [`ShardRouter::query_plan`].
    pub fn query_spec(&self, spec: &QuerySpec) -> Result<ShardedResult, ShardError> {
        let plan = self.planner.plan(spec);
        self.query_plan(&plan)
    }

    /// Routes an already-compiled plan: prune → scatter coarse → merge →
    /// scatter rerank → merge. Returns a degraded partial result (never an
    /// error) when shards are lost mid-gather; returns
    /// [`ShardError::Rejected`] without touching any shard when a target
    /// shard's admission queue is full.
    pub fn query_plan(&self, plan: &QueryPlan) -> Result<ShardedResult, ShardError> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let mut timings = QueryTimings::default();

        // --- Prune: placement + stored-range checks, no shard searched. ---
        let (targets, pruned) = self.target_shards(plan);
        self.counters
            .shards_pruned
            .fetch_add(pruned as u64, Ordering::Relaxed);

        // --- Merged-result cache: a repeat plan over unchanged target
        // shards skips the scatter (and the rerank) entirely. Epochs are
        // read before any shard work, so an ingest landing mid-gather makes
        // the stored key conservatively stale, never falsely fresh. ---
        let fingerprint = plan.fingerprint();
        let target_epochs: Vec<u64> = targets
            .iter()
            .filter_map(|&index| self.shards.get(index).map(|shard| shard.epoch()))
            .collect();
        let epoch_key = fold_target_epochs(&targets, &target_epochs);
        if let Some(cached) = self.results.get(fingerprint, plan, epoch_key) {
            self.counters.result_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(ShardedResult {
                result: cached.result,
                outages: Vec::new(),
                shards_probed: cached.shards_probed,
                shards_pruned: cached.shards_pruned,
                coarse_cache_hits: 0,
                result_cache_hit: true,
            });
        }
        self.counters.result_misses.fetch_add(1, Ordering::Relaxed);

        // --- Scatter the coarse stage (cache, admission, gather). ---
        let coarse_start = Instant::now();
        let (responses, coarse_cache_hits, mut outages) = self.scatter_coarse(plan, &targets)?;
        timings.fast_search_seconds = coarse_start.elapsed().as_secs_f64();

        let shards_probed = responses.iter().filter(|r| r.is_some()).count();
        let mut search_stats = SearchStats::default();
        for response in responses.iter().flatten() {
            search_stats.merge(&response.stats);
        }
        search_stats.shards_probed = shards_probed;
        search_stats.shards_pruned = pruned;

        // --- Aggregate through the engine's own implementation: merge the
        // per-shard top-k into the single-engine candidate order, group into
        // candidate frames, rerank on each frame's owning shard, and merge
        // globally. ---
        let hit_lists: Vec<Vec<CoarseHit>> = responses
            .into_iter()
            .flatten()
            .map(|response| response.hits)
            .collect();
        let result = aggregate(plan, hit_lists, search_stats, timings, |seeds| {
            Ok::<_, ShardError>(self.scatter_rerank(plan, seeds, &mut outages))
        })?;

        self.counters
            .outages
            .fetch_add(outages.len() as u64, Ordering::Relaxed);

        // Only healthy answers are cacheable: a degraded result is partial,
        // and serving it after the lost shard recovers would be a lie.
        if outages.is_empty() {
            self.results.put(
                fingerprint,
                plan,
                epoch_key,
                CachedRouted {
                    result: result.clone(),
                    shards_probed,
                    shards_pruned: pruned,
                },
            );
        }
        Ok(ShardedResult {
            result,
            outages,
            shards_probed,
            shards_pruned: pruned,
            coarse_cache_hits,
            result_cache_hit: false,
        })
    }

    /// The shards a plan must visit, and how many were pruned. A shard
    /// survives only if the plan's video predicate places at least one
    /// video onto it *and* the shard's stored range can contain one of
    /// them; unfiltered plans visit every non-empty shard. Provably-empty
    /// plans visit none.
    fn target_shards(&self, plan: &QueryPlan) -> (Vec<usize>, usize) {
        let total = self.shards.len();
        if plan.provably_empty {
            return (Vec::new(), total);
        }
        let videos = plan.patch_predicate.video_ids.as_ref();
        let mut targets = Vec::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let matched = match videos {
                Some(set) => {
                    set.iter().any(|&v| self.placement.shard_of(v) == index)
                        && match shard.video_range() {
                            Some((lo, hi)) => set.iter().any(|&v| lo <= v && v <= hi),
                            None => false,
                        }
                }
                None => shard.video_range().is_some(),
            };
            if matched {
                targets.push(index);
            }
        }
        let pruned = total - targets.len();
        (targets, pruned)
    }

    /// Coarse scatter: per-shard cache lookups, admission for the misses,
    /// then a gather. Returns per-shard responses (indexed by shard), the
    /// cache-hit count, and the outages collected so far.
    #[allow(clippy::type_complexity)]
    fn scatter_coarse(
        &self,
        plan: &QueryPlan,
        targets: &[usize],
    ) -> Result<(Vec<Option<CoarseResponse>>, usize, Vec<ShardOutage>), ShardError> {
        let fingerprint = plan.fingerprint();
        let mut responses: Vec<Option<CoarseResponse>> =
            (0..self.shards.len()).map(|_| None).collect();
        let mut cache_hits = 0usize;
        let mut misses: Vec<usize> = Vec::new();

        for &index in targets {
            let Some((shard, cache)) = self.shards.get(index).zip(self.caches.get(index)) else {
                continue;
            };
            let epoch = shard.epoch();
            match cache.get(fingerprint, plan, epoch) {
                Some(hit) => {
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    cache_hits += 1;
                    if let Some(slot) = responses.get_mut(index) {
                        *slot = Some(hit);
                    }
                }
                None => {
                    self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                    misses.push(index);
                }
            }
        }

        // Admission: acquire every missing shard's slot up front, releasing
        // whatever was already acquired on the first refusal — a rejected
        // query does zero shard work.
        let mut acquired: Vec<usize> = Vec::new();
        for &index in &misses {
            if self.try_admit(index) {
                acquired.push(index);
            } else {
                for &held in &acquired {
                    self.release(held);
                }
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ShardError::Rejected {
                    shard: index,
                    queue_depth: self.config.shard_queue_depth,
                });
            }
        }

        let legs: Vec<Leg<CoarseResponse>> = misses
            .iter()
            .map(|&index| {
                let shard = self.shards.get(index).cloned();
                let faults = self.config.faults.clone();
                let request = CoarseRequest { plan: plan.clone() };
                let work: Box<dyn FnOnce() -> Result<CoarseResponse, String> + Send> =
                    Box::new(move || {
                        if let Some(reason) = injected_outage(&faults, index) {
                            return Err(reason);
                        }
                        shard
                            .ok_or_else(|| "shard index out of range".to_string())?
                            .coarse(&request)
                    });
                (index, work)
            })
            .collect();
        self.counters
            .coarse_requests
            .fetch_add(legs.len() as u64, Ordering::Relaxed);

        let mut outages = Vec::new();
        for (index, outcome) in self.gather(legs, Some(&self.in_flight)) {
            match outcome {
                Ok(response) => {
                    if let Some(cache) = self.caches.get(index) {
                        cache.put(fingerprint, plan, response.epoch, response.clone());
                    }
                    if let Some(slot) = responses.get_mut(index) {
                        *slot = Some(response);
                    }
                }
                Err(reason) => outages.push(ShardOutage {
                    shard: index,
                    reason,
                }),
            }
        }
        Ok((responses, cache_hits, outages))
    }

    /// Rerank scatter: partitions the surviving candidate frames by owning
    /// shard and gathers each shard's reranked list. A failed rerank leg
    /// degrades (its frames are dropped and an outage is recorded), exactly
    /// like a failed coarse leg.
    fn scatter_rerank(
        &self,
        plan: &QueryPlan,
        seeds: &[FrameSeed],
        outages: &mut Vec<ShardOutage>,
    ) -> Vec<Vec<RankedObject>> {
        let mut per_shard: HashMap<usize, Vec<FrameSeed>> = HashMap::new();
        for seed in seeds {
            per_shard
                .entry(self.placement.shard_of(seed.video_id))
                .or_default()
                .push(*seed);
        }
        if per_shard.is_empty() {
            return Vec::new();
        }
        let legs: Vec<Leg<Vec<RankedObject>>> = per_shard
            .into_iter()
            .map(|(index, frames)| {
                let shard = self.shards.get(index).cloned();
                let request = RerankRequest {
                    plan: plan.clone(),
                    frames,
                };
                let work: Box<dyn FnOnce() -> Result<Vec<RankedObject>, String> + Send> =
                    Box::new(move || {
                        shard
                            .ok_or_else(|| "shard index out of range".to_string())?
                            .rerank(&request)
                            .map(|response| response.frames)
                    });
                (index, work)
            })
            .collect();
        self.counters
            .rerank_requests
            .fetch_add(legs.len() as u64, Ordering::Relaxed);
        let mut lists = Vec::new();
        for (index, outcome) in self.gather(legs, None) {
            match outcome {
                Ok(list) => lists.push(list),
                Err(reason) => outages.push(ShardOutage {
                    shard: index,
                    reason,
                }),
            }
        }
        lists
    }

    /// Runs every leg on a thread of its own under `catch_unwind`, and
    /// returns one outcome per leg: a panicking leg reports an outage string
    /// instead of poisoning the router. When `permits` is given, a leg's
    /// thread releases its shard's admission slot once the leg settles
    /// (success, error or panic alike). A leg that has not reported when the
    /// gather deadline passes comes back as `gather deadline exceeded`; its
    /// detached thread still releases the slot when the slow shard
    /// eventually finishes — the shard really is still busy.
    fn gather<R: Send + 'static>(
        &self,
        legs: Vec<Leg<R>>,
        permits: Option<&Arc<Vec<AtomicUsize>>>,
    ) -> Vec<(usize, Result<R, String>)> {
        let expected: Vec<usize> = legs.iter().map(|(index, _)| *index).collect();
        let (sender, receiver) = mpsc::channel::<(usize, Result<R, String>)>();
        for (index, work) in legs {
            let sender = sender.clone();
            let permits = permits.cloned();
            // Detached on purpose: a hung shard must not hang the router.
            // The thread's only side effects after the deadline passes are
            // releasing the admission slot and a send into a channel whose
            // receiver may be gone (ignored).
            std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(work))
                    .unwrap_or_else(|_| Err("shard leg panicked mid-gather".into()));
                if let Some(permit) = permits.as_ref().and_then(|slots| slots.get(index)) {
                    permit.fetch_sub(1, Ordering::SeqCst);
                }
                let _ = sender.send((index, outcome));
            });
        }
        drop(sender);

        let deadline = self
            .config
            .gather_timeout
            .map(|timeout| Instant::now() + timeout);
        let mut gathered = Vec::with_capacity(expected.len());
        while gathered.len() < expected.len() {
            let message = match deadline {
                None => receiver.recv().ok(),
                Some(deadline) => receiver
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .ok(),
            };
            let Some(message) = message else { break };
            gathered.push(message);
        }
        for index in expected {
            if !gathered.iter().any(|(answered, _)| *answered == index) {
                gathered.push((index, Err("gather deadline exceeded".into())));
            }
        }
        gathered
    }

    fn try_admit(&self, index: usize) -> bool {
        let Some(slot) = self.in_flight.get(index) else {
            return false;
        };
        let depth = self.config.shard_queue_depth;
        slot.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |current| {
            (current < depth).then_some(current + 1)
        })
        .is_ok()
    }

    fn release(&self, index: usize) {
        if let Some(slot) = self.in_flight.get(index) {
            slot.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Consults the fault plan at the `shard.gather` point: first the
/// shard-targeted name (`shard.gather.<index>`, letting chaos tests pick
/// their victim deterministically), then the generic point. Compiled out of
/// release builds without the `failpoints` feature, like the storage
/// layer's I/O fault checks.
fn injected_outage(faults: &Option<Arc<FaultPlan>>, shard: usize) -> Option<String> {
    #[cfg(any(debug_assertions, feature = "failpoints"))]
    {
        use lovo_store::durability::points;
        if let Some(plan) = faults {
            let targeted = format!("{}.{shard}", points::SHARD_GATHER);
            if plan.take(&targeted).is_some() || plan.take(points::SHARD_GATHER).is_some() {
                return Some(format!("injected fault: {}", points::SHARD_GATHER));
            }
        }
        None
    }
    #[cfg(not(any(debug_assertions, feature = "failpoints")))]
    {
        let _ = (faults, shard);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_stats_merge_covers_every_field() {
        // Every field distinct and nonzero on both sides, so a dropped line
        // in merge() fails an assertion (belt to the analyzer's braces).
        let mut a = ShardStats {
            queries: 1,
            coarse_requests: 2,
            rerank_requests: 3,
            cache_hits: 4,
            cache_misses: 5,
            result_hits: 6,
            result_misses: 7,
            shards_pruned: 8,
            outages: 9,
            rejected: 10,
        };
        let b = ShardStats {
            queries: 10,
            coarse_requests: 20,
            rerank_requests: 30,
            cache_hits: 40,
            cache_misses: 50,
            result_hits: 60,
            result_misses: 70,
            shards_pruned: 80,
            outages: 90,
            rejected: 100,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ShardStats {
                queries: 11,
                coarse_requests: 22,
                rerank_requests: 33,
                cache_hits: 44,
                cache_misses: 55,
                result_hits: 66,
                result_misses: 77,
                shards_pruned: 88,
                outages: 99,
                rejected: 110,
            }
        );
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = ShardStats {
            queries: u64::MAX,
            ..ShardStats::default()
        };
        a.merge(&ShardStats {
            queries: 5,
            ..ShardStats::default()
        });
        assert_eq!(a.queries, u64::MAX);
    }

    #[test]
    fn config_validation_rejects_zeroed_knobs() {
        assert!(ShardConfig::default().validate().is_ok());
        assert!(ShardConfig::default()
            .with_shard_queue_depth(0)
            .validate()
            .is_err());
        // Zero cache capacity is legal: it disables the per-shard caches.
        assert!(ShardConfig::default()
            .with_cache_capacity(0)
            .validate()
            .is_ok());
        // A zero gather deadline would degrade every query; `None` is the
        // way to wait without one.
        let zero = ShardConfig::default()
            .with_gather_timeout(Some(Duration::ZERO))
            .validate();
        assert!(zero.is_err_and(|message| message.contains("None")));
        assert!(ShardConfig::default()
            .with_gather_timeout(None)
            .validate()
            .is_ok());
    }
}
