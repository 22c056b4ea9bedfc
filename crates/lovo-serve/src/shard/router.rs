//! The [`ShardRouter`]: compiles each spec once, prunes shards the plan
//! provably cannot match, scatter-gathers the two query stages across the
//! surviving shards, and merges per-shard answers into the single-engine
//! result order. Admission, batching, dedupe and caching are
//! [`crate::QueryService`]'s, which serves a router as it serves an engine.

use super::engine::{CoarseRequest, CoarseResponse, EngineShard, RerankRequest};
use super::placement::HashPlacement;
use super::{ShardError, ShardOutage};
use crate::service::Backend;
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
    /// Per-shard bound on coarse legs in flight: the next query that needs
    /// a full shard is refused with [`ShardError::Rejected`]. A safety bound,
    /// not request admission (that is [`crate::QueryService`]'s queue): a
    /// leg that overruns the gather deadline keeps running on its detached
    /// thread, which nothing in front of the router can see, so without
    /// this bound a hung shard would pile up threads without limit.
    pub shard_queue_depth: usize,
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
            .field("gather_timeout", &self.gather_timeout)
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shard_queue_depth: 64,
            gather_timeout: None,
            faults: None,
        }
    }
}

impl ShardConfig {
    /// Builder-style per-shard in-flight bound override.
    pub fn with_shard_queue_depth(mut self, depth: usize) -> Self {
        self.shard_queue_depth = depth;
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
    /// Coarse legs dispatched to shards.
    pub coarse_requests: u64,
    /// Rerank legs dispatched to shards.
    pub rerank_requests: u64,
    /// Shards skipped by placement/zone pruning, summed over queries.
    pub shards_pruned: u64,
    /// Shard legs lost mid-gather (fault, panic, error, or timeout).
    pub outages: u64,
    /// Queries refused because a target shard's in-flight bound was full.
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
}

impl ShardedResult {
    /// True when at least one shard was lost and the result is partial.
    pub fn is_degraded(&self) -> bool {
        !self.outages.is_empty()
    }
}

/// One scatter leg: the shard index and the work to run on it.
type Leg<R> = (usize, Box<dyn FnOnce() -> Result<R, String> + Send>);

/// Folds the (shard index, epoch) pairs of a plan's target set into the
/// single `u64` the service's result cache keys on (FNV-style). Any shard
/// entering or leaving the target set, or any target's epoch moving, changes
/// the fold — so a stale entry can never be served as fresh.
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
    placement: HashPlacement,
    planner: QueryPlanner,
    config: ShardConfig,
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
        placement: HashPlacement,
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
        let in_flight = Arc::new((0..shards.len()).map(|_| AtomicUsize::new(0)).collect());
        Ok(Self {
            shards,
            placement,
            planner: QueryPlanner::new(engine_config),
            config,
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
    /// shard's in-flight bound is full.
    pub fn query_plan(&self, plan: &QueryPlan) -> Result<ShardedResult, ShardError> {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let mut timings = QueryTimings::default();

        // --- Prune: placement + stored-range checks, no shard searched. ---
        let (targets, pruned) = self.target_shards(plan);
        self.counters
            .shards_pruned
            .fetch_add(pruned as u64, Ordering::Relaxed);

        // --- Scatter the coarse stage (in-flight bound, gather). ---
        let coarse_start = Instant::now();
        let (responses, mut outages) = self.scatter_coarse(plan, &targets)?;
        timings.fast_search_seconds = coarse_start.elapsed().as_secs_f64();

        let mut search_stats = SearchStats::default();
        for response in responses.iter().flatten() {
            search_stats.merge(&response.stats);
        }
        search_stats.shards_probed = responses.iter().flatten().count();
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
        Ok(ShardedResult { result, outages })
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

    /// Coarse scatter: the in-flight bound for every target, then a gather.
    /// Returns per-shard responses (indexed by shard) and the outages
    /// collected so far.
    fn scatter_coarse(
        &self,
        plan: &QueryPlan,
        targets: &[usize],
    ) -> Result<(Vec<Option<CoarseResponse>>, Vec<ShardOutage>), ShardError> {
        let mut responses: Vec<Option<CoarseResponse>> =
            (0..self.shards.len()).map(|_| None).collect();

        // Acquire every target's slot up front, releasing whatever was
        // already acquired on the first refusal — a rejected query does zero
        // shard work.
        let mut acquired: Vec<usize> = Vec::new();
        for &index in targets {
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

        let legs: Vec<Leg<CoarseResponse>> = targets
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
        Ok((responses, outages))
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
    /// thread releases its shard's in-flight slot once the leg settles
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
            // releasing the in-flight slot and a send into a channel whose
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

/// A router served behind [`crate::QueryService`]: the plan is compiled by the
/// router's planner, its epoch is the fold of its target shards' epochs (an
/// ingest invalidates exactly the plans that can see it), and a batch is
/// answered one plan after another.
impl Backend for ShardRouter {
    fn plan(&self, spec: &QuerySpec) -> QueryPlan {
        self.planner.plan(spec)
    }

    fn epoch(&self, plan: &QueryPlan) -> u64 {
        let (targets, _) = self.target_shards(plan);
        let epochs: Vec<u64> = targets
            .iter()
            .filter_map(|&index| self.shards.get(index).map(|shard| shard.epoch()))
            .collect();
        fold_target_epochs(&targets, &epochs)
    }

    fn answer(&self, plans: &[QueryPlan]) -> Result<Vec<ShardedResult>, String> {
        plans
            .iter()
            .map(|plan| self.query_plan(plan).map_err(|error| error.to_string()))
            .collect()
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
            shards_pruned: 8,
            outages: 9,
            rejected: 10,
        };
        let b = ShardStats {
            queries: 10,
            coarse_requests: 20,
            rerank_requests: 30,
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
