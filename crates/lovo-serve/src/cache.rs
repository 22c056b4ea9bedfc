//! The sharded, epoch-invalidated result cache.
//!
//! Entries are keyed by the plan fingerprint
//! ([`lovo_core::QueryPlan::fingerprint`]) — text, effective `k`, rerank and
//! output budgets, and the *flattened* predicate — so syntactically different
//! specs that normalize to the same plan share one entry. Every entry is
//! stamped with the engine's ingest epoch it was computed under
//! ([`lovo_core::Lovo::ingest_epoch`]); a lookup whose
//! current epoch differs evicts the entry and reports a miss, which is what
//! makes stale hits across an ingest impossible: the epoch is bumped by every
//! insert, seal and compaction *before* the mutation becomes searchable to a
//! later query.

use lovo_core::{QueryPlan, QueryResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

struct Entry {
    /// The plan the entry answers, kept to turn a (astronomically unlikely)
    /// 64-bit fingerprint collision into a miss instead of a wrong answer.
    plan: QueryPlan,
    epoch: u64,
    result: QueryResult,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// Sharded LRU of query results keyed by plan fingerprint, invalidated by
/// epoch.
pub(crate) struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    stale_evictions: AtomicU64,
}

impl ResultCache {
    /// A cache of `capacity` total entries over `shards` independently locked
    /// shards. `capacity == 0` disables the cache (every lookup misses,
    /// every insert is dropped).
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
            stale_evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, fingerprint: u64) -> &Mutex<Shard> {
        // lint:allow(index, in bounds by construction: fingerprint % len with len >= 1)
        &self.shards[(fingerprint % self.shards.len() as u64) as usize]
    }

    /// Looks up the plan's cached result, valid only at `epoch`. An entry
    /// stamped with any other epoch is evicted on sight (the collection has
    /// changed since it was computed) and the lookup misses.
    pub(crate) fn get(
        &self,
        fingerprint: u64,
        plan: &QueryPlan,
        epoch: u64,
    ) -> Option<QueryResult> {
        if self.per_shard_capacity == 0 {
            return None;
        }
        let mut shard = self
            .shard(fingerprint)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(&fingerprint) {
            Some(entry) if entry.epoch == epoch && entry.plan.same_answer(plan) => {
                entry.last_used = tick;
                Some(entry.result.clone())
            }
            Some(entry) if entry.epoch != epoch => {
                shard.map.remove(&fingerprint);
                self.stale_evictions.fetch_add(1, Ordering::Relaxed);
                None
            }
            // Fingerprint collision with a different plan: leave the resident
            // entry alone, just miss.
            _ => None,
        }
    }

    /// Inserts a result computed at `epoch`, evicting the shard's
    /// least-recently-used entry when full. Eviction scans the shard
    /// linearly — shards are small (capacity / shard count), so this stays
    /// cheap without an intrusive list.
    pub(crate) fn put(&self, fingerprint: u64, plan: &QueryPlan, epoch: u64, result: QueryResult) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self
            .shard(fingerprint)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        if shard.map.len() >= self.per_shard_capacity && !shard.map.contains_key(&fingerprint) {
            if let Some((&lru, _)) = shard.map.iter().min_by_key(|(_, entry)| entry.last_used) {
                shard.map.remove(&lru);
            }
        }
        shard.map.insert(
            fingerprint,
            Entry {
                plan: plan.clone(),
                epoch,
                result,
                last_used: tick,
            },
        );
    }

    /// Number of entries currently cached (across all shards).
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }

    /// Lifetime count of entries evicted because their epoch went stale.
    pub(crate) fn stale_evictions(&self) -> u64 {
        self.stale_evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lovo_core::{LovoConfig, QueryPlanner, QuerySpec};

    fn plan(text: &str) -> QueryPlan {
        QueryPlanner::new(LovoConfig::default()).plan(&QuerySpec::new(text))
    }

    fn result(text: &str) -> QueryResult {
        QueryResult {
            query: text.to_string(),
            frames: Vec::new(),
            fast_search_candidates: 7,
            reranked_frames: 0,
            timings: Default::default(),
            search_stats: Default::default(),
        }
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let cache = ResultCache::new(16, 2);
        let p = plan("a red car");
        let fp = p.fingerprint();
        cache.put(fp, &p, 1, result("a red car"));
        assert!(cache.get(fp, &p, 1).is_some());
        // Epoch moved on: the entry is stale, evicted, and later lookups at
        // the old epoch miss too (the entry is gone).
        assert!(cache.get(fp, &p, 2).is_none());
        assert_eq!(cache.stale_evictions(), 1);
        assert!(cache.get(fp, &p, 1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_shard() {
        // One shard so the eviction order is fully observable.
        let cache = ResultCache::new(2, 1);
        let plans: Vec<QueryPlan> = ["a", "b", "c"].iter().map(|t| plan(t)).collect();
        cache.put(plans[0].fingerprint(), &plans[0], 1, result("a"));
        cache.put(plans[1].fingerprint(), &plans[1], 1, result("b"));
        // Touch "a" so "b" is the LRU when "c" arrives.
        assert!(cache.get(plans[0].fingerprint(), &plans[0], 1).is_some());
        cache.put(plans[2].fingerprint(), &plans[2], 1, result("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(plans[0].fingerprint(), &plans[0], 1).is_some());
        assert!(cache.get(plans[1].fingerprint(), &plans[1], 1).is_none());
        assert!(cache.get(plans[2].fingerprint(), &plans[2], 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ResultCache::new(0, 4);
        let p = plan("a bus");
        cache.put(p.fingerprint(), &p, 1, result("a bus"));
        assert!(cache.get(p.fingerprint(), &p, 1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn fingerprint_collision_misses_instead_of_lying() {
        let cache = ResultCache::new(16, 1);
        let a = plan("a red car");
        let b = plan("a blue bus");
        // Force b to look up under a's fingerprint slot: the stored key
        // mismatch must make it miss, not return a's result.
        cache.put(a.fingerprint(), &a, 1, result("a red car"));
        assert!(cache.get(a.fingerprint(), &b, 1).is_none());
        // And the resident entry survives.
        assert!(cache.get(a.fingerprint(), &a, 1).is_some());
    }
}
