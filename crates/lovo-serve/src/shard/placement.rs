//! Video → shard placement.
//!
//! The placement is the one piece of state the router and the ingest path
//! must agree on: ingest builds shard `s` from exactly the videos
//! [`HashPlacement::shard_of`] assigns to `s` (see
//! [`crate::shard::partition_videos`]), and the router prunes and gathers
//! under the same function. It is a pure function of the video id, so the
//! router can compute a predicate's target shards without contacting any
//! shard.

/// Assigns every video id to one of `shard_count` engine shards: a
/// multiplicative hash of the video id, modulo the shard count. Spreads consecutive camera ids evenly and is deterministic
/// across processes (no per-process seeding), so routers and ingest jobs on
/// different machines agree on ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPlacement {
    shards: usize,
}

impl HashPlacement {
    /// A placement over `shards` shards (floored at 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
        }
    }

    /// Number of shards ids are placed onto (at least 1).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning `video_id`; strictly less than
    /// [`HashPlacement::shard_count`], and the same for an id as long as
    /// the shard count is.
    pub fn shard_of(&self, video_id: u32) -> usize {
        // Fibonacci multiplicative hashing: one multiply spreads the id's
        // entropy into the high bits, which the modulo then samples. The
        // constant is 2^64 / φ, the standard choice.
        let mixed = u64::from(video_id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (mixed % self.shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_total_and_stable() {
        for shards in [1usize, 2, 4, 7] {
            let placement = HashPlacement::new(shards);
            assert_eq!(placement.shard_count(), shards);
            for id in 0..1000u32 {
                let shard = placement.shard_of(id);
                assert!(shard < shards);
                assert_eq!(shard, placement.shard_of(id), "placement must be pure");
            }
        }
    }

    #[test]
    fn zero_shards_floors_to_one() {
        let placement = HashPlacement::new(0);
        assert_eq!(placement.shard_count(), 1);
        assert_eq!(placement.shard_of(42), 0);
    }

    #[test]
    fn hashing_spreads_consecutive_ids() {
        let placement = HashPlacement::new(4);
        let mut counts = [0usize; 4];
        for id in 0..400u32 {
            if let Some(slot) = counts.get_mut(placement.shard_of(id)) {
                *slot += 1;
            }
        }
        // No shard should be starved or hoard everything under a
        // multiplicative hash of a contiguous id range.
        assert!(
            counts.iter().all(|&c| c > 40),
            "skewed placement: {counts:?}"
        );
    }
}
