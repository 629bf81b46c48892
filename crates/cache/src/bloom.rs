//! Partial-address bloom-filter cache signatures.
//!
//! SLICC's remote-cache segment search (§4.2.3) must answer "does core C's
//! L1-I hold block B?" without stealing tag-array bandwidth from C. The
//! paper adopts Peir et al.'s *partial-address bloom filter with eviction
//! support* \[23\]: one bit per filter entry, indexed by the low bits of the
//! block address. Because the filter index embeds the cache's set index
//! (the filter is larger than the number of sets), two blocks can only
//! collide in the filter if they live in the same set — so on an eviction
//! the signature checks just that one set for surviving colliders and can
//! clear the bit when none remain.
//!
//! The filter is a *superset* of the cache contents: it never produces
//! false negatives, only false positives. Figure 9 measures its accuracy
//! against filter size; §5.3 settles on 2K bits for a 32 KiB cache (99.3%
//! accuracy).

use slicc_common::{BlockAddr, CacheGeometry};

/// A partial-address bloom filter summarizing one cache's contents.
///
/// # Example
///
/// ```
/// use slicc_cache::BloomSignature;
/// use slicc_common::{BlockAddr, CacheGeometry};
///
/// let geom = CacheGeometry::new(32 * 1024, 8, 64);
/// let mut sig = BloomSignature::new(2048, geom);
/// let b = BlockAddr::new(0x40);
/// sig.insert(b);
/// assert!(sig.maybe_contains(b)); // never a false negative
/// ```
#[derive(Clone, Debug)]
pub struct BloomSignature {
    bits: Vec<bool>,
    /// Mask over the hashed tag part of the index.
    upper_mask: u64,
    geom: CacheGeometry,
}

impl BloomSignature {
    /// Creates an empty signature of `size_bits` entries for a cache of
    /// shape `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `size_bits` is not a power of two, or is smaller than the
    /// cache's set count: the eviction-support property ("collisions occur
    /// only within sets") requires the filter index to be at least as wide
    /// as the set index. Figure 9 sweeps 512 bits — 8 K bits for the
    /// baseline cache; §5.3 settles on 2 K bits.
    pub fn new(size_bits: u64, geom: CacheGeometry) -> Self {
        assert!(size_bits.is_power_of_two(), "filter size must be a power of two");
        assert!(
            size_bits >= geom.num_sets(),
            "filter index ({size_bits} entries) must cover the set index ({} sets)",
            geom.num_sets()
        );
        BloomSignature {
            bits: vec![false; size_bits as usize],
            upper_mask: size_bits / geom.num_sets() - 1,
            geom,
        }
    }

    /// Number of filter entries (bits).
    pub fn size_bits(&self) -> u64 {
        self.bits.len() as u64
    }

    /// The filter index for `block`: the raw set-index bits (so
    /// collisions stay within one set — the eviction-support property)
    /// concatenated with a *hashed* partial tag. Hashing the tag keeps
    /// queries for consecutive blocks uncorrelated: without it, two code
    /// segments laid out a filter-period apart alias run-for-run and the
    /// MTQ's ANDed multi-block query false-positives wholesale.
    fn index(&self, block: BlockAddr) -> usize {
        let set = self.geom.set_index(block) as u64;
        let tag = self.geom.tag(block);
        // One SplitMix64-style mixing round.
        let mut h = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        ((h & self.upper_mask) << self.geom.set_index_bits() | set) as usize
    }

    /// Records that `block` is now cached.
    pub fn insert(&mut self, block: BlockAddr) {
        let idx = self.index(block);
        self.bits[idx] = true;
    }

    /// Records that `block` was evicted. `survivors` must iterate the
    /// blocks *still resident* in the evicted block's set (after the
    /// eviction); the bit is cleared only if no survivor collides with it.
    pub fn remove(&mut self, block: BlockAddr, survivors: impl Iterator<Item = BlockAddr>) {
        let idx = self.index(block);
        let collision = survivors
            .filter(|&s| s != block)
            .any(|s| self.index(s) == idx);
        if !collision {
            self.bits[idx] = false;
        }
    }

    /// Whether `block` *may* be cached. `false` is definitive; `true` may
    /// be a false positive.
    pub fn maybe_contains(&self, block: BlockAddr) -> bool {
        self.bits[self.index(block)]
    }

    /// Clears the filter (used when its cache is flushed).
    pub fn clear(&mut self) {
        self.bits.fill(false);
    }

    /// Number of set bits (diagnostics).
    pub fn popcount(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// The geometry of the cache this signature summarizes.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }
}

/// Tracks how often a signature and its cache agree, for Figure 9.
///
/// §5.3: "Accuracy is measured for all cache accesses and an access is
/// accurate if the bloom filter and the cache agree on whether this is a
/// hit or a miss."
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SignatureAccuracy {
    /// Accesses where filter and cache agreed.
    pub agreements: u64,
    /// Accesses where they disagreed (false positives, by construction).
    pub disagreements: u64,
}

impl SignatureAccuracy {
    /// Records one access: `filter_hit` is the signature's answer,
    /// `cache_hit` the ground truth.
    pub fn record(&mut self, filter_hit: bool, cache_hit: bool) {
        if filter_hit == cache_hit {
            self.agreements += 1;
        } else {
            self.disagreements += 1;
        }
    }

    /// Accuracy in `[0, 1]`; 1.0 when nothing has been recorded.
    pub fn accuracy(&self) -> f64 {
        let total = self.agreements + self.disagreements;
        if total == 0 {
            1.0
        } else {
            self.agreements as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessKind, Cache};
    use crate::policy::PolicyKind;
    use slicc_common::SplitMix64;

    fn baseline_geom() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 8, 64)
    }

    #[test]
    fn insert_then_query() {
        let mut sig = BloomSignature::new(2048, baseline_geom());
        let b = BlockAddr::new(0x123);
        assert!(!sig.maybe_contains(b));
        sig.insert(b);
        assert!(sig.maybe_contains(b));
    }

    #[test]
    fn remove_without_collision_clears_bit() {
        let mut sig = BloomSignature::new(2048, baseline_geom());
        let b = BlockAddr::new(0x123);
        sig.insert(b);
        sig.remove(b, std::iter::empty());
        assert!(!sig.maybe_contains(b));
    }

    /// Finds a block colliding with `b1` in the filter (same index).
    fn colliding_block(sig: &BloomSignature, b1: BlockAddr) -> BlockAddr {
        let sets = sig.geometry().num_sets();
        (1..100_000u64)
            .map(|k| BlockAddr::new(b1.raw() + k * sets))
            .find(|&b2| sig.index(b2) == sig.index(b1))
            .expect("a collision exists within the search range")
    }

    #[test]
    fn remove_with_collision_keeps_bit() {
        let geom = baseline_geom();
        let mut sig = BloomSignature::new(2048, geom);
        let b1 = BlockAddr::new(0x123);
        let b2 = colliding_block(&sig, b1);
        // Collisions are confined to one set (eviction-support property).
        assert_eq!(geom.set_index(b1), geom.set_index(b2));
        sig.insert(b1);
        sig.insert(b2);
        sig.remove(b1, std::iter::once(b2));
        // b2 still resident and colliding: bit must survive.
        assert!(sig.maybe_contains(b2));
        assert!(sig.maybe_contains(b1)); // false positive, by design
        sig.remove(b2, std::iter::empty());
        assert!(!sig.maybe_contains(b2));
    }

    #[test]
    fn consecutive_block_queries_are_decorrelated() {
        // The property the hashed tag buys: two same-length runs of
        // consecutive blocks one filter-period apart must not alias
        // run-for-run (that would make the MTQ's 4-block AND query
        // false-positive wholesale).
        let geom = baseline_geom();
        let sig = BloomSignature::new(2048, geom);
        let mut aliased_runs = 0;
        for stride in 1..64u64 {
            let base = BlockAddr::new(0x4000);
            let other = BlockAddr::new(0x4000 + stride * geom.num_sets());
            let run_aliases = (0..4).all(|i| sig.index(BlockAddr::new(base.raw() + i * geom.num_sets()))
                == sig.index(BlockAddr::new(other.raw() + i * geom.num_sets())));
            if run_aliases {
                aliased_runs += 1;
            }
        }
        assert_eq!(aliased_runs, 0, "whole runs must not alias");
    }

    #[test]
    fn colliding_blocks_share_a_set() {
        // The eviction-support property: filter index covers set index, so
        // filter collisions imply same set.
        let geom = baseline_geom();
        let sig = BloomSignature::new(2048, geom);
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let a = BlockAddr::new(rng.next_below(1 << 30));
            let b = BlockAddr::new(rng.next_below(1 << 30));
            if sig.index(a) == sig.index(b) {
                assert_eq!(geom.set_index(a), geom.set_index(b));
            }
        }
    }

    #[test]
    fn superset_invariant_under_random_traffic() {
        let geom = CacheGeometry::new(4096, 4, 64);
        let mut cache = Cache::new(geom, PolicyKind::Lru, 1);
        let mut sig = BloomSignature::new(512, geom);
        let mut rng = SplitMix64::new(5);
        for _ in 0..20_000 {
            let b = BlockAddr::new(rng.next_below(1024));
            let res = cache.access(b, AccessKind::Read);
            if let Some(ev) = res.evicted() {
                let set = geom.set_index(ev.block);
                sig.remove(ev.block, cache.blocks_in_set(set));
            }
            if res.is_miss() {
                sig.insert(b);
            }
            // Invariant: every cached block is claimed by the filter.
            if rng.next_below(100) == 0 {
                for cached in cache.blocks() {
                    assert!(sig.maybe_contains(cached), "false negative for {cached:?}");
                }
            }
        }
    }

    #[test]
    fn bigger_filters_are_more_accurate() {
        let geom = CacheGeometry::new(4096, 4, 64);
        let mut accuracies = Vec::new();
        for bits in [16u64, 64, 512, 4096] {
            let mut cache = Cache::new(geom, PolicyKind::Lru, 1);
            let mut sig = BloomSignature::new(bits, geom);
            let mut acc = SignatureAccuracy::default();
            let mut rng = SplitMix64::new(5);
            for _ in 0..20_000 {
                let b = BlockAddr::new(rng.next_below(1024));
                acc.record(sig.maybe_contains(b), cache.contains(b));
                let res = cache.access(b, AccessKind::Read);
                if let Some(ev) = res.evicted() {
                    sig.remove(ev.block, cache.blocks_in_set(geom.set_index(ev.block)));
                }
                if res.is_miss() {
                    sig.insert(b);
                }
            }
            accuracies.push(acc.accuracy());
        }
        for w in accuracies.windows(2) {
            assert!(w[0] <= w[1], "{accuracies:?}");
        }
        assert!(accuracies[2] > 0.9, "{accuracies:?}");
        // A filter with 4x the address-space's entries is nearly exact
        // (hashed-tag indexing leaves rare residual collisions).
        assert!(accuracies[3] > 0.99, "{accuracies:?}");
    }

    #[test]
    fn accuracy_tracker_arithmetic() {
        let mut a = SignatureAccuracy::default();
        assert_eq!(a.accuracy(), 1.0);
        a.record(true, true);
        a.record(false, false);
        a.record(true, false);
        assert!((a.accuracy() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_size_panics() {
        let _ = BloomSignature::new(1000, baseline_geom());
    }

    #[test]
    #[should_panic(expected = "cover the set index")]
    fn undersized_filter_panics() {
        let _ = BloomSignature::new(32, baseline_geom()); // 64 sets
    }

    #[test]
    fn clear_and_popcount() {
        let mut sig = BloomSignature::new(2048, baseline_geom());
        sig.insert(BlockAddr::new(1));
        sig.insert(BlockAddr::new(2));
        assert_eq!(sig.popcount(), 2);
        sig.clear();
        assert_eq!(sig.popcount(), 0);
    }
}
