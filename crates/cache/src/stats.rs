//! Per-cache access statistics.

/// Counters accumulated by a [`crate::Cache`].
///
/// All counters are monotonically increasing; [`CacheStats::reset`] zeroes
/// them (used between an experiment's warm-up and measured phases).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups (reads + writes), excluding prefetch fills.
    pub accesses: u64,
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Misses caused by write accesses.
    pub write_misses: u64,
    /// Valid blocks displaced by fills.
    pub evictions: u64,
    /// Dirty blocks displaced by fills (write-backs).
    pub dirty_evictions: u64,
    /// Blocks removed by external invalidation (coherence).
    pub invalidations: u64,
    /// Blocks installed by prefetch rather than demand miss.
    pub prefetch_fills: u64,
    /// Demand misses that found the block already being prefetched or
    /// pre-installed (counted by the prefetcher wrapper, not the cache).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Fraction of demand accesses that missed, in `[0, 1]`; zero when no
    /// accesses have been recorded.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per kilo-*access*. (The simulator computes misses per
    /// kilo-instruction at the system level, where the instruction count
    /// lives.)
    pub fn mpka(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1000.0 * self.misses as f64 / self.accesses as f64
        }
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

// Aggregation across caches (e.g. the 16 per-core L1s) goes through the
// workspace-wide `Merge` trait; see `slicc_common::merge`.
slicc_common::impl_merge_counters!(CacheStats {
    accesses,
    hits,
    misses,
    write_misses,
    evictions,
    dirty_evictions,
    invalidations,
    prefetch_fills,
    prefetch_hits,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero_accesses() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
        assert_eq!(CacheStats::default().mpka(), 0.0);
    }

    #[test]
    fn miss_rate_and_mpka() {
        let s = CacheStats { accesses: 200, hits: 150, misses: 50, ..Default::default() };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.mpka() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = CacheStats { accesses: 5, ..Default::default() };
        s.reset();
        assert_eq!(s, CacheStats::default());
    }

    #[test]
    fn merge_sums_counters() {
        use slicc_common::Merge;
        let mut a = CacheStats { accesses: 10, hits: 7, misses: 3, ..Default::default() };
        a.merge(&CacheStats {
            accesses: 5,
            hits: 1,
            misses: 4,
            evictions: 2,
            ..Default::default()
        });
        assert_eq!(a.accesses, 15);
        assert_eq!(a.hits, 8);
        assert_eq!(a.misses, 7);
        assert_eq!(a.evictions, 2);
    }
}
