//! The next-line instruction prefetcher baseline.
//!
//! §5.6 compares SLICC against "a next-line instruction prefetcher": on a
//! fetch to block *B*, the prefetcher brings *B+1 .. B+degree* into the
//! L1-I so that the common fall-through path hits. This module wraps a
//! [`Cache`] access with that behaviour and tracks how many demand misses
//! the prefetches covered.

use crate::cache::{Cache, EvictedBlock, LookupResult};
use crate::AccessKind;
use slicc_common::BlockAddr;

/// A simple sequential (next-line) prefetcher of configurable degree.
///
/// # Example
///
/// ```
/// use slicc_cache::{Cache, NextLinePrefetcher, PolicyKind};
/// use slicc_common::{BlockAddr, CacheGeometry};
///
/// let mut cache = Cache::new(CacheGeometry::new(4096, 4, 64), PolicyKind::Lru, 0);
/// let mut pf = NextLinePrefetcher::new(1);
/// // Fetch block 10: its miss also schedules block 11.
/// pf.access(&mut cache, BlockAddr::new(10));
/// // The sequential successor now hits.
/// assert!(pf.access(&mut cache, BlockAddr::new(11)).0.is_hit());
/// ```
#[derive(Clone, Debug)]
pub struct NextLinePrefetcher {
    degree: u64,
    issued: u64,
    useful: u64,
    last_fetched: Option<BlockAddr>,
}

impl NextLinePrefetcher {
    /// Creates a prefetcher that fetches `degree` sequential successors on
    /// each demand access to a new block.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero (use no prefetcher instead).
    pub fn new(degree: u64) -> Self {
        assert!(degree > 0, "prefetch degree must be positive");
        NextLinePrefetcher { degree, issued: 0, useful: 0, last_fetched: None }
    }

    /// Performs a demand instruction fetch through the prefetcher.
    ///
    /// Returns the demand access result plus any blocks evicted by the
    /// prefetch fills (the caller must propagate those to bloom signatures
    /// and the like). Convenience wrapper over [`Self::access_into`].
    pub fn access(
        &mut self,
        cache: &mut Cache,
        block: BlockAddr,
    ) -> (LookupResult, Vec<EvictedBlock>) {
        let mut evicted = Vec::new();
        let result = self.access_into(cache, block, &mut evicted);
        (result, evicted)
    }

    /// [`Self::access`] appending prefetch-fill evictions to a
    /// caller-owned buffer, so the steady-state fetch path allocates
    /// nothing (the simulator reuses one scratch buffer per fetch).
    pub fn access_into(
        &mut self,
        cache: &mut Cache,
        block: BlockAddr,
        evicted: &mut Vec<EvictedBlock>,
    ) -> LookupResult {
        let result = cache.access(block, AccessKind::Read);
        // Only issue prefetches when the fetch stream moves to a new
        // block; repeated fetches within a block issue nothing new.
        if self.last_fetched != Some(block) {
            self.last_fetched = Some(block);
            for d in 1..=self.degree {
                let target = block.offset(d);
                if !cache.contains(target) {
                    self.issued += 1;
                    if let Some(ev) = cache.fill(target) {
                        evicted.push(ev);
                    }
                }
            }
        }
        if result.is_hit() {
            self.useful += 1;
        }
        result
    }

    /// Prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Demand hits observed (includes hits the prefetcher created).
    pub fn useful(&self) -> u64 {
        self.useful
    }

    /// The configured degree.
    pub fn degree(&self) -> u64 {
        self.degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use slicc_common::CacheGeometry;

    fn cache() -> Cache {
        Cache::new(CacheGeometry::new(4096, 4, 64), PolicyKind::Lru, 0)
    }

    #[test]
    fn sequential_stream_hits_after_first_miss() {
        let mut c = cache();
        let mut pf = NextLinePrefetcher::new(1);
        let mut misses = 0;
        for raw in 0..32u64 {
            if pf.access(&mut c, BlockAddr::new(raw)).0.is_miss() {
                misses += 1;
            }
        }
        // Only the first block misses; every successor was prefetched.
        assert_eq!(misses, 1);
    }

    #[test]
    fn higher_degree_prefetches_further() {
        let mut c = cache();
        let mut pf = NextLinePrefetcher::new(4);
        pf.access(&mut c, BlockAddr::new(0));
        for raw in 1..=4u64 {
            assert!(c.contains(BlockAddr::new(raw)), "block {raw} not prefetched");
        }
        assert!(!c.contains(BlockAddr::new(5)));
        assert_eq!(pf.issued(), 4);
    }

    #[test]
    fn repeated_fetch_same_block_is_single_prefetch() {
        let mut c = cache();
        let mut pf = NextLinePrefetcher::new(1);
        for _ in 0..10 {
            pf.access(&mut c, BlockAddr::new(7));
        }
        assert_eq!(pf.issued(), 1);
    }

    #[test]
    fn random_stream_gains_little() {
        use slicc_common::SplitMix64;
        let mut c = cache();
        let mut pf = NextLinePrefetcher::new(1);
        let mut rng = SplitMix64::new(3);
        let mut misses = 0;
        for _ in 0..1000 {
            // Strided-random stream: successor never touched next.
            let b = BlockAddr::new(rng.next_below(1 << 20) * 2);
            if pf.access(&mut c, b).0.is_miss() {
                misses += 1;
            }
        }
        assert!(misses > 900, "misses = {misses}");
    }

    #[test]
    fn eviction_reporting_from_prefetch_fills() {
        // Tiny cache: prefetch fills must displace and report blocks.
        let geom = CacheGeometry::new(256, 2, 64); // 2 sets x 2 ways
        let mut c = Cache::new(geom, PolicyKind::Lru, 0);
        let mut pf = NextLinePrefetcher::new(2);
        pf.access(&mut c, BlockAddr::new(0)); // fills 0,1,2
        let (_, evicted) = pf.access(&mut c, BlockAddr::new(4)); // fills 4,5,6
        assert!(!evicted.is_empty());
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_panics() {
        let _ = NextLinePrefetcher::new(0);
    }
}
