//! The shared NUCA L2 with its coherence directory.
//!
//! Table 2: a shared L2 of 1 MiB per core (16 MiB total for 16 cores),
//! 16-way, 64 B blocks, 16 banks, 16-cycle hit latency, with MESI
//! coherence for the L1-Ds. This module models the L2 as one logical
//! set-associative cache whose blocks are address-interleaved across the
//! banks (bank = block mod 16), plus a directory that tracks which private
//! L1s hold each block:
//!
//! - a **store** to a block shared by other L1-Ds invalidates those copies
//!   (the §5.5 migration penalty: writes on core B to blocks fetched on
//!   core A "lead to invalidations that would not have occurred");
//! - a **load** of a block held dirty elsewhere downgrades the owner;
//! - an **L2 eviction** back-invalidates every L1 copy (inclusive L2).
//!
//! The L2 is a *functional* model; the simulator charges bank-distance and
//! hit/miss latencies using `slicc_noc`'s torus and [`crate::Dram`].

use slicc_cache::{AccessKind, Cache, PolicyKind};
use slicc_common::{BlockAddr, CacheGeometry, CoreId, CoreMask, Cycle, FastHashMap};

/// How an L1 request accesses the L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2AccessKind {
    /// Instruction fetch (read-only; many L1-Is may share the block).
    IFetch,
    /// Data load.
    DataRead,
    /// Data store (requires exclusivity among L1-Ds).
    DataWrite,
}

impl L2AccessKind {
    /// Whether this request touches the data directory.
    pub const fn is_data(self) -> bool {
        !matches!(self, L2AccessKind::IFetch)
    }
}

/// Directory entry: which L1s hold the block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DirEntry {
    /// Cores whose L1-I holds the block.
    i_sharers: CoreMask,
    /// Cores whose L1-D holds the block.
    d_sharers: CoreMask,
    /// Core whose L1-D holds the block modified, if any.
    dirty_owner: Option<u16>,
}

impl DirEntry {
    fn is_empty(&self) -> bool {
        self.i_sharers.is_empty() && self.d_sharers.is_empty()
    }
}

/// Coherence actions the requesting side must carry out, returned from
/// [`L2Nuca::access`].
///
/// Sharer sets are [`CoreMask`]s and a fill evicts at most one victim, so
/// the whole response is a few machine words passed by value — the L2
/// access path allocates nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L2Response {
    /// Whether the block was present in the L2 (else it was fetched from
    /// memory and filled).
    pub hit: bool,
    /// L1-Ds (other cores) that must invalidate their copy because of
    /// this store.
    pub invalidate_data: CoreMask,
    /// L1-D holding the block dirty that must downgrade (write back) so
    /// this read can proceed.
    pub downgrade: Option<CoreId>,
    /// The block evicted from the L2 by this fill, if any, with the L1-I
    /// and L1-D sharer sets that must be back-invalidated (inclusion).
    pub back_invalidate: Option<BackInvalidate>,
    /// Whether the L2 victim (if any) was dirty and wrote back to memory.
    pub dirty_writeback: bool,
}

/// An inclusive-L2 back-invalidation order for one evicted block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackInvalidate {
    /// The evicted block.
    pub block: BlockAddr,
    /// Cores whose L1-I held it.
    pub i_sharers: CoreMask,
    /// Cores whose L1-D held it.
    pub d_sharers: CoreMask,
}

/// L2-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L2Stats {
    /// Requests that hit in the L2.
    pub hits: u64,
    /// Requests that missed to memory.
    pub misses: u64,
    /// Invalidation messages sent to L1-Ds on stores.
    pub store_invalidations: u64,
    /// Downgrades of dirty L1-D copies on remote reads.
    pub downgrades: u64,
    /// L1 copies killed by inclusive L2 evictions.
    pub back_invalidations: u64,
}

// Per-bank counters fold together via the workspace-wide `Merge` trait.
slicc_common::impl_merge_counters!(L2Stats {
    hits,
    misses,
    store_invalidations,
    downgrades,
    back_invalidations,
});

/// The shared, banked, inclusive L2 with directory.
///
/// # Example
///
/// ```
/// use slicc_mem::{L2AccessKind, L2Nuca};
/// use slicc_common::{BlockAddr, CoreId};
///
/// let mut l2 = L2Nuca::paper_16core(1);
/// let b = BlockAddr::new(0x99);
/// let r0 = l2.access(CoreId::new(0), b, L2AccessKind::DataWrite);
/// assert!(!r0.hit); // cold
/// // Another core stores to the same block: core 0 must invalidate.
/// let r1 = l2.access(CoreId::new(1), b, L2AccessKind::DataWrite);
/// assert!(r1.hit);
/// assert!(r1.invalidate_data.contains(CoreId::new(0)));
/// assert_eq!(r1.invalidate_data.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct L2Nuca {
    cache: Cache,
    dir: FastHashMap<BlockAddr, DirEntry>,
    num_banks: usize,
    hit_latency: Cycle,
    stats: L2Stats,
}

impl L2Nuca {
    /// Creates an L2 with explicit shape.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero or the geometry is invalid.
    pub fn new(geom: CacheGeometry, num_banks: usize, hit_latency: Cycle, seed: u64) -> Self {
        assert!(num_banks > 0, "L2 must have at least one bank");
        L2Nuca {
            cache: Cache::new(geom, PolicyKind::Lru, seed),
            dir: FastHashMap::default(),
            num_banks,
            hit_latency,
            stats: L2Stats::default(),
        }
    }

    /// The paper's configuration: 16 MiB (1 MiB x 16 cores), 16-way, 64 B
    /// blocks, 16 banks, 16-cycle hit latency.
    pub fn paper_16core(seed: u64) -> Self {
        L2Nuca::new(CacheGeometry::new(16 * 1024 * 1024, 16, 64), 16, 16, seed)
    }

    /// The bank holding `block` (address-interleaved).
    pub fn bank_of(&self, block: BlockAddr) -> usize {
        (block.raw() % self.num_banks as u64) as usize
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Bank hit latency in cycles (Table 2: 16).
    pub fn hit_latency(&self) -> Cycle {
        self.hit_latency
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &L2Stats {
        &self.stats
    }

    /// Zeroes the counters (contents untouched).
    pub fn reset_stats(&mut self) {
        self.stats = L2Stats::default();
        self.cache.reset_stats();
    }

    /// Whether the L2 currently holds `block`.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.cache.contains(block)
    }

    /// Handles an L1 miss request from `core` for `block`.
    pub fn access(&mut self, core: CoreId, block: BlockAddr, kind: L2AccessKind) -> L2Response {
        let mut resp = L2Response::default();

        // Storage lookup (fills on miss; inclusive).
        let result = self.cache.access(block, AccessKind::Read);
        resp.hit = result.is_hit();
        if resp.hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        if let Some(evicted) = result.evicted() {
            resp.dirty_writeback = evicted.dirty;
            if let Some(entry) = self.dir.remove(&evicted.block) {
                self.stats.back_invalidations +=
                    (entry.i_sharers.len() + entry.d_sharers.len()) as u64;
                resp.back_invalidate = Some(BackInvalidate {
                    block: evicted.block,
                    i_sharers: entry.i_sharers,
                    d_sharers: entry.d_sharers,
                });
            }
        }

        // Directory transaction.
        let entry = self.dir.entry(block).or_default();
        match kind {
            L2AccessKind::IFetch => {
                entry.i_sharers.insert(core);
            }
            L2AccessKind::DataRead => {
                if let Some(owner) = entry.dirty_owner {
                    if owner as usize != core.index() {
                        resp.downgrade = Some(CoreId::new(owner));
                        entry.dirty_owner = None;
                        self.stats.downgrades += 1;
                    }
                }
                entry.d_sharers.insert(core);
            }
            L2AccessKind::DataWrite => {
                let others = entry.d_sharers.without(core);
                if !others.is_empty() {
                    resp.invalidate_data = others;
                    self.stats.store_invalidations += others.len() as u64;
                }
                entry.d_sharers = CoreMask::empty();
                entry.d_sharers.insert(core);
                entry.dirty_owner = Some(core.raw());
            }
        }
        resp
    }

    /// Notifies the directory that `core`'s L1 evicted or invalidated its
    /// copy of `block`. `was_data` selects the L1-D vs L1-I sharer set.
    pub fn on_l1_evict(&mut self, core: CoreId, block: BlockAddr, was_data: bool, dirty: bool) {
        if let Some(entry) = self.dir.get_mut(&block) {
            if was_data {
                entry.d_sharers.remove(core);
                if entry.dirty_owner == Some(core.raw()) {
                    entry.dirty_owner = None;
                }
                if dirty {
                    // A dirty L1 eviction writes back into the L2 copy.
                    self.cache.mark_dirty(block);
                }
            } else {
                entry.i_sharers.remove(core);
            }
            if entry.is_empty() {
                self.dir.remove(&block);
            }
        }
    }

    /// The cores whose L1-D currently shares `block` (diagnostics).
    pub fn data_sharers(&self, block: BlockAddr) -> Vec<CoreId> {
        self.dir.get(&block).map(|e| e.d_sharers.iter().collect()).unwrap_or_default()
    }

    /// The cores whose L1-I currently shares `block` (diagnostics).
    pub fn instruction_sharers(&self, block: BlockAddr) -> Vec<CoreId> {
        self.dir.get(&block).map(|e| e.i_sharers.iter().collect()).unwrap_or_default()
    }

    /// Number of directory entries (blocks with at least one L1 sharer).
    pub fn directory_entries(&self) -> usize {
        self.dir.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_l2() -> L2Nuca {
        // 8 KiB, 2-way, 64 B: 64 sets... 8192/(2*64) = 64 sets, 128 blocks.
        L2Nuca::new(CacheGeometry::new(8 * 1024, 2, 64), 4, 16, 1)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        assert!(!l2.access(CoreId::new(0), b, L2AccessKind::IFetch).hit);
        assert!(l2.access(CoreId::new(1), b, L2AccessKind::IFetch).hit);
        assert_eq!(l2.stats().hits, 1);
        assert_eq!(l2.stats().misses, 1);
    }

    #[test]
    fn ifetch_sharers_accumulate_without_invalidation() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        for c in 0..4u16 {
            let r = l2.access(CoreId::new(c), b, L2AccessKind::IFetch);
            assert!(r.invalidate_data.is_empty());
            assert!(r.downgrade.is_none());
        }
        assert_eq!(l2.instruction_sharers(b).len(), 4);
    }

    #[test]
    fn store_invalidates_other_data_sharers() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        l2.access(CoreId::new(0), b, L2AccessKind::DataRead);
        l2.access(CoreId::new(1), b, L2AccessKind::DataRead);
        let r = l2.access(CoreId::new(2), b, L2AccessKind::DataWrite);
        let inv: Vec<_> = r.invalidate_data.iter().collect();
        assert_eq!(inv, vec![CoreId::new(0), CoreId::new(1)]);
        assert_eq!(l2.data_sharers(b), vec![CoreId::new(2)]);
        assert_eq!(l2.stats().store_invalidations, 2);
    }

    #[test]
    fn store_by_sole_sharer_invalidates_nobody() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        l2.access(CoreId::new(0), b, L2AccessKind::DataRead);
        let r = l2.access(CoreId::new(0), b, L2AccessKind::DataWrite);
        assert!(r.invalidate_data.is_empty());
    }

    #[test]
    fn read_of_dirty_block_downgrades_owner() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        l2.access(CoreId::new(0), b, L2AccessKind::DataWrite);
        let r = l2.access(CoreId::new(1), b, L2AccessKind::DataRead);
        assert_eq!(r.downgrade, Some(CoreId::new(0)));
        assert_eq!(l2.stats().downgrades, 1);
        // Owner cleared: a further read downgrades nobody.
        let r2 = l2.access(CoreId::new(2), b, L2AccessKind::DataRead);
        assert!(r2.downgrade.is_none());
    }

    #[test]
    fn owner_rereading_own_dirty_block_is_not_downgraded() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        l2.access(CoreId::new(0), b, L2AccessKind::DataWrite);
        let r = l2.access(CoreId::new(0), b, L2AccessKind::DataRead);
        assert!(r.downgrade.is_none());
    }

    #[test]
    fn l2_eviction_back_invalidates_l1_sharers() {
        let mut l2 = small_l2();
        // Fill one set (2 ways) with sharers, then overflow it.
        // Blocks mapping to set 0: multiples of 64.
        let (b0, b1, b2) = (BlockAddr::new(0), BlockAddr::new(64), BlockAddr::new(128));
        l2.access(CoreId::new(3), b0, L2AccessKind::IFetch);
        l2.access(CoreId::new(4), b0, L2AccessKind::DataRead);
        l2.access(CoreId::new(5), b1, L2AccessKind::DataRead);
        let r = l2.access(CoreId::new(6), b2, L2AccessKind::DataRead);
        let bi = r.back_invalidate.expect("fill must evict the shared block");
        assert_eq!(bi.block, b0);
        assert_eq!(bi.i_sharers.iter().collect::<Vec<_>>(), vec![CoreId::new(3)]);
        assert_eq!(bi.d_sharers.iter().collect::<Vec<_>>(), vec![CoreId::new(4)]);
        assert_eq!(l2.stats().back_invalidations, 2);
        // Directory entry gone.
        assert!(l2.data_sharers(b0).is_empty());
    }

    #[test]
    fn l1_evict_notification_clears_sharer() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        l2.access(CoreId::new(0), b, L2AccessKind::DataRead);
        l2.access(CoreId::new(1), b, L2AccessKind::DataRead);
        l2.on_l1_evict(CoreId::new(0), b, true, false);
        assert_eq!(l2.data_sharers(b), vec![CoreId::new(1)]);
        l2.on_l1_evict(CoreId::new(1), b, true, false);
        assert_eq!(l2.directory_entries(), 0);
    }

    #[test]
    fn dirty_owner_eviction_clears_ownership() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(5);
        l2.access(CoreId::new(0), b, L2AccessKind::DataWrite);
        l2.on_l1_evict(CoreId::new(0), b, true, true);
        // A later read must not downgrade the departed owner.
        let r = l2.access(CoreId::new(1), b, L2AccessKind::DataRead);
        assert!(r.downgrade.is_none());
    }

    #[test]
    fn bank_interleaving() {
        let l2 = small_l2();
        assert_eq!(l2.bank_of(BlockAddr::new(0)), 0);
        assert_eq!(l2.bank_of(BlockAddr::new(5)), 1);
        assert_eq!(l2.bank_of(BlockAddr::new(7)), 3);
        assert_eq!(l2.num_banks(), 4);
    }

    #[test]
    fn paper_config_shape() {
        let l2 = L2Nuca::paper_16core(0);
        assert_eq!(l2.num_banks(), 16);
        assert_eq!(l2.hit_latency(), 16);
    }

    #[test]
    fn instruction_and_data_sharers_are_independent() {
        let mut l2 = small_l2();
        let b = BlockAddr::new(9);
        l2.access(CoreId::new(0), b, L2AccessKind::IFetch);
        l2.access(CoreId::new(0), b, L2AccessKind::DataRead);
        // A store invalidates the data copy but not the instruction copy.
        let r = l2.access(CoreId::new(1), b, L2AccessKind::DataWrite);
        assert_eq!(r.invalidate_data.iter().collect::<Vec<_>>(), vec![CoreId::new(0)]);
        assert_eq!(l2.instruction_sharers(b), vec![CoreId::new(0)]);
    }
}

#[cfg(test)]
mod protocol_scenarios {
    use super::*;
    use slicc_common::CacheGeometry;

    fn l2() -> L2Nuca {
        L2Nuca::new(CacheGeometry::new(64 * 1024, 8, 64), 4, 16, 1)
    }

    /// A full migration-shaped protocol walk: the §5.5 three-scenario
    /// story at directory level.
    #[test]
    fn migration_read_write_return_cycle() {
        let mut l2 = l2();
        let b = BlockAddr::new(0x40);
        let (a, c) = (CoreId::new(0), CoreId::new(1));

        // Thread writes b on core A.
        l2.access(a, b, L2AccessKind::DataWrite);
        // (1) It migrates to core B and reads the data it fetched on A:
        // the read must downgrade A's dirty copy.
        let r = l2.access(c, b, L2AccessKind::DataRead);
        assert_eq!(r.downgrade, Some(a));
        // (2) It writes on B: A's (clean) copy must be invalidated.
        let r = l2.access(c, b, L2AccessKind::DataWrite);
        assert_eq!(r.invalidate_data.iter().collect::<Vec<_>>(), vec![a]);
        // (3) It returns to A and reads again: B now holds it dirty.
        let r = l2.access(a, b, L2AccessKind::DataRead);
        assert_eq!(r.downgrade, Some(c));
        // Directory ends with both as clean sharers.
        let mut sharers = l2.data_sharers(b);
        sharers.sort();
        assert_eq!(sharers, vec![a, c]);
    }

    #[test]
    fn write_after_many_readers_invalidates_all() {
        let mut l2 = l2();
        let b = BlockAddr::new(0x80);
        for i in 0..8u16 {
            l2.access(CoreId::new(i), b, L2AccessKind::DataRead);
        }
        let writer = CoreId::new(9);
        let r = l2.access(writer, b, L2AccessKind::DataWrite);
        assert_eq!(r.invalidate_data.len(), 8);
        assert_eq!(l2.data_sharers(b), vec![writer]);
        // A second write by the same core is silent.
        let r = l2.access(writer, b, L2AccessKind::DataWrite);
        assert!(r.invalidate_data.is_empty());
    }

    #[test]
    fn instruction_copies_survive_data_writes_until_l2_eviction() {
        let mut l2 = l2();
        let b = BlockAddr::new(0xc0);
        l2.access(CoreId::new(2), b, L2AccessKind::IFetch);
        l2.access(CoreId::new(3), b, L2AccessKind::DataWrite);
        assert_eq!(l2.instruction_sharers(b), vec![CoreId::new(2)]);
        // Fill the set until b is evicted: back-invalidation must list
        // the L1-I copy.
        let sets = 64 * 1024 / (8 * 64);
        let mut back = None;
        for k in 1..=16u64 {
            let other = BlockAddr::new(0xc0 + k * sets as u64);
            let r = l2.access(CoreId::new(4), other, L2AccessKind::DataRead);
            if let Some(bi) = r.back_invalidate.filter(|bi| bi.block == b) {
                back = Some(bi);
                break;
            }
        }
        let bi = back.expect("b must eventually be evicted from its set");
        assert_eq!(bi.i_sharers.iter().collect::<Vec<_>>(), vec![CoreId::new(2)]);
        assert_eq!(bi.d_sharers.iter().collect::<Vec<_>>(), vec![CoreId::new(3)]);
    }
}
