//! The set-associative cache model.
//!
//! One [`Cache`] instance models one physical cache (an L1-I, an L1-D, or
//! one bank's worth of L2). It is a *functional* model — it answers
//! hit/miss and tracks contents; all timing lives in the simulator crates.
//! Fills happen on miss (allocate-on-miss), matching the paper's baseline.

use crate::policy::{Policy, PolicyKind};
use crate::stats::CacheStats;
use slicc_common::{BlockAddr, CacheGeometry};

/// Whether an access reads or writes the block (writes mark it dirty and,
/// at the coherence layer, demand exclusivity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch or data load.
    Read,
    /// Data store.
    Write,
}

impl AccessKind {
    /// Whether this access is a store.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A valid block displaced by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The displaced block's address.
    pub block: BlockAddr,
    /// Whether it held modified data (requires a write-back).
    pub dirty: bool,
}

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// The block was present.
    Hit,
    /// The block was absent; it has been installed, possibly displacing
    /// `evicted`.
    Miss {
        /// The valid block displaced by this fill, if any.
        evicted: Option<EvictedBlock>,
    },
}

impl LookupResult {
    /// Whether this access hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, LookupResult::Hit)
    }

    /// Whether this access missed.
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }

    /// The displaced block, if this was a miss that evicted one.
    pub fn evicted(self) -> Option<EvictedBlock> {
        match self {
            LookupResult::Hit => None,
            LookupResult::Miss { evicted } => evicted,
        }
    }
}

/// Where [`Cache::probe`] found a resident block: its set and way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Way {
    set: usize,
    way: usize,
}

/// A set-associative cache with a pluggable replacement policy.
///
/// # Example
///
/// ```
/// use slicc_cache::{AccessKind, Cache, PolicyKind};
/// use slicc_common::{BlockAddr, CacheGeometry};
///
/// let mut c = Cache::new(CacheGeometry::new(4096, 2, 64), PolicyKind::Lru, 0);
/// let b = BlockAddr::new(7);
/// assert!(c.access(b, AccessKind::Read).is_miss());
/// assert!(c.access(b, AccessKind::Read).is_hit());
/// assert!(c.contains(b));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    /// Flattened `num_sets * assoc` tag array.
    tags: Vec<u64>,
    /// Per-set bitmask of valid ways (bit `w` = way `w` holds a block).
    valid: Vec<u64>,
    /// Per-set bitmask of dirty ways.
    dirty: Vec<u64>,
    /// Mask with one bit per way (`assoc` low bits set).
    all_ways: u64,
    policy: Policy,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache. `seed` drives the stochastic insertion
    /// policies (BIP/BRRIP and their dueling parents); caches with the
    /// same seed behave identically.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (one mask word per set).
    pub fn new(geom: CacheGeometry, policy: PolicyKind, seed: u64) -> Self {
        let sets = geom.num_sets() as usize;
        let assoc = geom.associativity() as usize;
        assert!(assoc <= 64, "way masks hold at most 64 ways, got {assoc}");
        Cache {
            geom,
            tags: vec![0; sets * assoc],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            all_ways: if assoc == 64 { u64::MAX } else { (1u64 << assoc) - 1 },
            policy: Policy::new(policy, sets, assoc, seed),
            stats: CacheStats::default(),
        }
    }

    /// The cache's shape.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The replacement policy in use.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn assoc(&self) -> usize {
        self.geom.associativity() as usize
    }

    /// Finds the way holding `block` in `set`, if present and valid.
    /// Builds a branch-free mask of the ways whose tag matches, keeps the
    /// valid ones, and takes the lowest — the way a scan in way order
    /// would find first.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let assoc = self.assoc();
        let ways = &self.tags[set * assoc..(set + 1) * assoc];
        let mut matches = 0u64;
        for (w, &t) in ways.iter().enumerate() {
            matches |= u64::from(t == tag) << w;
        }
        let live = matches & self.valid[set];
        (live != 0).then(|| live.trailing_zeros() as usize)
    }

    /// Looks `block` up without changing any state. A hit names the way
    /// holding it, for [`Cache::is_dirty`] and [`Cache::hit`]; the handle
    /// is valid until the cache is next changed.
    ///
    /// ```
    /// use slicc_cache::{AccessKind, Cache, PolicyKind};
    /// use slicc_common::{BlockAddr, CacheGeometry};
    ///
    /// let mut c = Cache::new(CacheGeometry::new(4096, 2, 64), PolicyKind::Lru, 0);
    /// let b = BlockAddr::new(7);
    /// assert!(c.probe(b).is_none());
    /// c.access(b, AccessKind::Read);
    /// let way = c.probe(b).expect("resident");
    /// assert!(!c.is_dirty(way));
    /// c.hit(way, AccessKind::Write); // same effect as a hitting `access`
    /// assert!(c.is_dirty(c.probe(b).unwrap()));
    /// ```
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<Way> {
        let set = self.geom.set_index(block);
        let way = self.find_way(set, self.geom.tag(block))?;
        Some(Way { set, way })
    }

    /// Whether `way` holds `block` right now: the way lies in `block`'s
    /// set, is valid, and carries its tag. A block is resident in at most
    /// one way, so a `way` remembered from an earlier [`Cache::probe`]
    /// that still holds `block` is exactly the way a fresh probe would
    /// return, whatever changed in between.
    ///
    /// ```
    /// use slicc_cache::{AccessKind, Cache, PolicyKind};
    /// use slicc_common::{BlockAddr, CacheGeometry};
    ///
    /// let mut c = Cache::new(CacheGeometry::new(4096, 2, 64), PolicyKind::Lru, 0);
    /// let b = BlockAddr::new(7);
    /// c.access(b, AccessKind::Read);
    /// let way = c.probe(b).expect("resident");
    /// assert!(c.holds(way, b));
    /// c.invalidate(b);
    /// assert!(!c.holds(way, b));
    /// ```
    #[inline]
    pub fn holds(&self, way: Way, block: BlockAddr) -> bool {
        self.geom.set_index(block) == way.set
            && self.valid[way.set] >> way.way & 1 != 0
            && self.tags[way.set * self.assoc() + way.way] == self.geom.tag(block)
    }

    /// Whether the block at `way` (from [`Cache::probe`]) is dirty.
    #[inline]
    pub fn is_dirty(&self, way: Way) -> bool {
        self.dirty[way.set] >> way.way & 1 != 0
    }

    /// Completes a demand access that [`Cache::probe`] found resident at
    /// `way`: exactly what [`Cache::access`] does on a hit, without
    /// scanning the set again.
    #[inline]
    pub fn hit(&mut self, way: Way, kind: AccessKind) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
        self.policy.on_hit(way.set, way.way);
        if kind.is_write() {
            self.dirty[way.set] |= 1 << way.way;
        }
    }

    /// Performs a demand access: returns hit/miss and installs the block
    /// on miss (allocate-on-miss, for reads and writes alike).
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> LookupResult {
        let set = self.geom.set_index(block);
        let tag = self.geom.tag(block);
        if let Some(way) = self.find_way(set, tag) {
            self.hit(Way { set, way }, kind);
            return LookupResult::Hit;
        }
        self.stats.accesses += 1;
        self.stats.misses += 1;
        if kind.is_write() {
            self.stats.write_misses += 1;
        }
        self.policy.on_miss(set);
        let evicted = self.install(set, tag, kind.is_write());
        LookupResult::Miss { evicted }
    }

    /// Installs a block without a demand access (prefetch fill). Returns
    /// the displaced block, if any; a no-op returning `None` when the
    /// block is already present.
    pub fn fill(&mut self, block: BlockAddr) -> Option<EvictedBlock> {
        let set = self.geom.set_index(block);
        let tag = self.geom.tag(block);
        if self.find_way(set, tag).is_some() {
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.install(set, tag, false)
    }

    /// Picks a way (invalid first, else policy victim) and installs
    /// `(set, tag)` there.
    fn install(&mut self, set: usize, tag: u64, write: bool) -> Option<EvictedBlock> {
        let base = set * self.assoc();
        let vacant = !self.valid[set] & self.all_ways;
        let (way, evicted) = if vacant != 0 {
            (vacant.trailing_zeros() as usize, None)
        } else {
            let way = self.policy.choose_victim(set);
            let old = EvictedBlock {
                block: self.geom.block_from_parts(set, self.tags[base + way]),
                dirty: self.dirty[set] >> way & 1 != 0,
            };
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.dirty_evictions += 1;
            }
            (way, Some(old))
        };
        self.tags[base + way] = tag;
        self.valid[set] |= 1 << way;
        if write {
            self.dirty[set] |= 1 << way;
        } else {
            self.dirty[set] &= !(1 << way);
        }
        self.policy.on_insert(set, way);
        evicted
    }

    /// Whether `block` is currently cached. No state change.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.probe(block).is_some()
    }

    /// Removes `block` (coherence invalidation). Returns the block's state
    /// if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<EvictedBlock> {
        let set = self.geom.set_index(block);
        let way = self.find_way(set, self.geom.tag(block))?;
        let out = EvictedBlock { block, dirty: self.dirty[set] >> way & 1 != 0 };
        self.valid[set] &= !(1 << way);
        self.dirty[set] &= !(1 << way);
        self.stats.invalidations += 1;
        self.policy.on_invalidate(set, way);
        Some(out)
    }

    /// Marks `block` dirty if present (an inclusive outer cache absorbing
    /// a write-back from an inner cache). Returns whether it was present.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        let set = self.geom.set_index(block);
        if let Some(way) = self.find_way(set, self.geom.tag(block)) {
            self.dirty[set] |= 1 << way;
            true
        } else {
            false
        }
    }

    /// Downgrades `block` to clean (coherence: another core wants to read
    /// a dirty copy). Returns whether the block was present and dirty.
    pub fn clean(&mut self, block: BlockAddr) -> bool {
        let set = self.geom.set_index(block);
        if let Some(way) = self.find_way(set, self.geom.tag(block)) {
            let was_dirty = self.dirty[set] >> way & 1 != 0;
            self.dirty[set] &= !(1 << way);
            was_dirty
        } else {
            false
        }
    }

    /// Iterates the valid blocks of one set (used by the bloom signature's
    /// eviction-collision check).
    pub fn blocks_in_set(&self, set: usize) -> impl Iterator<Item = BlockAddr> + '_ {
        let base = set * self.assoc();
        let live = self.valid[set];
        (0..self.assoc())
            .filter(move |w| live >> w & 1 != 0)
            .map(move |w| self.geom.block_from_parts(set, self.tags[base + w]))
    }

    /// Iterates every valid block in the cache. O(num_blocks).
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.geom.num_sets() as usize).flat_map(move |s| self.blocks_in_set(s))
    }

    /// Number of valid blocks currently resident.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Invalidates everything (does not count as coherence invalidations).
    pub fn flush(&mut self) {
        for set in 0..self.valid.len() {
            let mut live = self.valid[set];
            while live != 0 {
                let way = live.trailing_zeros() as usize;
                self.policy.on_invalidate(set, way);
                live &= live - 1;
            }
            self.valid[set] = 0;
            self.dirty[set] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty(c: &Cache, b: BlockAddr) -> bool {
        c.probe(b).is_some_and(|w| c.is_dirty(w))
    }

    fn small_cache(policy: PolicyKind) -> Cache {
        // 2 sets x 2 ways of 64 B blocks.
        Cache::new(CacheGeometry::new(256, 2, 64), policy, 1)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(4);
        assert!(c.access(b, AccessKind::Read).is_miss());
        assert!(c.access(b, AccessKind::Read).is_hit());
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn eviction_reports_displaced_block() {
        let mut c = small_cache(PolicyKind::Lru);
        // Blocks 0, 2, 4 all map to set 0 (even block numbers, 2 sets).
        let (b0, b2, b4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.access(b0, AccessKind::Read);
        c.access(b2, AccessKind::Read);
        let res = c.access(b4, AccessKind::Read);
        assert_eq!(res.evicted(), Some(EvictedBlock { block: b0, dirty: false }));
        assert!(!c.contains(b0));
        assert!(c.contains(b2) && c.contains(b4));
    }

    #[test]
    fn lru_keeps_recently_used_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let (b0, b2, b4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.access(b0, AccessKind::Read);
        c.access(b2, AccessKind::Read);
        c.access(b0, AccessKind::Read); // promote b0
        let res = c.access(b4, AccessKind::Read);
        assert_eq!(res.evicted().unwrap().block, b2);
    }

    #[test]
    fn writes_mark_dirty_and_evictions_report_it() {
        let mut c = small_cache(PolicyKind::Lru);
        let (b0, b2, b4) = (BlockAddr::new(0), BlockAddr::new(2), BlockAddr::new(4));
        c.access(b0, AccessKind::Write);
        assert!(dirty(&c, b0));
        c.access(b2, AccessKind::Read);
        let res = c.access(b4, AccessKind::Read);
        assert_eq!(res.evicted(), Some(EvictedBlock { block: b0, dirty: true }));
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn write_hit_dirties_clean_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        c.access(b, AccessKind::Read);
        assert!(!dirty(&c, b));
        c.access(b, AccessKind::Write);
        assert!(dirty(&c, b));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        c.access(b, AccessKind::Write);
        let out = c.invalidate(b);
        assert_eq!(out, Some(EvictedBlock { block: b, dirty: true }));
        assert!(!c.contains(b));
        assert_eq!(c.invalidate(b), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn clean_downgrades_dirty_block() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        c.access(b, AccessKind::Write);
        assert!(c.clean(b));
        assert!(c.contains(b));
        assert!(!dirty(&c, b));
        assert!(!c.clean(b)); // already clean
        assert!(!c.clean(BlockAddr::new(99))); // absent
    }

    #[test]
    fn fill_installs_without_demand_stats() {
        let mut c = small_cache(PolicyKind::Lru);
        let b = BlockAddr::new(0);
        assert!(c.fill(b).is_none());
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(b, AccessKind::Read).is_hit());
        // Filling a resident block is a no-op.
        assert!(c.fill(b).is_none());
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn occupancy_and_blocks_iteration() {
        let mut c = small_cache(PolicyKind::Lru);
        for raw in [0u64, 1, 2, 3] {
            c.access(BlockAddr::new(raw), AccessKind::Read);
        }
        assert_eq!(c.occupancy(), 4);
        let mut all: Vec<_> = c.blocks().map(|b| b.raw()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
        let set0: Vec<_> = c.blocks_in_set(0).map(|b| b.raw()).collect();
        assert_eq!(set0.len(), 2);
        assert!(set0.iter().all(|r| r % 2 == 0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small_cache(PolicyKind::Lru);
        c.access(BlockAddr::new(0), AccessKind::Write);
        c.access(BlockAddr::new(1), AccessKind::Read);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(BlockAddr::new(0)));
        // Flush is not a coherence invalidation.
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn never_exceeds_associativity_per_set() {
        let mut c = small_cache(PolicyKind::Srrip);
        for raw in 0..100u64 {
            c.access(BlockAddr::new(raw), AccessKind::Read);
        }
        assert_eq!(c.occupancy(), 4); // 2 sets x 2 ways
        for set in 0..2 {
            assert!(c.blocks_in_set(set).count() <= 2);
        }
    }

    #[test]
    fn blocks_land_in_their_indexed_set() {
        let mut c = Cache::new(CacheGeometry::new(32 * 1024, 8, 64), PolicyKind::Lru, 0);
        let b = BlockAddr::new(0x1234);
        c.access(b, AccessKind::Read);
        let set = c.geometry().set_index(b);
        assert!(c.blocks_in_set(set).any(|x| x == b));
    }

    /// `probe` + `is_dirty` + `hit` must do exactly what `contains` +
    /// `access` did: same answers, same victims later, same contents.
    #[test]
    fn probe_then_hit_matches_access_under_every_policy() {
        use slicc_common::SplitMix64;
        for kind in PolicyKind::ALL {
            let geom = CacheGeometry::new(2048, 4, 64); // 8 sets x 4 ways
            let (mut fast, mut slow) = (Cache::new(geom, kind, 5), Cache::new(geom, kind, 5));
            let mut rng = SplitMix64::new(0x9e0b ^ kind as u64);
            for step in 0..20_000 {
                let b = BlockAddr::new(rng.next_below(96));
                let access = if rng.chance(0.4) { AccessKind::Write } else { AccessKind::Read };
                match rng.next_below(20) {
                    0 => assert_eq!(fast.invalidate(b), slow.invalidate(b), "{kind} step {step}"),
                    1 => assert_eq!(fast.clean(b), slow.clean(b), "{kind} step {step}"),
                    _ => {
                        let held = slow.contains(b);
                        let want = slow.access(b, access);
                        let got = match fast.probe(b) {
                            Some(way) => {
                                let was_dirty = fast.is_dirty(way);
                                fast.hit(way, access);
                                assert!(fast.is_dirty(way) == (was_dirty || access.is_write()));
                                LookupResult::Hit
                            }
                            None => fast.access(b, access),
                        };
                        assert_eq!(got.is_hit(), held, "{kind} step {step}");
                        assert_eq!(got, want, "{kind} step {step}: victims differ");
                    }
                }
            }
            assert_eq!(fast.stats(), slow.stats(), "{kind}");
            let (a, b): (Vec<_>, Vec<_>) = (fast.blocks().collect(), slow.blocks().collect());
            assert_eq!(a, b, "{kind}: contents differ");
        }
    }

    /// `holds(way, block)` answers exactly "would `probe(block)` return
    /// `way`", for ways remembered across installs, evictions,
    /// invalidations, cleans and prefetch fills.
    #[test]
    fn holds_agrees_with_probe_under_every_policy() {
        use slicc_common::SplitMix64;
        for kind in PolicyKind::ALL {
            let mut c = Cache::new(CacheGeometry::new(2048, 4, 64), kind, 7); // 8 sets x 4 ways
            let mut rng = SplitMix64::new(0x401d ^ kind as u64);
            let mut remembered: Vec<(BlockAddr, Way)> = Vec::new();
            for step in 0..20_000 {
                let b = BlockAddr::new(rng.next_below(96));
                match rng.next_below(10) {
                    0 => drop(c.invalidate(b)),
                    1 => drop(c.clean(b)),
                    2 => drop(c.fill(b)),
                    _ => {
                        let kind =
                            if rng.chance(0.4) { AccessKind::Write } else { AccessKind::Read };
                        c.access(b, kind);
                    }
                }
                if let Some(way) = c.probe(b) {
                    if remembered.len() < 64 {
                        remembered.push((b, way));
                    } else {
                        remembered[rng.next_below(64) as usize] = (b, way);
                    }
                }
                for &(block, way) in &remembered {
                    assert_eq!(
                        c.holds(way, block),
                        c.probe(block) == Some(way),
                        "{kind} step {step} block {block:?}"
                    );
                }
                // A way from another block's set never holds `b`.
                if let Some(&(_, way)) = remembered.first() {
                    if way.set != c.geometry().set_index(b) {
                        assert!(!c.holds(way, b), "{kind} step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_policies_function_under_thrash() {
        for kind in PolicyKind::ALL {
            let mut c = Cache::new(CacheGeometry::new(4096, 4, 64), kind, 3);
            // Working set of 3x capacity, cycled 10 times.
            let blocks: Vec<_> = (0..192u64).map(BlockAddr::new).collect();
            for _ in 0..10 {
                for &b in &blocks {
                    c.access(b, AccessKind::Read);
                }
            }
            let s = c.stats();
            assert_eq!(s.accesses, 1920, "{kind}");
            assert_eq!(s.hits + s.misses, s.accesses, "{kind}");
            assert!(c.occupancy() <= 64, "{kind}");
            // Thrash-resistant policies (BIP/BRRIP families) must beat or
            // match plain LRU's zero hits on a cyclic over-capacity sweep.
            if matches!(kind, PolicyKind::Lru) {
                assert_eq!(s.hits, 0, "LRU gets no hits on cyclic thrash");
            }
            if matches!(
                kind,
                PolicyKind::Bip | PolicyKind::Brrip | PolicyKind::Dip | PolicyKind::Drrip
            ) {
                assert!(s.hits > 0, "{kind} should retain part of the working set");
            }
        }
    }

    /// Random read/write traffic on random shapes, under every policy:
    /// occupancy never passes the capacity (or a set its ways), every
    /// resident block sits in its indexed set, a just-missed block hits,
    /// and the counters balance.
    #[test]
    fn random_traffic_keeps_occupancy_and_stats_balanced_under_every_policy() {
        use slicc_common::SplitMix64;
        let mut rng = SplitMix64::new(0x0cc0);
        for kind in PolicyKind::ALL {
            for _ in 0..16 {
                let sets = 2u64 << rng.next_below(4); // 2..16 sets
                let assoc = 1u32 << rng.next_below(3); // 1..4 ways
                let geom = CacheGeometry::new(sets * u64::from(assoc) * 64, assoc, 64);
                let mut c = Cache::new(geom, kind, rng.next_u64());
                for step in 0..rng.next_below(400) + 1 {
                    let b = BlockAddr::new(rng.next_below(512));
                    let access = if rng.chance(0.5) { AccessKind::Write } else { AccessKind::Read };
                    if c.access(b, access).is_miss() {
                        assert!(
                            c.access(b, AccessKind::Read).is_hit(),
                            "{kind} step {step}: a fill must hit"
                        );
                    }
                    assert!(c.occupancy() as u64 <= geom.num_blocks(), "{kind} step {step}");
                }
                for set in 0..geom.num_sets() as usize {
                    assert!(c.blocks_in_set(set).count() <= assoc as usize, "{kind}");
                    assert!(c.blocks_in_set(set).all(|b| geom.set_index(b) == set), "{kind}");
                }
                let s = c.stats();
                assert_eq!(s.hits + s.misses, s.accesses, "{kind}");
                assert!(s.write_misses <= s.misses, "{kind}");
                assert!(s.dirty_evictions <= s.evictions, "{kind}");
                // Everything resident arrived through a miss.
                assert!(c.occupancy() as u64 <= s.misses, "{kind}");
            }
        }
    }
}
