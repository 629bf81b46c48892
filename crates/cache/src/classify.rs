//! The 3C miss taxonomy: compulsory / capacity / conflict.
//!
//! Figure 1 of the paper breaks L1 misses into Hill & Smith's three
//! categories \[10\] to show that OLTP *instruction* misses are dominated by
//! capacity (the footprint has reuse but doesn't fit) while *data* misses
//! are dominated by compulsory (first touch). The classifier runs beside a
//! real cache:
//!
//! - **compulsory** — the first access ever to the block;
//! - **conflict** — the block would have hit in a fully-associative LRU
//!   cache of the same capacity (so only the limited associativity lost it);
//! - **capacity** — it would have missed even fully-associatively.

use crate::lru_list::LruList;
use slicc_common::BlockAddr;
use std::collections::HashMap;
use std::fmt;

/// One of Hill & Smith's three miss categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to the block.
    Compulsory,
    /// Would have hit fully-associatively: lost to limited associativity.
    Conflict,
    /// Would have missed even fully-associatively: the working set simply
    /// exceeds the capacity.
    Capacity,
}

impl MissClass {
    /// All classes, in Figure 1's legend order.
    pub const ALL: [MissClass; 3] = [MissClass::Conflict, MissClass::Capacity, MissClass::Compulsory];

    /// Display label matching the paper's figure legend.
    pub const fn name(self) -> &'static str {
        match self {
            MissClass::Compulsory => "Compulsory",
            MissClass::Conflict => "Conflict",
            MissClass::Capacity => "Capacity",
        }
    }
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts of misses per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissBreakdown {
    /// Compulsory misses observed.
    pub compulsory: u64,
    /// Conflict misses observed.
    pub conflict: u64,
    /// Capacity misses observed.
    pub capacity: u64,
}

impl MissBreakdown {
    /// Total classified misses.
    pub fn total(&self) -> u64 {
        self.compulsory + self.conflict + self.capacity
    }

    /// The count for one class.
    pub fn count(&self, class: MissClass) -> u64 {
        match class {
            MissClass::Compulsory => self.compulsory,
            MissClass::Conflict => self.conflict,
            MissClass::Capacity => self.capacity,
        }
    }

    /// Adds one miss of the given class.
    pub fn record(&mut self, class: MissClass) {
        match class {
            MissClass::Compulsory => self.compulsory += 1,
            MissClass::Conflict => self.conflict += 1,
            MissClass::Capacity => self.capacity += 1,
        }
    }
}

// Per-core breakdowns fold into the run-level one via the workspace-wide
// `Merge` trait.
slicc_common::impl_merge_counters!(MissBreakdown { compulsory, conflict, capacity });

/// Classifies the misses of one cache into the 3C taxonomy.
///
/// Drive it with *every* access of the monitored cache (hits included —
/// the fully-associative shadow must see the full reference stream), and
/// read the class back for accesses the real cache missed.
///
/// # Example
///
/// ```
/// use slicc_cache::{MissClass, ThreeCClassifier};
/// use slicc_common::BlockAddr;
///
/// let mut c = ThreeCClassifier::new(2); // shadow capacity: 2 blocks
/// assert_eq!(c.observe(BlockAddr::new(1)), MissClass::Compulsory);
/// assert_eq!(c.observe(BlockAddr::new(2)), MissClass::Compulsory);
/// assert_eq!(c.observe(BlockAddr::new(3)), MissClass::Compulsory);
/// // Block 1 was pushed out of the 2-block shadow by 2 and 3.
/// assert_eq!(c.observe(BlockAddr::new(1)), MissClass::Capacity);
/// ```
#[derive(Clone, Debug)]
pub struct ThreeCClassifier {
    /// Blocks ever seen (for compulsory detection). Value: arena slot in
    /// the shadow, or `usize::MAX` when currently not shadow-resident.
    seen: HashMap<BlockAddr, usize>,
    /// Fully-associative LRU shadow cache (block -> arena slot handles).
    shadow_lru: LruList,
    /// Arena slot -> block, for evicting.
    slot_block: Vec<BlockAddr>,
    /// Free arena slots.
    free_slots: Vec<usize>,
    capacity_blocks: usize,
    breakdown: MissBreakdown,
}

const NOT_RESIDENT: usize = usize::MAX;

impl ThreeCClassifier {
    /// Creates a classifier whose fully-associative shadow holds
    /// `capacity_blocks` blocks (use the monitored cache's block count).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    pub fn new(capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "shadow capacity must be positive");
        ThreeCClassifier {
            seen: HashMap::new(),
            shadow_lru: LruList::new(capacity_blocks),
            slot_block: vec![BlockAddr::new(0); capacity_blocks],
            free_slots: (0..capacity_blocks).rev().collect(),
            capacity_blocks,
            breakdown: MissBreakdown::default(),
        }
    }

    /// Observes one access and returns the class the access *would* have
    /// if the real cache missed it. The caller records it into the
    /// breakdown via [`ThreeCClassifier::observe_miss`] only when the real
    /// cache actually missed; hits still update the shadow through this
    /// method.
    pub fn observe(&mut self, block: BlockAddr) -> MissClass {
        match self.seen.get(&block).copied() {
            None => {
                // First-ever touch.
                let slot = self.shadow_insert(block);
                self.seen.insert(block, slot);
                MissClass::Compulsory
            }
            Some(NOT_RESIDENT) => {
                // Seen before but fell out of the fully-associative
                // shadow: a true capacity re-miss.
                let slot = self.shadow_insert(block);
                self.seen.insert(block, slot);
                MissClass::Capacity
            }
            Some(slot) => {
                // Fully-associative LRU would have hit: if the real cache
                // missed, blame associativity.
                self.shadow_lru.touch(slot);
                MissClass::Conflict
            }
        }
    }

    /// Observes an access the real cache missed: classifies it *and*
    /// accumulates the breakdown.
    pub fn observe_miss(&mut self, block: BlockAddr) -> MissClass {
        let class = self.observe(block);
        self.breakdown.record(class);
        class
    }

    fn shadow_insert(&mut self, block: BlockAddr) -> usize {
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                let victim = self.shadow_lru.pop_lru().expect("shadow is full, so non-empty");
                let victim_block = self.slot_block[victim];
                self.seen.insert(victim_block, NOT_RESIDENT);
                victim
            }
        };
        self.slot_block[slot] = block;
        self.shadow_lru.push_mru(slot);
        slot
    }

    /// The accumulated per-class miss counts.
    pub fn breakdown(&self) -> MissBreakdown {
        self.breakdown
    }

    /// Number of distinct blocks ever observed (the trace's block
    /// footprint).
    pub fn unique_blocks(&self) -> usize {
        self.seen.len()
    }

    /// The shadow capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = ThreeCClassifier::new(8);
        assert_eq!(c.observe(BlockAddr::new(1)), MissClass::Compulsory);
        assert_eq!(c.unique_blocks(), 1);
    }

    #[test]
    fn rereference_within_capacity_is_conflict() {
        let mut c = ThreeCClassifier::new(8);
        c.observe(BlockAddr::new(1));
        // Still shadow-resident: a real-cache miss here is conflict.
        assert_eq!(c.observe(BlockAddr::new(1)), MissClass::Conflict);
    }

    #[test]
    fn rereference_beyond_capacity_is_capacity() {
        let mut c = ThreeCClassifier::new(2);
        c.observe(BlockAddr::new(1));
        c.observe(BlockAddr::new(2));
        c.observe(BlockAddr::new(3)); // evicts 1
        assert_eq!(c.observe(BlockAddr::new(1)), MissClass::Capacity);
    }

    #[test]
    fn lru_order_respected_by_shadow() {
        let mut c = ThreeCClassifier::new(2);
        c.observe(BlockAddr::new(1));
        c.observe(BlockAddr::new(2));
        c.observe(BlockAddr::new(1)); // touch 1: now 2 is LRU
        c.observe(BlockAddr::new(3)); // evicts 2
        assert_eq!(c.observe(BlockAddr::new(1)), MissClass::Conflict);
        assert_eq!(c.observe(BlockAddr::new(2)), MissClass::Capacity);
    }

    #[test]
    fn cyclic_thrash_is_all_capacity_after_first_pass() {
        let mut c = ThreeCClassifier::new(4);
        let blocks: Vec<_> = (0..8u64).map(BlockAddr::new).collect();
        for &b in &blocks {
            assert_eq!(c.observe_miss(b), MissClass::Compulsory);
        }
        for _ in 0..3 {
            for &b in &blocks {
                assert_eq!(c.observe_miss(b), MissClass::Capacity);
            }
        }
        let bd = c.breakdown();
        assert_eq!(bd.compulsory, 8);
        assert_eq!(bd.capacity, 24);
        assert_eq!(bd.conflict, 0);
        assert_eq!(bd.total(), 32);
    }

    #[test]
    fn breakdown_counts_only_observed_misses() {
        let mut c = ThreeCClassifier::new(4);
        c.observe(BlockAddr::new(1)); // hit path: not recorded
        assert_eq!(c.breakdown().total(), 0);
        c.observe_miss(BlockAddr::new(2));
        assert_eq!(c.breakdown().compulsory, 1);
    }

    #[test]
    fn classes_partition_every_miss() {
        use slicc_common::SplitMix64;
        let mut c = ThreeCClassifier::new(16);
        let mut rng = SplitMix64::new(11);
        let mut total = 0u64;
        for _ in 0..5000 {
            c.observe_miss(BlockAddr::new(rng.next_below(64)));
            total += 1;
        }
        assert_eq!(c.breakdown().total(), total);
    }

    #[test]
    fn count_accessor_matches_fields() {
        let mut bd = MissBreakdown::default();
        bd.record(MissClass::Conflict);
        bd.record(MissClass::Conflict);
        bd.record(MissClass::Capacity);
        assert_eq!(bd.count(MissClass::Conflict), 2);
        assert_eq!(bd.count(MissClass::Capacity), 1);
        assert_eq!(bd.count(MissClass::Compulsory), 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(MissClass::Capacity.to_string(), "Capacity");
        assert_eq!(MissClass::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = ThreeCClassifier::new(0);
    }
}
