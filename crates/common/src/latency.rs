//! Cache access latencies as a function of capacity.
//!
//! The paper uses CACTI 6 \[20\] to model how load-to-use latency grows with
//! L1 capacity (§2.1.1); CACTI itself is unavailable here, so this module
//! substitutes a fixed table with the same qualitative behaviour: the
//! baseline 32 KiB L1 takes 3 cycles (Table 2) and latency grows roughly
//! logarithmically with capacity. Figure 1's "speedup saturates because
//! bigger caches are slower" effect only needs this monotone growth.

use crate::Cycle;

/// Load-to-use latency (cycles) for an L1 cache of `size_bytes` capacity.
///
/// Values are anchored at the paper's baseline (32 KiB -> 3 cycles,
/// Table 2) and grow with capacity the way CACTI-modelled SRAM does.
/// Sizes between table entries round up to the next entry.
///
/// # Example
///
/// ```
/// use slicc_common::l1_latency_for_size;
/// assert_eq!(l1_latency_for_size(32 * 1024), 3);
/// assert!(l1_latency_for_size(512 * 1024) > l1_latency_for_size(32 * 1024));
/// ```
pub fn l1_latency_for_size(size_bytes: u64) -> Cycle {
    LatencyTable::cacti_like().l1_latency(size_bytes)
}

/// A monotone capacity -> latency mapping for L1 caches.
///
/// The table is the CACTI-6 substitute described in `DESIGN.md`; custom
/// tables support ablation experiments ("what if big caches were free?",
/// which the paper itself speculates about in §2.1.1: a 512 KiB L1-I at
/// 32 KiB latency would yield 61% speedup on TPC-C).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyTable {
    /// `(capacity_bytes, cycles)`, sorted ascending by capacity.
    entries: Vec<(u64, Cycle)>,
}

impl LatencyTable {
    /// The default CACTI-like table used across the workspace.
    pub fn cacti_like() -> Self {
        LatencyTable {
            entries: vec![
                (16 * 1024, 2),
                (32 * 1024, 3),
                (64 * 1024, 4),
                (128 * 1024, 5),
                (256 * 1024, 7),
                (512 * 1024, 9),
            ],
        }
    }

    /// A table with constant latency, used by the PIF upper-bound model
    /// (§5.6: "a 512KB cache, with the delay of a 32KB cache") and the
    /// idealized large-cache ablation.
    pub fn constant(latency: Cycle) -> Self {
        LatencyTable { entries: vec![(u64::MAX, latency)] }
    }

    /// Builds a table from custom `(capacity, cycles)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or not strictly ascending in both
    /// capacity and latency (the table must be monotone).
    pub fn from_entries(entries: Vec<(u64, Cycle)>) -> Self {
        assert!(!entries.is_empty(), "latency table must have at least one entry");
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "capacities must be strictly ascending");
            assert!(w[0].1 <= w[1].1, "latency must be non-decreasing with capacity");
        }
        LatencyTable { entries }
    }

    /// Latency for a cache of `size_bytes`; sizes between entries round up
    /// to the next entry, sizes beyond the table clamp to the last entry.
    pub fn l1_latency(&self, size_bytes: u64) -> Cycle {
        for &(cap, lat) in &self.entries {
            if size_bytes <= cap {
                return lat;
            }
        }
        self.entries.last().expect("table is non-empty").1
    }
}

impl crate::StableHash for LatencyTable {
    fn stable_hash(&self, h: &mut crate::StableHasher) {
        self.entries.stable_hash(h);
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        LatencyTable::cacti_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_2() {
        assert_eq!(l1_latency_for_size(32 * 1024), 3);
    }

    #[test]
    fn latency_is_monotone_in_capacity() {
        let sizes = [16, 32, 64, 128, 256, 512].map(|k| k * 1024u64);
        let lats: Vec<_> = sizes.iter().map(|&s| l1_latency_for_size(s)).collect();
        for w in lats.windows(2) {
            assert!(w[0] <= w[1], "latency decreased with capacity: {lats:?}");
        }
    }

    #[test]
    fn intermediate_sizes_round_up() {
        assert_eq!(l1_latency_for_size(48 * 1024), l1_latency_for_size(64 * 1024));
    }

    #[test]
    fn oversize_clamps_to_last_entry() {
        assert_eq!(l1_latency_for_size(4 * 1024 * 1024), 9);
    }

    #[test]
    fn constant_table_ignores_size() {
        let t = LatencyTable::constant(3);
        assert_eq!(t.l1_latency(16 * 1024), 3);
        assert_eq!(t.l1_latency(512 * 1024), 3);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_entries_rejects_unsorted() {
        let _ = LatencyTable::from_entries(vec![(64, 2), (32, 3)]);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn from_entries_rejects_empty() {
        let _ = LatencyTable::from_entries(vec![]);
    }
}
