//! The hardware thread-migration cost model.
//!
//! §4.4: "the thread migration performed in SLICC transfers architectural
//! register files as in Thread Motion \[25\]. The thread's context is saved
//! in the L2 cache closest to the target core and is then retrieved at the
//! target core." The model charges:
//!
//! - a pipeline drain at the source;
//! - `context_blocks` cache-line writes from the source core to the L2
//!   bank co-located with the target (source→target hops);
//! - `context_blocks` cache-line reads at the target from that bank
//!   (local bank: 0 hops);
//!
//! all through the L2's access port (its hit latency per line, pipelined
//! at one line per `pipeline_interval`).

use slicc_common::Cycle;

/// Cost parameters for one hardware thread migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationModel {
    /// Cache lines of architectural state (x86-64 integer + SSE register
    /// file and control state ≈ 4 x 64 B).
    pub context_blocks: u32,
    /// Cycles to drain the source pipeline before state can be captured.
    pub drain_cycles: Cycle,
    /// Cycles between successive context-line transfers (pipelined).
    pub pipeline_interval: Cycle,
}

impl slicc_common::StableHash for MigrationModel {
    fn stable_hash(&self, h: &mut slicc_common::StableHasher) {
        self.context_blocks.stable_hash(h);
        self.drain_cycles.stable_hash(h);
        self.pipeline_interval.stable_hash(h);
    }
}

impl MigrationModel {
    /// The default model used across the evaluation.
    pub fn paper_like() -> Self {
        MigrationModel { context_blocks: 4, drain_cycles: 20, pipeline_interval: 2 }
    }

    /// A free-migration model for upper-bound ablations.
    pub fn zero_cost() -> Self {
        MigrationModel { context_blocks: 0, drain_cycles: 0, pipeline_interval: 0 }
    }

    /// Total cycles the *thread* is off the critical path for one
    /// migration, given the one-way NoC latency from source to target and
    /// the L2 bank hit latency.
    ///
    /// Save: drain + (first line: src→bank latency + L2 write) + remaining
    /// lines pipelined. Restore at the target reads from its local bank:
    /// L2 latency + pipelined lines.
    pub fn cost(&self, src_to_target_noc: Cycle, l2_hit_latency: Cycle) -> Cycle {
        if self.context_blocks == 0 {
            return self.drain_cycles;
        }
        let pipelined = (self.context_blocks as Cycle - 1) * self.pipeline_interval;
        let save = src_to_target_noc + l2_hit_latency + pipelined;
        let restore = l2_hit_latency + pipelined;
        self.drain_cycles + save + restore
    }
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel::paper_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_like_cost_is_tens_of_cycles() {
        let m = MigrationModel::paper_like();
        // 2 hops away, 16-cycle L2: 20 + (2+16+6) + (16+6) = 66.
        assert_eq!(m.cost(2, 16), 66);
    }

    #[test]
    fn cost_grows_with_distance() {
        let m = MigrationModel::paper_like();
        assert!(m.cost(4, 16) > m.cost(1, 16));
        assert_eq!(m.cost(4, 16) - m.cost(1, 16), 3);
    }

    #[test]
    fn zero_cost_model_only_drains() {
        let m = MigrationModel::zero_cost();
        assert_eq!(m.cost(4, 16), 0);
    }

    #[test]
    fn more_context_costs_more() {
        let small = MigrationModel { context_blocks: 2, ..MigrationModel::paper_like() };
        let big = MigrationModel { context_blocks: 16, ..MigrationModel::paper_like() };
        assert!(big.cost(2, 16) > small.cost(2, 16));
    }

    #[test]
    fn migration_is_amortizable() {
        // The premise of §1: migration every ~3.2K instructions must cost
        // far less than the instruction-miss stalls it removes. At 0.4
        // cycles/instruction base, 3.2K instructions = 1280 cycles; one
        // migration is ~5% of that.
        let m = MigrationModel::paper_like();
        assert!(m.cost(4, 16) < 100);
    }
}
