//! An open-page DDR3 bank/row timing model.
//!
//! Table 2's memory system: DDR3 at 1.6 GT/s (800 MHz bus), 42 ns idle
//! latency, 2 channels × 1 rank × 8 banks, 8-byte bus, open-page policy,
//! and the timing set tCAS-10 / tRCD-10 / tRP-10 / tRAS-35 / tWR-15 …
//! The model tracks per-bank open rows and busy windows and classifies
//! each access as a row **hit** (open row), **closed** (bank precharged),
//! or **conflict** (different row open), charging the appropriate DDR3
//! timing converted into CPU cycles.

use slicc_common::{BlockAddr, Cycle};

/// DDR3 timing and geometry parameters, in *DRAM bus cycles* unless noted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramConfig {
    /// Independent channels (Table 2: 2).
    pub channels: u32,
    /// Banks per channel (Table 2: 8, single rank).
    pub banks_per_channel: u32,
    /// Row size in bytes (determines which blocks share a row buffer).
    pub row_bytes: u64,
    /// Column access strobe latency (tCAS).
    pub t_cas: u32,
    /// RAS-to-CAS delay (tRCD).
    pub t_rcd: u32,
    /// Row precharge time (tRP).
    pub t_rp: u32,
    /// Minimum row-active time (tRAS).
    pub t_ras: u32,
    /// Write recovery time (tWR).
    pub t_wr: u32,
    /// Bus transfer cycles for one cache block (64 B over an 8 B DDR bus:
    /// 8 beats = 4 bus cycles).
    pub t_burst: u32,
    /// CPU cycles per DRAM bus cycle (2.5 GHz core / 800 MHz bus =
    /// 3.125; the model rounds to fixed-point x1000).
    pub cpu_cycles_per_bus_cycle_x1000: u64,
}

impl slicc_common::StableHash for DramConfig {
    fn stable_hash(&self, h: &mut slicc_common::StableHasher) {
        self.channels.stable_hash(h);
        self.banks_per_channel.stable_hash(h);
        self.row_bytes.stable_hash(h);
        self.t_cas.stable_hash(h);
        self.t_rcd.stable_hash(h);
        self.t_rp.stable_hash(h);
        self.t_ras.stable_hash(h);
        self.t_wr.stable_hash(h);
        self.t_burst.stable_hash(h);
        self.cpu_cycles_per_bus_cycle_x1000.stable_hash(h);
    }
}

impl DramConfig {
    /// The paper's DDR3-1600 configuration (Table 2).
    pub fn paper_ddr3_1600() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 8,
            row_bytes: 8 * 1024,
            t_cas: 10,
            t_rcd: 10,
            t_rp: 10,
            t_ras: 35,
            t_wr: 15,
            t_burst: 4,
            cpu_cycles_per_bus_cycle_x1000: 3125, // 2.5 GHz / 800 MHz
        }
    }

    /// Converts a bus-cycle count into CPU cycles (rounding up).
    pub fn to_cpu_cycles(&self, bus_cycles: u32) -> Cycle {
        (bus_cycles as u64 * self.cpu_cycles_per_bus_cycle_x1000).div_ceil(1000)
    }

    /// Total banks across all channels.
    pub fn total_banks(&self) -> usize {
        (self.channels * self.banks_per_channel) as usize
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::paper_ddr3_1600()
    }
}

/// Row-buffer outcome counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Accesses served from an open row.
    pub row_hits: u64,
    /// Accesses to a precharged bank.
    pub row_closed: u64,
    /// Accesses that had to close a different open row first.
    pub row_conflicts: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write (write-back) accesses.
    pub writes: u64,
}

// Per-channel counters fold together via the workspace-wide `Merge` trait.
slicc_common::impl_merge_counters!(DramStats {
    row_hits,
    row_closed,
    row_conflicts,
    reads,
    writes
});

impl DramStats {
    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.row_hits + self.row_closed + self.row_conflicts
    }

    /// Fraction of accesses that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.row_hits as f64 / t as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Bank {
    open_row: Option<u64>,
    /// CPU-cycle time until which the bank is busy.
    busy_until: Cycle,
    /// CPU-cycle time at which the current row was activated (for tRAS).
    activated_at: Cycle,
}

/// The DRAM device model.
///
/// [`Dram::access`] maps a block to its channel/bank/row, applies
/// open-page timing, and returns the CPU-cycle completion time.
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle DRAM with all banks precharged.
    pub fn new(config: DramConfig) -> Self {
        let banks =
            vec![Bank { open_row: None, busy_until: 0, activated_at: 0 }; config.total_banks()];
        Dram { config, banks, stats: DramStats::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Zeroes the statistics (bank state is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Maps a block to `(bank_index, row)`.
    fn map(&self, block: BlockAddr) -> (usize, u64) {
        let blocks_per_row = self.config.row_bytes / 64;
        let channel = (block.raw() % self.config.channels as u64) as usize;
        let row_global = block.raw() / blocks_per_row;
        let bank_in_channel = (row_global % self.config.banks_per_channel as u64) as usize;
        let row = row_global / self.config.banks_per_channel as u64;
        (channel * self.config.banks_per_channel as usize + bank_in_channel, row)
    }

    /// Performs one block access starting no earlier than `now` (CPU
    /// cycles) and returns the completion time (CPU cycles).
    pub fn access(&mut self, block: BlockAddr, now: Cycle, is_write: bool) -> Cycle {
        let (bank_idx, row) = self.map(block);
        let cfg = self.config;
        let bank = &mut self.banks[bank_idx];

        // The command cannot start before the bank is free.
        let start = now.max(bank.busy_until);

        let (latency_bus, activated) = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                (cfg.t_cas + cfg.t_burst, bank.activated_at)
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                // Must satisfy tRAS for the currently open row before
                // precharging it.
                (cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_burst, start)
            }
            None => {
                self.stats.row_closed += 1;
                (cfg.t_rcd + cfg.t_cas + cfg.t_burst, start)
            }
        };
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        // Enforce tRAS on conflicts: the previous activation must have
        // been open at least tRAS before the precharge implied above.
        let t_ras_cpu = cfg.to_cpu_cycles(cfg.t_ras);
        let start = if matches!(bank.open_row, Some(r) if r != row) {
            start.max(bank.activated_at + t_ras_cpu)
        } else {
            start
        };

        let done = start + cfg.to_cpu_cycles(latency_bus);
        // Writes occupy the bank longer (write recovery).
        let busy_extra = if is_write { cfg.to_cpu_cycles(cfg.t_wr) } else { 0 };
        bank.open_row = Some(row);
        bank.activated_at = activated;
        bank.busy_until = done + busy_extra;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::paper_ddr3_1600())
    }

    #[test]
    fn idle_read_latency_is_about_42ns() {
        let mut d = dram();
        // Closed bank: tRCD + tCAS + burst = 24 bus cycles = 75 CPU
        // cycles = 30 ns; with queueing this approximates the paper's
        // 42 ns average loaded latency.
        let done = d.access(BlockAddr::new(0), 0, false);
        assert_eq!(done, DramConfig::paper_ddr3_1600().to_cpu_cycles(10 + 10 + 4));
        assert_eq!(d.stats().row_closed, 1);
    }

    #[test]
    fn row_hit_is_faster_than_closed_and_conflict() {
        let cfg = DramConfig::paper_ddr3_1600();
        let mut d = dram();
        let b = BlockAddr::new(0);
        let t1 = d.access(b, 0, false); // closed
        let t2 = d.access(b.offset(cfg.channels as u64), t1, false); // same row (stride skips channel bit)
        let hit_latency = t2 - t1;
        assert!(hit_latency < t1, "row hit {hit_latency} should beat closed {t1}");
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_is_slowest() {
        let cfg = DramConfig::paper_ddr3_1600();
        let mut d = dram();
        let blocks_per_row = cfg.row_bytes / 64;
        let b1 = BlockAddr::new(0);
        // Same bank, different row: jump banks*rows worth of blocks.
        let b2 =
            BlockAddr::new(blocks_per_row * cfg.banks_per_channel as u64 * cfg.channels as u64);
        assert_eq!(d.map(b1).0, d.map(b2).0, "must map to same bank");
        assert_ne!(d.map(b1).1, d.map(b2).1, "must map to different rows");
        let t1 = d.access(b1, 0, false);
        let start2 = t1 + 10_000; // long idle: tRAS satisfied
        let t2 = d.access(b2, start2, false) - start2;
        let closed = t1;
        assert!(t2 > closed, "conflict {t2} should exceed closed {closed}");
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn bank_busy_serializes_requests() {
        let mut d = dram();
        let b = BlockAddr::new(0);
        let t1 = d.access(b, 0, false);
        // Second access issued at time 0 must wait for the first.
        let t2 = d.access(b, 0, false);
        assert!(t2 > t1);
    }

    #[test]
    fn different_channels_do_not_serialize() {
        let mut d = dram();
        let b0 = BlockAddr::new(0); // channel 0
        let b1 = BlockAddr::new(1); // channel 1
        let t0 = d.access(b0, 0, false);
        let t1 = d.access(b1, 0, false);
        // Both start at 0 on independent banks: same closed-bank latency.
        assert_eq!(t0, t1);
    }

    #[test]
    fn writes_occupy_bank_longer() {
        let mut d1 = dram();
        let mut d2 = dram();
        let b = BlockAddr::new(0);
        let w = d1.access(b, 0, true);
        let r_after_w = d1.access(b, w, false);
        let r = d2.access(b, 0, false);
        let r_after_r = d2.access(b, r, false);
        assert!(r_after_w - w > r_after_r - r, "write recovery must delay the next access");
        assert_eq!(d1.stats().writes, 1);
        assert_eq!(d1.stats().reads, 1);
    }

    #[test]
    fn completion_never_precedes_issue() {
        use slicc_common::SplitMix64;
        let mut d = dram();
        let mut rng = SplitMix64::new(1);
        let mut now = 0;
        for _ in 0..1000 {
            let b = BlockAddr::new(rng.next_below(1 << 24));
            let done = d.access(b, now, rng.chance(0.45));
            assert!(done > now);
            now += rng.next_below(20);
        }
        assert_eq!(d.stats().total(), 1000);
    }

    #[test]
    fn row_hit_rate_metric() {
        let mut d = dram();
        let b = BlockAddr::new(0);
        let mut now = 0;
        for _ in 0..10 {
            now = d.access(b, now, false);
        }
        // 1 closed + 9 hits.
        assert!((d.stats().row_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cpu_cycle_conversion_rounds_up() {
        let cfg = DramConfig::paper_ddr3_1600();
        assert_eq!(cfg.to_cpu_cycles(1), 4); // 3.125 -> 4
        assert_eq!(cfg.to_cpu_cycles(8), 25); // 25.0 exactly
        assert_eq!(cfg.total_banks(), 16);
    }

    #[test]
    fn completion_monotone_per_bank_over_random_sequences() {
        // Property: for any access sequence, a bank's completions are
        // strictly increasing in issue order. Checked over deterministic
        // random sequences (the external proptest crate is kept out of
        // the offline build, DESIGN.md §5).
        use slicc_common::SplitMix64;
        let mut rng = SplitMix64::new(0xD12A);
        for _ in 0..64 {
            let mut d = Dram::new(DramConfig::paper_ddr3_1600());
            let mut last_done_per_bank = std::collections::HashMap::new();
            let mut now = 0u64;
            let len = 1 + rng.next_below(199) as usize;
            for _ in 0..len {
                let b = BlockAddr::new(rng.next_below(1 << 20));
                let w = rng.chance(0.5);
                let bank = d.map(b).0;
                let done = d.access(b, now, w);
                assert!(done > now);
                if let Some(&prev) = last_done_per_bank.get(&bank) {
                    assert!(done > prev, "bank {bank} went backwards");
                }
                last_done_per_bank.insert(bank, done);
                now += 3;
            }
        }
    }

    #[test]
    fn reset_stats_only_clears_counters() {
        let mut d = dram();
        d.access(BlockAddr::new(0), 0, false);
        d.reset_stats();
        assert_eq!(d.stats().total(), 0);
        // Row remains open: next access is a row hit.
        d.access(BlockAddr::new(0), 1000, false);
        assert_eq!(d.stats().row_hits, 1);
    }
}
