//! Per-core cycle accounting.
//!
//! The model charges, per retired instruction, a base cost (the
//! no-miss IPC of Table 2's 6-wide OoO core on OLTP code), and adds:
//!
//! - the **full** round-trip latency plus a pipeline-refill penalty for
//!   every L1-I miss (fetch starvation defeats out-of-order execution);
//! - a **fraction** of the round-trip latency for L1-D load misses (the
//!   ROB hides most of it while independent work retires), provided an
//!   MSHR is free — when all MSHRs are busy the latency is fully exposed;
//! - a small fraction for store misses (the store buffer retires them off
//!   the critical path).
//!
//! Cycle arithmetic uses millicycle fixed point so fractional base CPIs
//! accumulate exactly and deterministically.

use slicc_cache::{mshr::MshrOutcome, MshrFile};
use slicc_common::{BlockAddr, Cycle};

/// Timing-model parameters.
///
/// Fractions are in parts-per-thousand so the whole model is integer and
/// bit-deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Base instructions per cycle × 1000 (no-miss throughput).
    pub base_ipc_x1000: u64,
    /// Extra front-end refill cycles charged per instruction-cache miss,
    /// on top of the memory round trip.
    pub ifetch_refill_penalty: Cycle,
    /// Parts-per-thousand of a load miss hidden by out-of-order overlap
    /// when an MSHR is available.
    pub load_hide_x1000: u64,
    /// Parts-per-thousand of a store miss that remains visible (store
    /// buffer absorbs the rest).
    pub store_visible_x1000: u64,
    /// L1 data MSHRs bounding memory-level parallelism (Table 2: 32).
    pub num_mshrs: usize,
    /// Parts-per-thousand of one cycle charged *per L1-I access* (one per
    /// fetched block) for each cycle of hit latency beyond the baseline
    /// (branch redirects and fetch restarts expose deeper front-ends). This is what makes a
    /// 512 KiB L1-I slower than a 32 KiB one despite missing less —
    /// Figure 1's capacity/latency trade-off, and why the paper models
    /// PIF as a big cache *at the small cache's latency*.
    pub fetch_latency_sensitivity_x1000: u64,
    /// The pipeline's design-point L1-I hit latency (Table 2: 3-cycle
    /// load-to-use); only latency beyond this is charged.
    pub baseline_l1i_latency: Cycle,
}

impl TimingConfig {
    /// Defaults calibrated so the baseline reproduces the paper's stall
    /// composition: memory stalls ≈ 75–80% of cycles, instruction stalls
    /// ≈ 70–85% of stall cycles (§1, §5.2 citing \[28\]).
    pub fn paper_like() -> Self {
        TimingConfig {
            base_ipc_x1000: 2500,
            ifetch_refill_penalty: 10,
            load_hide_x1000: 750,
            store_visible_x1000: 50,
            num_mshrs: 32,
            fetch_latency_sensitivity_x1000: 1500,
            baseline_l1i_latency: 3,
        }
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::paper_like()
    }
}

impl slicc_common::StableHash for TimingConfig {
    fn stable_hash(&self, h: &mut slicc_common::StableHasher) {
        self.base_ipc_x1000.stable_hash(h);
        self.ifetch_refill_penalty.stable_hash(h);
        self.load_hide_x1000.stable_hash(h);
        self.store_visible_x1000.stable_hash(h);
        self.num_mshrs.stable_hash(h);
        self.fetch_latency_sensitivity_x1000.stable_hash(h);
        self.baseline_l1i_latency.stable_hash(h);
    }
}

/// Cycle/stall composition counters for one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles spent on base execution (millicycle-exact).
    pub base_cycles: Cycle,
    /// Cycles stalled on instruction misses.
    pub ifetch_stall_cycles: Cycle,
    /// Cycles lost to above-baseline L1-I hit latency (front-end depth).
    pub fetch_latency_cycles: Cycle,
    /// Cycles spent on TLB page walks.
    pub tlb_walk_cycles: Cycle,
    /// Cycles stalled on data misses (visible portion).
    pub data_stall_cycles: Cycle,
    /// Cycles spent transferring thread contexts (migrations).
    pub migration_cycles: Cycle,
    /// Cycles the core sat with no runnable thread.
    pub idle_cycles: Cycle,
}

// The 16 per-core blocks fold into RunMetrics via the workspace-wide
// `Merge` trait.
slicc_common::impl_merge_counters!(CoreStats {
    instructions,
    base_cycles,
    ifetch_stall_cycles,
    fetch_latency_cycles,
    tlb_walk_cycles,
    data_stall_cycles,
    migration_cycles,
    idle_cycles,
});

impl CoreStats {
    /// Total accounted cycles.
    pub fn total_cycles(&self) -> Cycle {
        self.base_cycles
            + self.ifetch_stall_cycles
            + self.fetch_latency_cycles
            + self.tlb_walk_cycles
            + self.data_stall_cycles
            + self.migration_cycles
            + self.idle_cycles
    }

    /// Fraction of non-idle cycles that are memory stalls.
    pub fn memory_stall_fraction(&self) -> f64 {
        let busy = self.total_cycles() - self.idle_cycles;
        if busy == 0 {
            return 0.0;
        }
        (self.ifetch_stall_cycles + self.data_stall_cycles) as f64 / busy as f64
    }

    /// Fraction of memory-stall cycles due to instruction misses.
    pub fn ifetch_stall_share(&self) -> f64 {
        let stalls = self.ifetch_stall_cycles + self.data_stall_cycles;
        if stalls == 0 {
            return 0.0;
        }
        self.ifetch_stall_cycles as f64 / stalls as f64
    }
}

/// The cycle-accounting engine for one core.
///
/// # Example
///
/// ```
/// use slicc_cpu::{CoreTimer, TimingConfig};
///
/// let mut timer = CoreTimer::new(TimingConfig::paper_like());
/// timer.retire_instruction();
/// timer.ifetch_miss(20);
/// assert!(timer.now() >= 20);
/// assert_eq!(timer.stats().instructions, 1);
/// ```
#[derive(Clone, Debug)]
pub struct CoreTimer {
    config: TimingConfig,
    /// Millicycles one retired instruction costs: `1_000_000 /
    /// base_ipc_x1000`, divided once here instead of per instruction.
    retire_millis: u64,
    /// Current local time in millicycles.
    now_millis: u64,
    /// Cumulative front-end latency millicycles (for exact stats).
    fetch_latency_millis: u64,
    mshrs: MshrFile,
    /// The counters charged in whole cycles. `base_cycles` and
    /// `fetch_latency_cycles` stay zero here: [`CoreTimer::stats`] derives
    /// them from the millicycle totals when read.
    stats: CoreStats,
}

impl CoreTimer {
    /// Creates a timer at local time zero.
    pub fn new(config: TimingConfig) -> Self {
        CoreTimer {
            config,
            retire_millis: 1_000_000 / config.base_ipc_x1000,
            now_millis: 0,
            fetch_latency_millis: 0,
            mshrs: MshrFile::new(config.num_mshrs),
            stats: CoreStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Current local time in whole cycles.
    pub fn now(&self) -> Cycle {
        self.now_millis / 1000
    }

    /// Accumulated composition counters. Base and front-end latency
    /// cycles accrue in millicycles and are rounded down to whole cycles
    /// here, as they are read.
    pub fn stats(&self) -> CoreStats {
        CoreStats {
            base_cycles: self.stats.instructions * self.retire_millis / 1000,
            fetch_latency_cycles: self.fetch_latency_millis / 1000,
            ..self.stats
        }
    }

    /// Charges the base cost of one retired instruction.
    #[inline]
    pub fn retire_instruction(&mut self) {
        self.now_millis += self.retire_millis;
        self.stats.instructions += 1;
    }

    /// Charges the front-end cost of an L1-I *hit* at `hit_latency`.
    /// Latency at or below the design point is free (the pipeline hides
    /// it); each extra cycle costs `fetch_latency_sensitivity` per
    /// instruction.
    pub fn ifetch_hit(&mut self, hit_latency: Cycle) {
        let extra = hit_latency.saturating_sub(self.config.baseline_l1i_latency);
        if extra == 0 {
            return;
        }
        let millis = extra * self.config.fetch_latency_sensitivity_x1000;
        self.now_millis += millis;
        self.fetch_latency_millis += millis;
    }

    /// Charges a full fetch stall for an instruction miss with the given
    /// memory round-trip latency.
    pub fn ifetch_miss(&mut self, round_trip: Cycle) {
        let stall = round_trip + self.config.ifetch_refill_penalty;
        self.now_millis += stall * 1000;
        self.stats.ifetch_stall_cycles += stall;
    }

    /// Charges the visible portion of a data miss. `block` and the
    /// completion time feed the MSHR occupancy model.
    pub fn data_miss(&mut self, block: BlockAddr, round_trip: Cycle, is_store: bool) {
        let now = self.now();
        self.mshrs.retire_before(now);
        let visible = if is_store {
            round_trip * self.config.store_visible_x1000 / 1000
        } else {
            match self.mshrs.register(block, now + round_trip) {
                MshrOutcome::Allocated | MshrOutcome::Merged(_) => {
                    round_trip * (1000 - self.config.load_hide_x1000) / 1000
                }
                MshrOutcome::Full(earliest) => {
                    // No MSHR: expose the wait until one frees, plus the
                    // unhidden part.
                    let wait = earliest.saturating_sub(now);
                    wait + round_trip * (1000 - self.config.load_hide_x1000) / 1000
                }
            }
        };
        self.now_millis += visible * 1000;
        self.stats.data_stall_cycles += visible;
    }

    /// Charges a TLB page walk. Instruction-side walks stall the front
    /// end fully; data-side walks overlap like loads do.
    pub fn tlb_walk(&mut self, cycles: Cycle, instruction_side: bool) {
        let visible = if instruction_side {
            cycles
        } else {
            cycles * (1000 - self.config.load_hide_x1000) / 1000
        };
        self.now_millis += visible * 1000;
        self.stats.tlb_walk_cycles += visible;
    }

    /// Charges thread-migration overhead (context save/restore, drain).
    pub fn migration(&mut self, cycles: Cycle) {
        self.now_millis += cycles * 1000;
        self.stats.migration_cycles += cycles;
    }

    /// Advances local time to `target` (at least), booking the gap as
    /// idle. No-op if `target` is in the past.
    pub fn idle_until(&mut self, target: Cycle) {
        let target_millis = target * 1000;
        if target_millis > self.now_millis {
            self.stats.idle_cycles += (target_millis - self.now_millis) / 1000;
            self.now_millis = target_millis;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> CoreTimer {
        CoreTimer::new(TimingConfig::paper_like())
    }

    #[test]
    fn base_cost_accumulates_fractionally() {
        let mut t = timer();
        // base IPC 2.5 -> 0.4 cycles per instruction.
        for _ in 0..10 {
            t.retire_instruction();
        }
        assert_eq!(t.now(), 4);
        assert_eq!(t.stats().instructions, 10);
    }

    #[test]
    fn ifetch_miss_stalls_fully_plus_refill() {
        let mut t = timer();
        t.ifetch_miss(20);
        assert_eq!(t.now(), 30); // 20 + 10 refill
        assert_eq!(t.stats().ifetch_stall_cycles, 30);
    }

    #[test]
    fn load_miss_is_mostly_hidden() {
        let mut t = timer();
        t.data_miss(BlockAddr::new(1), 100, false);
        // 25% visible.
        assert_eq!(t.now(), 25);
        assert_eq!(t.stats().data_stall_cycles, 25);
    }

    #[test]
    fn store_miss_is_nearly_free() {
        let mut t = timer();
        t.data_miss(BlockAddr::new(1), 100, true);
        assert_eq!(t.now(), 5);
    }

    #[test]
    fn instruction_misses_cost_more_than_data_misses() {
        // The §3.3 asymmetry that motivates SLICC.
        let mut ti = timer();
        let mut td = timer();
        ti.ifetch_miss(100);
        td.data_miss(BlockAddr::new(1), 100, false);
        assert!(ti.now() > 3 * td.now());
    }

    #[test]
    fn mshr_exhaustion_exposes_full_latency() {
        let cfg =
            TimingConfig { num_mshrs: 2, load_hide_x1000: 1000, ..TimingConfig::paper_like() };
        let mut t = CoreTimer::new(cfg);
        // Two loads fill both MSHRs; 100% hidden -> time stays 0.
        t.data_miss(BlockAddr::new(1), 100, false);
        t.data_miss(BlockAddr::new(2), 100, false);
        assert_eq!(t.now(), 0);
        // Third load must wait for an MSHR (earliest completes at 100).
        t.data_miss(BlockAddr::new(3), 100, false);
        assert_eq!(t.now(), 100);
    }

    #[test]
    fn merged_misses_do_not_double_allocate() {
        let cfg =
            TimingConfig { num_mshrs: 1, load_hide_x1000: 1000, ..TimingConfig::paper_like() };
        let mut t = CoreTimer::new(cfg);
        t.data_miss(BlockAddr::new(1), 100, false);
        // Same block: merges instead of stalling for a free MSHR.
        t.data_miss(BlockAddr::new(1), 100, false);
        assert_eq!(t.now(), 0);
    }

    #[test]
    fn migration_and_idle_accounting() {
        let mut t = timer();
        t.migration(80);
        assert_eq!(t.stats().migration_cycles, 80);
        t.idle_until(200);
        assert_eq!(t.stats().idle_cycles, 120);
        assert_eq!(t.now(), 200);
        // Idle into the past is a no-op.
        t.idle_until(100);
        assert_eq!(t.now(), 200);
    }

    #[test]
    fn stall_composition_metrics() {
        let mut t = timer();
        for _ in 0..1000 {
            t.retire_instruction();
        }
        t.ifetch_miss(90); // 100 with refill
        t.data_miss(BlockAddr::new(1), 100, false); // 25 visible
        let s = t.stats();
        assert!((s.ifetch_stall_share() - 0.8).abs() < 0.01, "{}", s.ifetch_stall_share());
        assert!(s.memory_stall_fraction() > 0.2);
        assert_eq!(s.total_cycles(), s.base_cycles + 100 + 25);
    }

    #[test]
    fn tlb_walks_are_charged_by_side() {
        let mut t = timer();
        t.tlb_walk(40, true);
        assert_eq!(t.now(), 40);
        t.tlb_walk(40, false); // 25% visible
        assert_eq!(t.now(), 50);
        assert_eq!(t.stats().tlb_walk_cycles, 50);
    }

    #[test]
    fn ifetch_hit_charges_only_above_design_point() {
        let mut t = timer();
        t.ifetch_hit(3); // at the design point: free
        assert_eq!(t.now(), 0);
        t.ifetch_hit(2); // below: free
        assert_eq!(t.now(), 0);
        // +2 cycles of latency at 1.5 cycles/access sensitivity.
        t.ifetch_hit(5);
        t.ifetch_hit(5);
        assert_eq!(t.now(), 6);
        assert_eq!(t.stats().fetch_latency_cycles, 6);
    }

    /// The stats derived when read equal counters kept up to date on
    /// every charge, after any sequence of charges.
    #[test]
    fn lazy_stats_equal_eager_accounting() {
        use slicc_common::SplitMix64;
        let mut rng = SplitMix64::new(0x7133);
        for ipc in [1000, 2500, 3000, 7] {
            let cfg = TimingConfig {
                base_ipc_x1000: ipc,
                baseline_l1i_latency: 2,
                num_mshrs: 4,
                ..TimingConfig::paper_like()
            };
            let mut t = CoreTimer::new(cfg);
            // The eager bookkeeping: base and front-end cycles refreshed
            // from their millicycle totals on every charge.
            let (mut eager, mut base_millis, mut fetch_millis) = (CoreStats::default(), 0u64, 0u64);
            for step in 0..20_000 {
                let before = t.stats();
                match rng.next_below(8) {
                    0..=3 => {
                        t.retire_instruction();
                        base_millis += 1_000_000 / ipc;
                        eager.instructions += 1;
                    }
                    4 => {
                        let latency = rng.next_below(6);
                        t.ifetch_hit(latency);
                        fetch_millis +=
                            latency.saturating_sub(2) * cfg.fetch_latency_sensitivity_x1000;
                    }
                    5 => {
                        let rt = rng.next_below(200);
                        t.ifetch_miss(rt);
                        eager.ifetch_stall_cycles += rt + cfg.ifetch_refill_penalty;
                    }
                    6 => {
                        t.data_miss(
                            BlockAddr::new(rng.next_below(16)),
                            rng.next_below(200),
                            rng.chance(0.45),
                        );
                        eager.data_stall_cycles +=
                            t.stats().data_stall_cycles - before.data_stall_cycles;
                    }
                    _ => {
                        let cycles = rng.next_below(50);
                        t.migration(cycles);
                        eager.migration_cycles += cycles;
                    }
                }
                eager.base_cycles = base_millis / 1000;
                eager.fetch_latency_cycles = fetch_millis / 1000;
                assert_eq!(t.stats(), eager, "ipc {ipc} step {step}");
            }
        }
    }

    #[test]
    fn zero_stats_metrics_are_zero() {
        let s = CoreStats::default();
        assert_eq!(s.memory_stall_fraction(), 0.0);
        assert_eq!(s.ifetch_stall_share(), 0.0);
    }
}
