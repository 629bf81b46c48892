//! Interval time-series: epoch-resolved counter deltas.
//!
//! The sampler snapshots a small set of cumulative simulation counters
//! ([`ObsCounters`]) roughly every `epoch_cycles` of simulated time and
//! stores the *delta* since the previous snapshot as one [`Epoch`].
//! Because epochs are telescoping differences of one cumulative stream,
//! their per-counter sums reconcile **exactly** with the end-of-run
//! totals — the final partial epoch is always flushed at
//! [`IntervalSampler::finish`] — which is what makes the series
//! trustworthy as a decomposition of `RunMetrics` rather than a second,
//! slightly-different accounting.
//!
//! Epoch boundaries are sampled opportunistically from the engine's
//! min-heap loop: under the min-heap discipline the popped core's local
//! clock is the global progress floor, so each epoch closes at the first
//! heap step whose floor passed the boundary. End cycles are therefore
//! honest sample times (≥ the nominal boundary), not rounded-down
//! labels.

use slicc_common::{json_f64, Cycle};
use std::fmt::Write as _;

/// The cumulative counters the sampler tracks. A tiny, `Copy` subset of
/// the full metrics: enough for MPKI / IPC / migration-rate curves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Instructions retired.
    pub instructions: u64,
    /// L1-I misses.
    pub i_misses: u64,
    /// L1-D misses.
    pub d_misses: u64,
    /// Thread migrations.
    pub migrations: u64,
}

/// One sampled interval: counter deltas over `[start_cycle, end_cycle)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Epoch {
    /// Cycle the interval opened at.
    pub start_cycle: Cycle,
    /// Cycle the interval closed at (the sample time).
    pub end_cycle: Cycle,
    /// Instructions retired in the interval.
    pub instructions: u64,
    /// L1-I misses in the interval.
    pub i_misses: u64,
    /// L1-D misses in the interval.
    pub d_misses: u64,
    /// Migrations in the interval.
    pub migrations: u64,
}

impl Epoch {
    /// L1-I misses per kilo-instruction in this interval.
    pub fn i_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.i_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1-D misses per kilo-instruction in this interval.
    pub fn d_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.d_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Machine-wide instructions per cycle in this interval.
    pub fn ipc(&self) -> f64 {
        let cycles = self.end_cycle.saturating_sub(self.start_cycle);
        if cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / cycles as f64
        }
    }
}

/// The full epoch series of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntervalSeries {
    /// The nominal epoch length the sampler was configured with.
    pub epoch_cycles: Cycle,
    /// The sampled epochs, in time order.
    pub epochs: Vec<Epoch>,
}

impl IntervalSeries {
    /// Sums the epoch deltas. Equals the run's cumulative totals exactly
    /// (the reconciliation invariant the integration tests pin down).
    pub fn totals(&self) -> ObsCounters {
        let mut t = ObsCounters::default();
        for e in &self.epochs {
            t.instructions += e.instructions;
            t.i_misses += e.i_misses;
            t.d_misses += e.d_misses;
            t.migrations += e.migrations;
        }
        t
    }

    /// The last `k` epochs (diagnostic snapshots).
    pub fn tail(&self, k: usize) -> &[Epoch] {
        &self.epochs[self.epochs.len().saturating_sub(k)..]
    }

    /// Renders the series as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "epoch,start_cycle,end_cycle,instructions,i_misses,d_misses,migrations,i_mpki,d_mpki,ipc\n",
        );
        for (i, e) in self.epochs.iter().enumerate() {
            let _ = writeln!(
                s,
                "{i},{},{},{},{},{},{},{:.4},{:.4},{:.4}",
                e.start_cycle,
                e.end_cycle,
                e.instructions,
                e.i_misses,
                e.d_misses,
                e.migrations,
                e.i_mpki(),
                e.d_mpki(),
                e.ipc()
            );
        }
        s
    }

    /// Renders the series as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"epoch_cycles\": {},", self.epoch_cycles);
        s.push_str("  \"epochs\": [\n");
        for (i, e) in self.epochs.iter().enumerate() {
            let comma = if i + 1 < self.epochs.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"start_cycle\": {}, \"end_cycle\": {}, \"instructions\": {}, \
                 \"i_misses\": {}, \"d_misses\": {}, \"migrations\": {}, \
                 \"i_mpki\": {}, \"d_mpki\": {}, \"ipc\": {}}}{comma}",
                e.start_cycle,
                e.end_cycle,
                e.instructions,
                e.i_misses,
                e.d_misses,
                e.migrations,
                json_f64(e.i_mpki()),
                json_f64(e.d_mpki()),
                json_f64(e.ipc())
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Closes epochs as the simulation's progress floor crosses nominal
/// boundaries; see the module docs for the exactness argument.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    epoch_cycles: Cycle,
    next_boundary: Cycle,
    last_cycle: Cycle,
    last: ObsCounters,
    series: IntervalSeries,
}

impl IntervalSampler {
    /// A sampler with nominal epoch length `epoch_cycles` (clamped ≥ 1).
    pub fn new(epoch_cycles: Cycle) -> Self {
        let epoch_cycles = epoch_cycles.max(1);
        IntervalSampler {
            epoch_cycles,
            next_boundary: epoch_cycles,
            last_cycle: 0,
            last: ObsCounters::default(),
            series: IntervalSeries { epoch_cycles, epochs: Vec::new() },
        }
    }

    /// Whether the progress floor `now` has crossed the next boundary.
    /// One compare — cheap enough for the engine's per-step loop.
    #[inline(always)]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_boundary
    }

    /// Closes the current epoch at `now` given the cumulative counters
    /// `cum`, and arms the next boundary past `now`.
    pub fn sample(&mut self, now: Cycle, cum: ObsCounters) {
        self.push_epoch(now, cum);
        // Skip boundaries the floor already passed: one long heap step
        // yields one (longer) epoch, not a burst of empty ones.
        self.next_boundary = (now / self.epoch_cycles + 1) * self.epoch_cycles;
    }

    /// The series accumulated so far (diagnostic snapshots of a run that
    /// has not finished).
    pub fn series(&self) -> &IntervalSeries {
        &self.series
    }

    /// Flushes the final partial epoch at `makespan` and returns the
    /// completed series. The flush is what guarantees
    /// `series.totals() == cum` exactly.
    pub fn finish(mut self, makespan: Cycle, cum: ObsCounters) -> IntervalSeries {
        if cum != self.last || makespan > self.last_cycle || self.series.epochs.is_empty() {
            self.push_epoch(makespan.max(self.last_cycle), cum);
        }
        self.series
    }

    fn push_epoch(&mut self, end: Cycle, cum: ObsCounters) {
        self.series.epochs.push(Epoch {
            start_cycle: self.last_cycle,
            end_cycle: end,
            instructions: cum.instructions - self.last.instructions,
            i_misses: cum.i_misses - self.last.i_misses,
            d_misses: cum.d_misses - self.last.d_misses,
            migrations: cum.migrations - self.last.migrations,
        });
        self.last_cycle = end;
        self.last = cum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(instructions: u64, i_misses: u64) -> ObsCounters {
        ObsCounters { instructions, i_misses, d_misses: i_misses / 2, migrations: i_misses / 4 }
    }

    #[test]
    fn epoch_sums_reconcile_with_cumulative_totals() {
        let mut s = IntervalSampler::new(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.sample(105, cum(1000, 40));
        s.sample(230, cum(2500, 90));
        let series = s.finish(260, cum(3000, 100));
        assert_eq!(series.epochs.len(), 3);
        assert_eq!(series.totals(), cum(3000, 100));
        assert_eq!(series.epochs[0].start_cycle, 0);
        assert_eq!(series.epochs[0].end_cycle, 105);
        assert_eq!(series.epochs[1].start_cycle, 105);
        assert_eq!(series.epochs[2].end_cycle, 260);
    }

    #[test]
    fn boundaries_skip_past_long_steps_without_empty_epochs() {
        let mut s = IntervalSampler::new(100);
        s.sample(950, cum(10, 1)); // floor jumped over 9 boundaries at once
        assert!(!s.due(999));
        assert!(s.due(1000));
        let series = s.finish(1000, cum(20, 2));
        assert_eq!(series.epochs.len(), 2);
    }

    #[test]
    fn an_empty_run_still_yields_one_covering_epoch() {
        let series = IntervalSampler::new(50).finish(0, ObsCounters::default());
        assert_eq!(series.epochs.len(), 1);
        assert_eq!(series.totals(), ObsCounters::default());
    }

    #[test]
    fn csv_and_json_render_every_epoch() {
        let mut s = IntervalSampler::new(10);
        s.sample(10, cum(100, 10));
        let series = s.finish(15, cum(150, 12));
        let csv = series.to_csv();
        assert_eq!(csv.lines().count(), 1 + series.epochs.len());
        assert!(csv.starts_with("epoch,start_cycle"));
        let json = series.to_json();
        assert!(json.contains("\"epoch_cycles\": 10"));
        assert_eq!(json.matches("start_cycle").count(), series.epochs.len());
    }
}
