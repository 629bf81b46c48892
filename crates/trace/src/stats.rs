//! Trace-level analyses: block-reuse breakdown (Figure 3) and footprints.
//!
//! Figure 3 classifies every instruction access by how many threads touch
//! the accessed block over the whole run: **single** (one thread), **few**
//! (at most 60% of the threads), and **most** (more than 60%). The paper
//! computes this globally and per transaction type, showing 98%
//! commonality among same-type threads.

use crate::workload::WorkloadSpec;
use slicc_common::TxnTypeId;
use std::collections::HashMap;

/// Fractions of instruction accesses by block-reuse class (sums to 1).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReuseBreakdown {
    /// Accesses to blocks touched by exactly one thread.
    pub single: f64,
    /// Accesses to blocks touched by more than one but at most 60% of
    /// threads.
    pub few: f64,
    /// Accesses to blocks touched by more than 60% of threads.
    pub most: f64,
}

impl ReuseBreakdown {
    /// Builds fractions from raw access counts.
    fn from_counts(single: u64, few: u64, most: u64) -> Self {
        let total = (single + few + most) as f64;
        if total == 0.0 {
            return ReuseBreakdown::default();
        }
        ReuseBreakdown {
            single: single as f64 / total,
            few: few as f64 / total,
            most: most as f64 / total,
        }
    }
}

/// Per-block observation: which threads touched it and how often.
#[derive(Clone, Debug, Default)]
struct BlockUse {
    accesses: u64,
    threads: Vec<u32>, // sorted unique thread ids
}

impl BlockUse {
    fn touch(&mut self, thread: u32) {
        self.accesses += 1;
        if let Err(pos) = self.threads.binary_search(&thread) {
            self.threads.insert(pos, thread);
        }
    }
}

/// Computes Figure 3's access breakdown by instruction-block reuse.
///
/// With `per_type = false` the 60% threshold applies to all threads of
/// the workload ("Global"); with `per_type = true` each access is
/// classified against the threads *of its own transaction type* and the
/// result aggregates over types ("Per Transaction").
///
/// This walks every thread's full trace; cost is proportional to the
/// workload's total instruction count.
pub fn instruction_reuse(spec: &WorkloadSpec, per_type: bool) -> ReuseBreakdown {
    // First pass: per block, the set of threads touching it, split by the
    // classification domain (global or per-type).
    let mut domains: HashMap<Option<TxnTypeId>, (u32, HashMap<u64, BlockUse>)> = HashMap::new();
    for thread in spec.threads() {
        let domain = per_type.then(|| spec.thread_type(thread));
        let entry = domains.entry(domain).or_insert_with(|| (0, HashMap::new()));
        entry.0 += 1;
        for rec in spec.thread_trace(thread) {
            entry.1.entry(rec.pc.block(64).raw()).or_default().touch(thread.raw());
        }
    }

    let (mut single, mut few, mut most) = (0u64, 0u64, 0u64);
    for (_, (threads_in_domain, blocks)) in domains {
        let threshold = 0.6 * threads_in_domain as f64;
        for block_use in blocks.values() {
            let n = block_use.threads.len();
            if n == 1 {
                single += block_use.accesses;
            } else if (n as f64) <= threshold {
                few += block_use.accesses;
            } else {
                most += block_use.accesses;
            }
        }
    }
    ReuseBreakdown::from_counts(single, few, most)
}

/// Footprint measurements for one workload.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FootprintStats {
    /// Mean distinct instruction bytes touched per thread.
    pub mean_instruction_bytes: f64,
    /// Mean distinct data bytes touched per thread.
    pub mean_data_bytes: f64,
    /// Distinct instruction bytes across all threads.
    pub total_instruction_bytes: u64,
    /// Total instructions across all threads.
    pub total_instructions: u64,
}

impl FootprintStats {
    /// Measures footprints by walking every thread's trace.
    pub fn measure(spec: &WorkloadSpec) -> Self {
        let mut all_iblocks = std::collections::HashSet::new();
        let mut sum_i = 0u64;
        let mut sum_d = 0u64;
        let mut instructions = 0u64;
        let threads = spec.num_tasks.max(1) as u64;
        for thread in spec.threads() {
            let mut iblocks = std::collections::HashSet::new();
            let mut dblocks = std::collections::HashSet::new();
            for rec in spec.thread_trace(thread) {
                instructions += 1;
                iblocks.insert(rec.pc.block(64).raw());
                if let Some(d) = rec.data {
                    dblocks.insert(d.addr.block(64).raw());
                }
            }
            sum_i += iblocks.len() as u64;
            sum_d += dblocks.len() as u64;
            all_iblocks.extend(iblocks);
        }
        FootprintStats {
            mean_instruction_bytes: sum_i as f64 * 64.0 / threads as f64,
            mean_data_bytes: sum_d as f64 * 64.0 / threads as f64,
            total_instruction_bytes: all_iblocks.len() as u64 * 64,
            total_instructions: instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TraceScale, Workload};

    #[test]
    fn fractions_sum_to_one() {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        for per_type in [false, true] {
            let r = instruction_reuse(&spec, per_type);
            assert!((r.single + r.few + r.most - 1.0).abs() < 1e-9, "{r:?}");
        }
    }

    #[test]
    fn per_type_commonality_exceeds_global() {
        // §2.1.3: "98% of the instruction cache blocks are common among
        // threads executing the same transaction type" — per-type `most`
        // must dominate and exceed the global one.
        let spec = Workload::TpcC1.spec(TraceScale::tiny().with_tasks(24));
        let global = instruction_reuse(&spec, false);
        let per_type = instruction_reuse(&spec, true);
        assert!(per_type.most >= global.most, "per-type {per_type:?} vs global {global:?}");
        assert!(per_type.most > 0.7, "{per_type:?}");
    }

    #[test]
    fn mapreduce_is_all_most() {
        // Every MapReduce thread runs the same kernel.
        let spec = Workload::MapReduce.spec(TraceScale::tiny());
        let r = instruction_reuse(&spec, false);
        assert!(r.most > 0.95, "{r:?}");
    }

    #[test]
    fn footprints_match_workload_structure() {
        let spec = Workload::TpcC1.spec(TraceScale::tiny().with_tasks(12));
        let fp = FootprintStats::measure(&spec);
        // Tiny scale: 16-block segments = 1 KiB each; OLTP types touch
        // several of them.
        assert!(fp.mean_instruction_bytes > 2.0 * 1024.0, "{fp:?}");
        assert!(fp.total_instructions > 10_000);
        assert!(fp.total_instruction_bytes >= fp.mean_instruction_bytes as u64);
    }

    #[test]
    fn mapreduce_instruction_footprint_is_small() {
        let spec = Workload::MapReduce.spec(TraceScale::tiny());
        let fp = FootprintStats::measure(&spec);
        let kernel_bytes = spec.pool.total_bytes();
        assert!(fp.mean_instruction_bytes <= kernel_bytes as f64);
        assert!(fp.total_instruction_bytes <= kernel_bytes);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        assert_eq!(ReuseBreakdown::from_counts(0, 0, 0), ReuseBreakdown::default());
    }
}
