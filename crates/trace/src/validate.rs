//! Structural validation of a workload against the paper's §2/§3
//! premises.
//!
//! SLICC's benefit rests on measurable trace properties; this module
//! checks them mechanically so that custom workloads (via
//! [`crate::WorkloadBuilder`]) can be verified before simulation, and so
//! the presets are pinned to the paper's characterization by tests.

use crate::workload::WorkloadSpec;
use slicc_common::{CacheGeometry, TxnTypeId};

/// The result of checking one workload against the §2/§3 premises for a
/// given L1-I shape and core count.
#[derive(Clone, Debug, PartialEq)]
pub struct StructureReport {
    /// Every segment fits the L1-I (§3.1 "each segment fits in the L1-I
    /// cache of a single core").
    pub segments_fit_l1: bool,
    /// No two segments fit together (§3.1 "but two segments would not
    /// fit together").
    pub pairs_overflow_l1: bool,
    /// Every type's footprint exceeds one L1-I (the thrash premise).
    pub footprints_exceed_l1: bool,
    /// Every type's footprint fits the aggregate L1-I capacity (§2.1
    /// "would fit in the aggregate L1 instruction cache capacity").
    pub footprints_fit_aggregate: bool,
    /// Smallest and largest per-type footprint in bytes.
    pub footprint_range: (u64, u64),
    /// Total live code bytes across all types.
    pub aggregate_code_bytes: u64,
}

impl StructureReport {
    /// Whether every premise holds.
    pub fn all_hold(&self) -> bool {
        self.segments_fit_l1
            && self.pairs_overflow_l1
            && self.footprints_exceed_l1
            && self.footprints_fit_aggregate
    }
}

/// Checks `spec` against the paper's structural premises for a machine
/// of `cores` cores with `l1i`-shaped instruction caches.
///
/// # Example
///
/// ```
/// use slicc_common::CacheGeometry;
/// use slicc_trace::{validate_structure, TraceScale, Workload};
///
/// let spec = Workload::TpcC1.spec(TraceScale::paper_like());
/// let report = validate_structure(&spec, CacheGeometry::new(32 * 1024, 8, 64), 16);
/// assert!(report.all_hold());
/// ```
pub fn validate_structure(
    spec: &WorkloadSpec,
    l1i: CacheGeometry,
    cores: usize,
) -> StructureReport {
    let l1_bytes = l1i.size_bytes();
    let aggregate = l1_bytes * cores as u64;

    let mut segments_fit = true;
    let mut pairs_overflow = true;
    for (_, seg) in spec.pool.iter() {
        segments_fit &= seg.size_bytes() <= l1_bytes;
        pairs_overflow &= 2 * seg.size_bytes() > l1_bytes;
    }

    let mut lo = u64::MAX;
    let mut hi = 0;
    let mut exceed = true;
    let mut fit_aggregate = true;
    for i in 0..spec.types.len() {
        let fp = spec.type_footprint_bytes(TxnTypeId::new(i as u16));
        lo = lo.min(fp);
        hi = hi.max(fp);
        // MapReduce-style single-L1 footprints are exempt from the
        // "exceeds one L1" premise — SLICC's robustness case.
        if spec.types.len() > 1 {
            exceed &= fp > l1_bytes;
        }
        fit_aggregate &= fp <= aggregate;
    }

    StructureReport {
        segments_fit_l1: segments_fit,
        pairs_overflow_l1: pairs_overflow,
        footprints_exceed_l1: exceed,
        footprints_fit_aggregate: fit_aggregate,
        footprint_range: (lo, hi),
        aggregate_code_bytes: spec.pool.total_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TraceScale, Workload};

    fn baseline_l1i() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 8, 64)
    }

    #[test]
    fn paper_scale_presets_satisfy_the_premises() {
        for w in [Workload::TpcC1, Workload::TpcC10, Workload::TpcE] {
            let spec = w.spec(TraceScale::paper_like());
            let r = validate_structure(&spec, baseline_l1i(), 16);
            assert!(r.all_hold(), "{w}: {r:?}");
            assert!(r.footprint_range.0 > 32 * 1024, "{w}");
        }
    }

    #[test]
    fn mapreduce_is_the_single_l1_exception() {
        let spec = Workload::MapReduce.spec(TraceScale::paper_like());
        let r = validate_structure(&spec, baseline_l1i(), 16);
        assert!(r.segments_fit_l1);
        assert!(r.footprint_range.1 <= 32 * 1024, "MapReduce fits one L1-I");
    }

    #[test]
    fn tiny_presets_satisfy_premises_against_the_tiny_machine() {
        let tiny_l1 = CacheGeometry::new(4 * 1024, 8, 64);
        for w in [Workload::TpcC1, Workload::TpcE] {
            let spec = w.spec(TraceScale::tiny());
            let r = validate_structure(&spec, tiny_l1, 16);
            assert!(r.segments_fit_l1 && r.pairs_overflow_l1, "{w}: {r:?}");
        }
    }

    #[test]
    fn oversized_segments_are_flagged() {
        let spec = crate::builder::WorkloadBuilder::new("big")
            .segment_blocks(2048) // 128 KiB > 32 KiB
            .txn_type("T", 1.0, 2, 3)
            .build();
        let r = validate_structure(&spec, baseline_l1i(), 16);
        assert!(!r.segments_fit_l1);
        assert!(!r.all_hold());
    }

    /// Every address space starts well above zero (the code region at
    /// `0x10_0000`, data regions higher still), so a generated record
    /// never fetches from or touches address zero.
    #[test]
    fn generated_traces_pass_record_validation() {
        for w in Workload::ALL {
            let spec = w.spec(TraceScale::tiny());
            for t in spec.threads() {
                for rec in spec.thread_trace(t) {
                    assert_ne!(rec.pc.raw(), 0, "{w} thread {t:?} fetches from address zero");
                    assert!(
                        rec.data.is_none_or(|d| d.addr.raw() != 0),
                        "{w} thread {t:?} touches data address zero"
                    );
                }
            }
        }
    }

    #[test]
    fn small_segments_fail_the_pair_premise() {
        let spec = crate::builder::WorkloadBuilder::new("small")
            .segment_blocks(64) // 4 KiB: two fit easily in 32 KiB
            .txn_type("T", 1.0, 2, 3)
            .build();
        let r = validate_structure(&spec, baseline_l1i(), 16);
        assert!(r.segments_fit_l1);
        assert!(!r.pairs_overflow_l1);
    }
}
