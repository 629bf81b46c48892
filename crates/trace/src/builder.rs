//! A fluent builder for custom [`WorkloadSpec`]s.
//!
//! The presets in [`crate::workload`] cover the paper's Table 1; this
//! builder is for experiments beyond it — custom segment structures,
//! transaction mixes, and data behaviours (the Figure 4 reconstruction in
//! `tests/figure4_scenario.rs` is the canonical use case).
//!
//! # Example
//!
//! ```
//! use slicc_trace::WorkloadBuilder;
//!
//! // Three same-type threads looping over segments A-B-C (Figure 4).
//! let spec = WorkloadBuilder::new("figure4")
//!     .tasks(3)
//!     .segment_blocks(48)
//!     .shared_segments(0)
//!     .txn_type("T", 1.0, 3, 4)
//!     .no_data()
//!     .build();
//! assert_eq!(spec.num_tasks, 3);
//! assert_eq!(spec.pool.len(), 3);
//! ```

use crate::segment::CodePool;
use crate::workload::{CodeParams, DataParams, DataPattern, TypeSpec, WorkloadSpec};

/// Builder for [`WorkloadSpec`]; see the module docs.
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    name: String,
    seed: u64,
    tasks: u32,
    segment_blocks: u32,
    gap_prob: f64,
    shared_segments: usize,
    types: Vec<(String, f64, usize, u32)>,
    code: CodeParams,
    data: DataParams,
}

impl WorkloadBuilder {
    /// Starts a builder for a workload called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder {
            name: name.into(),
            seed: 0x51cc,
            tasks: 16,
            segment_blocks: 48,
            gap_prob: 0.0,
            shared_segments: 0,
            types: Vec::new(),
            code: CodeParams {
                instrs_per_block: 12,
                passes_per_visit: 2,
                skip_prob: 0.0,
                sequential_run_blocks: 2,
            },
            data: DataParams {
                data_ratio: 0.0,
                store_frac: 0.45,
                pattern: DataPattern::OltpMix { p_hot: 0.3, p_recent: 0.6, hot_store_frac: 0.01 },
                db_blocks: 1_000_000,
                hot_blocks: 64,
            },
        }
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of transactions.
    pub fn tasks(mut self, tasks: u32) -> Self {
        self.tasks = tasks;
        self
    }

    /// Sets the live blocks per code segment.
    pub fn segment_blocks(mut self, blocks: u32) -> Self {
        self.segment_blocks = blocks;
        self
    }

    /// Sets the dead-gap probability of the code layout (see
    /// [`CodePool::with_gap_prob`]).
    pub fn code_gap_prob(mut self, p: f64) -> Self {
        self.gap_prob = p;
        self
    }

    /// Sets how many shared-infrastructure segments all types walk.
    pub fn shared_segments(mut self, n: usize) -> Self {
        self.shared_segments = n;
        self
    }

    /// Adds a transaction type with `specific` own segments and a minimum
    /// of `loop_iters` loop iterations.
    pub fn txn_type(
        mut self,
        name: impl Into<String>,
        weight: f64,
        specific: usize,
        loop_iters: u32,
    ) -> Self {
        self.types.push((name.into(), weight, specific, loop_iters));
        self
    }

    /// Overrides the instruction-stream parameters.
    pub fn code_params(mut self, code: CodeParams) -> Self {
        self.code = code;
        self
    }

    /// Overrides the data-access parameters.
    pub fn data_params(mut self, data: DataParams) -> Self {
        self.data = data;
        self
    }

    /// Disables data accesses entirely (pure instruction behaviour).
    pub fn no_data(mut self) -> Self {
        self.data.data_ratio = 0.0;
        self
    }

    /// Builds the spec.
    ///
    /// # Panics
    ///
    /// Panics if no transaction type was added, or a type has zero
    /// specific segments.
    pub fn build(self) -> WorkloadSpec {
        assert!(!self.types.is_empty(), "a workload needs at least one transaction type");
        let mut pool = if self.gap_prob > 0.0 {
            CodePool::with_gap_prob(self.gap_prob)
        } else {
            CodePool::new()
        };
        let shared =
            (0..self.shared_segments).map(|_| pool.add_segment(self.segment_blocks)).collect();
        let types = self
            .types
            .into_iter()
            .map(|(name, weight, n_spec, loop_iters)| {
                assert!(n_spec > 0, "type {name} needs at least one segment");
                TypeSpec {
                    name,
                    weight,
                    specific: (0..n_spec).map(|_| pool.add_segment(self.segment_blocks)).collect(),
                    loop_iters,
                }
            })
            .collect();
        WorkloadSpec {
            name: self.name,
            seed: self.seed,
            num_tasks: self.tasks,
            pool,
            shared,
            types,
            code: self.code,
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicc_common::ThreadId;

    #[test]
    fn builds_a_runnable_spec() {
        let spec = WorkloadBuilder::new("custom")
            .tasks(4)
            .segment_blocks(16)
            .shared_segments(2)
            .txn_type("A", 2.0, 3, 4)
            .txn_type("B", 1.0, 2, 4)
            .build();
        assert_eq!(spec.pool.len(), 2 + 3 + 2);
        assert_eq!(spec.types.len(), 2);
        let trace: Vec<_> = spec.thread_trace(ThreadId::new(0)).collect();
        assert!(!trace.is_empty());
    }

    #[test]
    fn no_data_produces_pure_instruction_traces() {
        let spec =
            WorkloadBuilder::new("nodata").tasks(2).txn_type("T", 1.0, 1, 3).no_data().build();
        for t in spec.threads() {
            assert!(spec.thread_trace(t).all(|r| r.data.is_none()));
        }
    }

    #[test]
    fn gap_prob_spreads_segments() {
        let dense = WorkloadBuilder::new("d").txn_type("T", 1.0, 1, 2).segment_blocks(64).build();
        let sparse = WorkloadBuilder::new("s")
            .txn_type("T", 1.0, 1, 2)
            .segment_blocks(64)
            .code_gap_prob(0.5)
            .build();
        assert!(sparse.pool.segment(0).span_blocks() > dense.pool.segment(0).span_blocks());
    }

    #[test]
    fn seed_changes_traces() {
        // Give the generator stochastic choices to express the seed
        // through (control-flow skips).
        let code = CodeParams {
            instrs_per_block: 12,
            passes_per_visit: 2,
            skip_prob: 0.2,
            sequential_run_blocks: 2,
        };
        let a =
            WorkloadBuilder::new("x").seed(1).txn_type("T", 1.0, 2, 3).code_params(code).build();
        let b =
            WorkloadBuilder::new("x").seed(2).txn_type("T", 1.0, 2, 3).code_params(code).build();
        let ta: Vec<_> = a.thread_trace(ThreadId::new(0)).collect();
        let tb: Vec<_> = b.thread_trace(ThreadId::new(0)).collect();
        assert_ne!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "at least one transaction type")]
    fn empty_builder_panics() {
        let _ = WorkloadBuilder::new("empty").build();
    }
}
