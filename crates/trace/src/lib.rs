//! Synthetic workload generators for the SLICC simulator.
//!
//! The paper replays PIN traces of TPC-C and TPC-E running on Shore-MT,
//! plus a Hadoop MapReduce job (Table 1). Neither the trace toolchain nor
//! the workloads are available here, so this crate *synthesizes* traces
//! with the statistical structure the paper measures and exploits:
//!
//! - transactions are sequences of **code segments**, each of which fits
//!   an L1-I but two of which do not (§3.1, Figure 4);
//! - a transaction's footprint is several times the L1-I and is re-visited
//!   in loops (capacity-dominated instruction misses, §2.1.1);
//! - threads of the same transaction type share ~98% of their instruction
//!   blocks, all threads share the common "DBMS infrastructure" segments
//!   (§2.1.3, Figure 3);
//! - data misses are compulsory-dominated, 45% of data accesses are
//!   stores (§5.5), with a small hot shared set and per-transaction
//!   private working sets;
//! - MapReduce's instruction footprint fits in one L1-I and its data
//!   streams (§2.1, Figure 1).
//!
//! Everything is deterministic: the same ([`WorkloadSpec`], thread id)
//! pair regenerates the identical access stream, which is what makes
//! MPKI comparisons between configurations meaningful.
//!
//! # Example
//!
//! ```
//! use slicc_trace::{TraceScale, Workload};
//!
//! let spec = Workload::TpcC1.spec(TraceScale::tiny());
//! let trace: Vec<_> = spec.thread_trace(slicc_common::ThreadId::new(0)).collect();
//! assert!(!trace.is_empty());
//! // Deterministic regeneration.
//! let again: Vec<_> = spec.thread_trace(slicc_common::ThreadId::new(0)).collect();
//! assert_eq!(trace.len(), again.len());
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod builder;
pub mod segment;
pub mod stats;
pub mod thread_gen;
pub mod validate;
pub mod workload;

pub use access::{DataAccess, Record};
pub use builder::WorkloadBuilder;
pub use segment::{CodePool, CodeSegment, SegmentId};
pub use stats::{instruction_reuse, FootprintStats, ReuseBreakdown};
pub use thread_gen::ThreadTrace;
pub use validate::{validate_structure, StructureReport};
pub use workload::{
    CodeParams, DataParams, DataPattern, TraceScale, TypeSpec, Workload, WorkloadSpec,
};
