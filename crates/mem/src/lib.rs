//! Memory hierarchy below the private L1s: shared NUCA L2 and DRAM.
//!
//! Table 2 of the paper specifies a 16-bank shared NUCA L2 (1 MiB per
//! core, 16-way, 16-cycle hit latency, MESI coherence for the L1-Ds) over
//! a DDR3-1600 memory system. This crate provides both:
//!
//! - [`L2Nuca`]: the banked shared L2 with an embedded directory that
//!   keeps the private L1-Ds coherent (invalidations on remote stores,
//!   downgrades on remote reads of dirty data, back-invalidation on L2
//!   eviction) — see [`l2`];
//! - [`Dram`]: an open-page DDR3 bank/row timing model with the paper's
//!   DDR3-1600 parameters — see [`dram`].
//!
//! # Example
//!
//! ```
//! use slicc_mem::{Dram, DramConfig};
//! use slicc_common::BlockAddr;
//!
//! let mut dram = Dram::new(DramConfig::paper_ddr3_1600());
//! let done = dram.access(BlockAddr::new(0x100), 0, false);
//! assert!(done > 0); // off-chip accesses take real time
//! ```

#![forbid(unsafe_code)]

pub mod dram;
pub mod l2;

pub use dram::{Dram, DramConfig, DramStats};
pub use l2::{BackInvalidate, L2AccessKind, L2Nuca, L2Response, L2Stats};
