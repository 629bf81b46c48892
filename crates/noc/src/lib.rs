//! On-chip interconnect model for the SLICC simulator.
//!
//! Table 2 of the paper specifies a **4×4 2D torus with 1-cycle hop
//! latency** connecting 16 cores and the 16 banks of the shared NUCA L2.
//! This crate provides:
//!
//! - [`Torus`]: the topology — coordinates, wrap-around hop distances, and
//!   transfer latencies;
//! - [`NocStats`]: message counters, including the broadcast counter
//!   behind the paper's BPKI metric (§5.8).
//!
//! # Example
//!
//! ```
//! use slicc_noc::Torus;
//! use slicc_common::CoreId;
//!
//! let noc = Torus::new(4, 4);
//! // Opposite corners of a 4x4 torus are 2+2 wrap-around hops apart.
//! assert_eq!(noc.hops(CoreId::new(0), CoreId::new(15)), 2);
//! ```

#![forbid(unsafe_code)]

pub mod stats;
pub mod torus;

pub use stats::NocStats;
pub use torus::Torus;
