//! Core timing model for the SLICC simulator.
//!
//! The paper runs Zesto, a cycle-level out-of-order x86 model. This crate
//! substitutes a *cycle-accounting* model that preserves the one property
//! SLICC's evaluation hinges on (§3.3): **instruction misses cost more
//! than data misses**, because an I-miss starves the pipeline while a
//! D-miss is largely hidden by out-of-order execution ("data misses can
//! be partially overlapped with out-of-order execution", §5.5).
//!
//! - [`TimingConfig`]: the model's parameters, with Table-2-flavoured
//!   defaults — see [`timing`];
//! - [`CoreTimer`]: per-core cycle accounting — see [`timing`];
//! - [`MigrationModel`]: the Thread-Motion-style context transfer cost of
//!   §4.4 (architectural state staged through the L2 bank nearest the
//!   target core) — see [`migration`].

#![forbid(unsafe_code)]

pub mod migration;
pub mod timing;
pub mod tlb;

pub use migration::MigrationModel;
pub use timing::{CoreStats, CoreTimer, TimingConfig};
pub use tlb::Tlb;
