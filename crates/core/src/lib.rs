//! SLICC: Self-Assembly of Instruction Cache Collectives.
//!
//! This crate implements the paper's contribution — the hardware
//! thread-migration algorithm of §4 — as a set of composable, pure
//! decision structures that the system simulator (`slicc-sim`) drives:
//!
//! - [`MissCounter`]: the saturating **cache-full detector** (§4.2.1,
//!   answers Q.1 "is the cache full with useful blocks?") — see [`mc`];
//! - [`MissShiftVector`]: the 100-bit hit/miss history measuring **miss
//!   dilution** (§4.2.2, Q.2 "are the contents still useful to this
//!   thread?") — see [`msv`];
//! - [`MissedTagQueue`]: the last `matched_t` remote-sharing vectors used
//!   for the **remote cache segment search** (§4.2.3, Q.3 "where to
//!   migrate to?") — see [`mtq`];
//! - [`SliccAgent`]: the per-core agent combining the three into the
//!   Figure-5 migration decision — see [`agent`];
//! - [`TeamFormer`]: §4.3.2's type-aware grouping of threads into large /
//!   medium / stray teams for SLICC-SW and SLICC-Pp — see [`team`];
//! - [`ScoutHasher`]: §4.3.1's hardware preprocessing that identifies a
//!   thread's transaction type from its first few instructions — see
//!   [`scout`];
//! - [`hw_cost`]: the Table 3 storage budget (966 bytes per core).
//!
//! # Example
//!
//! ```
//! use slicc_core::{CoreMask, MigrationAdvice, SliccAgent, SliccParams};
//! use slicc_common::CoreId;
//!
//! let mut agent = SliccAgent::new(CoreId::new(0), SliccParams::paper_default());
//! // While the cache is filling up, SLICC never migrates.
//! agent.on_fetch(false, Some(CoreMask::empty()));
//! assert_eq!(agent.advice(), MigrationAdvice::Stay);
//! ```

#![forbid(unsafe_code)]

pub mod agent;
pub mod hw_cost;
pub mod mask;
pub mod mc;
pub mod msv;
pub mod mtq;
pub mod params;
pub mod scout;
pub mod team;

pub use agent::{MigrationAdvice, SliccAgent};
pub use hw_cost::{HwCostBreakdown, HwCostConfig, PIF_STORAGE_BYTES};
pub use mask::CoreMask;
pub use mc::MissCounter;
pub use msv::MissShiftVector;
pub use mtq::MissedTagQueue;
pub use params::SliccParams;
pub use scout::{ScoutHasher, TypeRegistry};
pub use team::{TeamFormer, TeamKind, TeamPlan};
