//! Shared vocabulary types for the SLICC chip-multiprocessor simulator.
//!
//! This crate defines the small, ubiquitous building blocks used by every
//! other crate in the workspace:
//!
//! - strongly-typed identifiers ([`CoreId`], [`ThreadId`], [`TxnTypeId`]) —
//!   see [`ids`];
//! - byte and cache-block addresses ([`Addr`], [`BlockAddr`]) — see [`addr`];
//! - cache shape arithmetic ([`CacheGeometry`]) — see [`geometry`];
//! - core sets as one machine word ([`CoreMask`]) — see [`mask`];
//! - the CACTI-substitute access-latency table — see [`latency`];
//! - a tiny, fast, deterministic RNG ([`SplitMix64`]) — see [`rng`];
//! - a fixed-capacity ring-buffer FIFO ([`RingFifo`]) — see [`fifo`];
//! - stable hashing for experiment memoization keys ([`StableHash`]) —
//!   see [`hash`];
//! - dependency-free JSON string/float rendering ([`json_str`]) and a
//!   bounded, panic-free JSON parser ([`parse_json`]) — see [`json`];
//! - a fast deterministic hasher for hot maps ([`FastHashMap`]) — see
//!   [`fasthash`];
//! - poison-recovering mutex access ([`lock_unpoisoned`]), cooperative
//!   cancellation ([`CancelToken`]) and SIGINT/SIGTERM wiring — see
//!   [`sync`];
//! - crash-safe artifact emission ([`atomic_write`]) — see [`io`];
//! - the [`Merge`] trait unifying statistics aggregation — see [`merge`].
//!
//! # Example
//!
//! ```
//! use slicc_common::{Addr, CacheGeometry};
//!
//! // The paper's baseline L1: 32 KiB, 8-way, 64 B blocks (Table 2).
//! let geom = CacheGeometry::new(32 * 1024, 8, 64);
//! assert_eq!(geom.num_sets(), 64);
//! assert_eq!(geom.num_blocks(), 512);
//!
//! let addr = Addr::new(0xdead_beef);
//! let block = addr.block(64);
//! assert_eq!(geom.set_index(block), geom.set_index(block));
//! ```

// The signal handlers in `sync` are the only code allowed to opt back in.
#![deny(unsafe_code)]

pub mod addr;
pub mod fasthash;
pub mod fifo;
pub mod geometry;
pub mod hash;
pub mod ids;
pub mod io;
pub mod json;
pub mod latency;
pub mod mask;
pub mod merge;
pub mod rng;
pub mod sync;

pub use addr::{Addr, BlockAddr, BLOCK_SIZE};
pub use fasthash::{FastBuildHasher, FastHashMap, FastHashSet, FxHasher};
pub use fifo::RingFifo;
pub use geometry::CacheGeometry;
pub use hash::{stable_hash_of, StableHash, StableHasher};
pub use ids::{CoreId, ThreadId, TxnTypeId};
pub use io::atomic_write;
pub use json::{json_f64, json_str, parse_json, push_json_str, JsonError, JsonValue};
pub use latency::{l1_latency_for_size, LatencyTable};
pub use mask::CoreMask;
pub use merge::Merge;
pub use rng::SplitMix64;
pub use sync::{
    install_shutdown_cancel, install_sigint_cancel, lock_unpoisoned, sigint_count, CancelToken,
};

/// Simulated clock cycles.
///
/// Kept as a plain `u64` alias rather than a newtype: cycle arithmetic
/// saturates every hot path of the timing model and the alias keeps that
/// code legible. All public APIs name the unit in the parameter.
pub type Cycle = u64;
