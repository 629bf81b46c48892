//! Cache substrate for the SLICC chip-multiprocessor simulator.
//!
//! This crate implements every cache-side mechanism the paper relies on:
//!
//! - [`Cache`]: a set-associative cache with pluggable replacement policy
//!   and allocate-on-miss semantics — see [`cache`];
//! - [`PolicyKind`]: the seven replacement/insertion policies compared in
//!   §2.1.2 / Figure 2 (LRU, LIP, BIP, DIP, SRRIP, BRRIP, DRRIP) — see
//!   [`policy`];
//! - [`ThreeCClassifier`]: the compulsory/conflict/capacity miss taxonomy
//!   of Hill & Smith used in §2.1.1 / Figure 1 — see [`classify`];
//! - [`BloomSignature`]: the partial-address bloom filter with eviction
//!   support (Peir et al.) that answers SLICC's remote-cache segment
//!   searches (§4.2.3 / Figure 9) — see [`bloom`];
//! - [`NextLinePrefetcher`]: the next-line instruction prefetcher baseline
//!   of §5.6 — see [`prefetch`];
//! - [`MshrFile`]: miss-status holding registers bounding outstanding
//!   misses (Table 2: 32 per L1) — see [`mshr`].
//!
//! # Example
//!
//! ```
//! use slicc_cache::{Cache, PolicyKind, AccessKind, LookupResult};
//! use slicc_common::{BlockAddr, CacheGeometry};
//!
//! let geom = CacheGeometry::new(32 * 1024, 8, 64);
//! let mut l1i = Cache::new(geom, PolicyKind::Lru, 1);
//!
//! let block = BlockAddr::new(0x40);
//! assert!(matches!(l1i.access(block, AccessKind::Read), LookupResult::Miss { .. }));
//! assert!(matches!(l1i.access(block, AccessKind::Read), LookupResult::Hit));
//! ```

#![forbid(unsafe_code)]

pub mod bloom;
pub mod cache;
pub mod classify;
pub mod lru_list;
pub mod mshr;
pub mod pif;
pub mod policy;
pub mod prefetch;
pub mod stats;

pub use bloom::{BloomSignature, SignatureAccuracy};
pub use cache::{AccessKind, Cache, EvictedBlock, LookupResult, Way};
pub use classify::{MissBreakdown, MissClass, ThreeCClassifier};
pub use lru_list::LruList;
pub use mshr::MshrFile;
pub use pif::{Pif, PifConfig};
pub use policy::PolicyKind;
pub use prefetch::NextLinePrefetcher;
pub use stats::CacheStats;
