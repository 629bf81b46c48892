//! Miss-status holding registers (MSHRs).
//!
//! Table 2 gives each L1 32 MSHRs and the L2 64. The timing model uses
//! them to bound memory-level parallelism: a miss can only overlap with
//! other work if an MSHR is free, and misses to a block already in flight
//! merge into the existing entry instead of issuing again.

use slicc_common::{BlockAddr, Cycle};

/// Outcome of registering a miss with the MSHR file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss goes out to the next level.
    Allocated,
    /// The block is already in flight; this miss merges and completes at
    /// the given time.
    Merged(Cycle),
    /// No entry free: the pipeline must stall until one frees up at the
    /// given time (the earliest completion among current entries).
    Full(Cycle),
}

/// A fixed-size file of in-flight misses.
///
/// # Example
///
/// ```
/// use slicc_cache::{MshrFile, mshr::MshrOutcome};
/// use slicc_common::BlockAddr;
///
/// let mut mshrs = MshrFile::new(2);
/// assert_eq!(mshrs.register(BlockAddr::new(1), 100), MshrOutcome::Allocated);
/// assert_eq!(mshrs.register(BlockAddr::new(1), 100), MshrOutcome::Merged(100));
/// ```
#[derive(Clone, Debug)]
pub struct MshrFile {
    entries: Vec<(BlockAddr, Cycle)>,
    capacity: usize,
}

impl MshrFile {
    /// Creates an empty file of `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile { entries: Vec::with_capacity(capacity), capacity }
    }

    /// Registers a miss to `block` that will complete at `ready_at`.
    /// Expired entries (ready before `ready_at`'s issue implied by the
    /// caller calling [`MshrFile::retire_before`]) are not implicitly
    /// removed — callers should retire first.
    pub fn register(&mut self, block: BlockAddr, ready_at: Cycle) -> MshrOutcome {
        if let Some(&(_, ready)) = self.entries.iter().find(|(b, _)| *b == block) {
            return MshrOutcome::Merged(ready);
        }
        if self.entries.len() == self.capacity {
            let earliest =
                self.entries.iter().map(|&(_, r)| r).min().expect("full file is non-empty");
            return MshrOutcome::Full(earliest);
        }
        self.entries.push((block, ready_at));
        MshrOutcome::Allocated
    }

    /// Releases every entry whose fill completes at or before `now`.
    pub fn retire_before(&mut self, now: Cycle) {
        self.entries.retain(|&(_, ready)| ready > now);
    }

    /// Number of in-flight entries.
    pub fn in_flight(&self) -> usize {
        self.entries.len()
    }

    /// Whether a miss to a *new* block can allocate right now.
    pub fn has_free(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// The configured number of registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears all entries (e.g. across a measurement boundary).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_full_lifecycle() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.register(BlockAddr::new(1), 50), MshrOutcome::Allocated);
        assert_eq!(m.register(BlockAddr::new(2), 80), MshrOutcome::Allocated);
        assert_eq!(m.register(BlockAddr::new(1), 999), MshrOutcome::Merged(50));
        assert_eq!(m.register(BlockAddr::new(3), 90), MshrOutcome::Full(50));
        assert_eq!(m.in_flight(), 2);
    }

    #[test]
    fn retire_frees_completed_entries() {
        let mut m = MshrFile::new(2);
        m.register(BlockAddr::new(1), 50);
        m.register(BlockAddr::new(2), 80);
        m.retire_before(50);
        assert_eq!(m.in_flight(), 1);
        assert!(m.has_free());
        assert_eq!(m.register(BlockAddr::new(3), 120), MshrOutcome::Allocated);
    }

    #[test]
    fn retire_before_keeps_future_entries() {
        let mut m = MshrFile::new(4);
        m.register(BlockAddr::new(1), 100);
        m.retire_before(99);
        assert_eq!(m.in_flight(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut m = MshrFile::new(2);
        m.register(BlockAddr::new(1), 5);
        m.clear();
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
