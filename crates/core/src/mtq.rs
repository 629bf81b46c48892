//! The missed-tag queue: where is the thread's next segment cached?
//!
//! §4.2.3: "SLICC records recently missed tags in the Missed Tag Queue
//! (MTQ), which is a matched_t entry FIFO of n-bit entries, where n is
//! the number of cores. A logic-1 on bit index C for MTQ entry i
//! indicates that the i-th recently missed cache block was cached at core
//! C. Thus, by ANDing all bits at index C we know whether core C holds
//! all the recently missed cache blocks."

use crate::mask::CoreMask;
use slicc_common::RingFifo;

/// A `matched_t`-deep FIFO of remote-sharing vectors.
///
/// # Example
///
/// ```
/// use slicc_core::{CoreMask, MissedTagQueue};
///
/// let mut mtq = MissedTagQueue::new(2);
/// mtq.push(CoreMask::from_bits(0b0110));
/// mtq.push(CoreMask::from_bits(0b0010));
/// // Core 1 held both recently-missed blocks.
/// assert_eq!(mtq.common_cores().bits(), 0b0010);
/// ```
#[derive(Clone, Debug)]
pub struct MissedTagQueue {
    entries: RingFifo<CoreMask>,
}

impl MissedTagQueue {
    /// Creates a queue of depth `matched_t`.
    ///
    /// # Panics
    ///
    /// Panics if `matched_t` is zero.
    pub fn new(matched_t: u32) -> Self {
        assert!(matched_t > 0, "matched_t must be positive");
        MissedTagQueue { entries: RingFifo::new(matched_t as usize) }
    }

    /// Records the sharing vector of the most recent miss, evicting the
    /// oldest when full.
    pub fn push(&mut self, sharers: CoreMask) {
        self.entries.push(sharers);
    }

    /// Whether `matched_t` misses have been observed since the last
    /// reset. Migration by segment match requires a full queue.
    pub fn is_full(&self) -> bool {
        self.entries.is_full()
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The queue depth (`matched_t`).
    pub fn matched_t(&self) -> u32 {
        self.entries.capacity() as u32
    }

    /// The AND across all entries: cores that held *every* recently
    /// missed block. Empty unless the queue is full (a partial preamble
    /// is not evidence of a segment).
    pub fn common_cores(&self) -> CoreMask {
        if !self.is_full() {
            return CoreMask::empty();
        }
        self.entries.iter().copied().fold(CoreMask::from_bits(u32::MAX), |acc, m| acc & m)
    }

    /// Clears the queue (on migration or team completion).
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicc_common::CoreId;

    #[test]
    fn partial_queue_reports_nothing() {
        let mut mtq = MissedTagQueue::new(3);
        mtq.push(CoreMask::from_bits(0b1));
        mtq.push(CoreMask::from_bits(0b1));
        assert!(!mtq.is_full());
        assert!(mtq.common_cores().is_empty());
    }

    #[test]
    fn full_queue_ands_entries() {
        let mut mtq = MissedTagQueue::new(3);
        mtq.push(CoreMask::from_bits(0b1110));
        mtq.push(CoreMask::from_bits(0b0110));
        mtq.push(CoreMask::from_bits(0b0011));
        assert_eq!(mtq.common_cores().bits(), 0b0010);
    }

    #[test]
    fn disagreeing_entries_yield_empty() {
        let mut mtq = MissedTagQueue::new(2);
        mtq.push(CoreMask::from_bits(0b01));
        mtq.push(CoreMask::from_bits(0b10));
        assert!(mtq.common_cores().is_empty());
    }

    #[test]
    fn fifo_eviction_tracks_recent_misses() {
        let mut mtq = MissedTagQueue::new(2);
        mtq.push(CoreMask::from_bits(0b01)); // old: only core 0
        mtq.push(CoreMask::from_bits(0b11));
        mtq.push(CoreMask::from_bits(0b10)); // evicts the core-0-only entry
        assert_eq!(mtq.common_cores().bits(), 0b10);
    }

    #[test]
    fn reset_empties() {
        let mut mtq = MissedTagQueue::new(1);
        mtq.push(CoreMask::from_bits(0b1));
        assert!(mtq.is_full());
        mtq.reset();
        assert!(mtq.is_empty());
        assert_eq!(mtq.len(), 0);
        assert!(mtq.common_cores().is_empty());
    }

    #[test]
    fn multiple_candidate_cores_survive_the_and() {
        let mut mtq = MissedTagQueue::new(2);
        let both: CoreMask = [CoreId::new(2), CoreId::new(7)].into_iter().collect();
        mtq.push(both);
        mtq.push(both);
        let common = mtq.common_cores();
        assert_eq!(common.len(), 2);
        assert!(common.contains(CoreId::new(2)) && common.contains(CoreId::new(7)));
    }

    #[test]
    fn matched_t_accessor() {
        assert_eq!(MissedTagQueue::new(4).matched_t(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_panics() {
        let _ = MissedTagQueue::new(0);
    }
}
