//! Split steps: private segments and the per-thread record lookahead.
//!
//! The engine (DESIGN §13) splits every core step into a **private
//! segment** — a run of records that provably touch only the core's own
//! site (L1-I hits in already-cached blocks, L1-D hits with the right
//! dirtiness) — followed by at most one **blocking record** that needs
//! shared state (the L2 NUCA, the directory, the NoC, other cores'
//! blooms). Cross-core effects of blocking records queue in per-core
//! mailboxes drained at step barriers (see [`crate::system`]).
//!
//! This module holds the private half:
//!
//! - [`ThreadStream`]: one thread's generator with a one-record
//!   lookahead, `peek`/`advance` split so classification can look at a
//!   record without consuming it;
//! - [`run_segment`]: the private-segment executor.

use crate::system::{CoreSite, SegmentParams};
use slicc_common::{CoreId, ThreadId};
use slicc_obs::{EventKind, EventSink};
use slicc_trace::{Record, ThreadTrace, WorkloadSpec};

/// Records processed per engine step before re-entering the heap.
pub(crate) const BATCH: usize = 100;

/// One thread's record stream: a lazy trace generator and the record
/// decoded but not yet executed.
pub(crate) struct ThreadStream<'a> {
    trace: ThreadTrace<'a>,
    /// The record [`ThreadStream::peek`] returned and
    /// [`ThreadStream::advance`] has not consumed. It survives migration
    /// with the rest of the stream.
    lookahead: Option<Record>,
    /// Records actually executed (diagnostics; equals
    /// `ThreadTrace::emitted` less the lookahead).
    executed: u64,
}

impl<'a> ThreadStream<'a> {
    pub(crate) fn lazy(trace: ThreadTrace<'a>) -> Self {
        ThreadStream { trace, lookahead: None, executed: 0 }
    }

    /// The next record without consuming it. Returns `None` exactly when
    /// the generator is exhausted.
    #[inline]
    pub(crate) fn peek(&mut self) -> Option<Record> {
        if self.lookahead.is_none() {
            self.lookahead = self.trace.next();
        }
        self.lookahead
    }

    /// Consumes the record last returned by [`ThreadStream::peek`].
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.lookahead = None;
        self.executed += 1;
    }

    /// Peek + advance, for callers that never split the two.
    #[inline]
    pub(crate) fn next(&mut self) -> Option<Record> {
        let rec = self.peek()?;
        self.advance();
        Some(rec)
    }

    /// Records executed so far (diagnostics).
    pub(crate) fn executed(&self) -> u64 {
        self.executed
    }
}

/// Why a private segment stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopReason {
    /// The next record needs shared state; it was peeked, not consumed.
    /// The engine re-peeks and executes it through the full
    /// `System::ifetch`/`data_access` path, which ends the step.
    Blocking,
    /// The stream is exhausted: the thread completes.
    Exhausted,
    /// [`BATCH`] private records ran; the step ends to keep the heap
    /// cadence bounded, no blocking record pending.
    BatchCap,
}

/// Executes one private segment: up to [`BATCH`] records that are all
/// classifiable as private against the current site state. A record is
/// private iff its fetch either stays in the current block or hits an
/// already-cached block with no fetch side-channel configured
/// (prefetcher / PIF / bloom-accuracy probe), and its data access (if
/// any) hits the L1-D — dirty, for stores (a store to a clean line
/// needs a directory upgrade). Everything else stops the segment with
/// [`StopReason::Blocking`], leaving the record un-consumed.
///
/// The execution bodies mirror the hit paths of `System::ifetch` /
/// `System::data_access` exactly (see `CoreSite::private_ifetch_hit` /
/// `private_data_hit`), so a segment run here is byte-equivalent to the
/// same records run through the full `System` paths.
pub(crate) fn run_segment(
    site: &mut CoreSite,
    stream: &mut ThreadStream<'_>,
    sink: &mut EventSink,
    core: CoreId,
    thread: ThreadId,
    spec: &WorkloadSpec,
    params: &SegmentParams,
) -> StopReason {
    for _ in 0..BATCH {
        let Some(rec) = stream.peek() else {
            return StopReason::Exhausted;
        };
        // One probe per cache: the way it finds is the one the hit below
        // updates, and nothing in between changes either cache's sets.
        let block = rec.pc.block_default();
        let iway = if site.last_iblock == Some(block) {
            None
        } else if params.fetch_transition_blocks {
            return StopReason::Blocking;
        } else {
            let Some(way) = site.l1i.probe(block) else {
                return StopReason::Blocking;
            };
            Some(way)
        };
        let data = match rec.data {
            Some(d) => {
                let dblock = d.addr.block_default();
                let Some(way) = site.l1d.probe(dblock) else {
                    return StopReason::Blocking;
                };
                if d.is_store && !site.l1d.is_dirty(way) {
                    return StopReason::Blocking;
                }
                Some((dblock, d.is_store, way))
            }
            None => None,
        };

        // Private: consume and execute against the site alone, in the
        // exact order of the sequential per-record body.
        stream.advance();
        site.timer.retire_instruction();
        if let Some(way) = iway {
            site.last_iblock = Some(block);
            let fetch_start = if sink.is_enabled() { site.timer.now() } else { 0 };
            site.private_ifetch_hit(block, way, params);
            if params.uses_agents {
                site.agent.on_fetch(true, None);
            }
            if sink.is_enabled() {
                let segment = spec.pool.segment_of_block(block);
                if segment != site.last_segment {
                    site.last_segment = segment;
                    if let Some(segment) = segment {
                        sink.record(
                            core,
                            fetch_start,
                            EventKind::SegmentBoundary { thread: thread.raw(), segment },
                        );
                    }
                }
            }
        }
        if let Some((dblock, is_store, way)) = data {
            site.private_data_hit(dblock, is_store, way, params);
        }
    }
    StopReason::BatchCap
}
