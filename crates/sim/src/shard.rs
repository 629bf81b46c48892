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
//! - [`ThreadStream`]: one thread's generator and the record it drew but
//!   did not execute (the blocking record a segment stopped on);
//! - [`run_segment`]: the private-segment executor, one fused loop that
//!   draws each record from the inlined generator into a local,
//!   classifies it and executes it. The L1-D way of the last private data
//!   hit is memoized in the site (`CoreSite::last_dway`), and reused
//!   whenever `Cache::holds` confirms the block is still there.

use crate::system::{CoreSite, SegmentParams};
use slicc_cache::Way;
use slicc_common::{BlockAddr, CoreId, ThreadId};
use slicc_obs::{EventKind, EventSink};
use slicc_trace::{Record, ThreadTrace, WorkloadSpec};

/// Records processed per engine step before re-entering the heap.
pub(crate) const BATCH: usize = 100;

/// One thread's record stream: a lazy trace generator and the record
/// drawn but not yet executed.
pub(crate) struct ThreadStream<'a> {
    trace: ThreadTrace<'a>,
    /// The blocking record a private segment stopped on, until the engine
    /// executes it. It survives migration with the rest of the stream.
    lookahead: Option<Record>,
}

impl<'a> ThreadStream<'a> {
    pub(crate) fn lazy(trace: ThreadTrace<'a>) -> Self {
        ThreadStream { trace, lookahead: None }
    }

    /// The next record, consumed: the pending lookahead if there is one,
    /// else the generator's next.
    #[inline]
    pub(crate) fn next(&mut self) -> Option<Record> {
        self.lookahead.take().or_else(|| self.trace.next())
    }

    /// Records executed so far (diagnostics): every record drawn except
    /// a pending lookahead.
    pub(crate) fn executed(&self) -> u64 {
        self.trace.emitted() - u64::from(self.lookahead.is_some())
    }
}

/// Why a private segment stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopReason {
    /// The next record needs shared state; it was drawn, not executed,
    /// and waits in the stream's lookahead. The engine takes it with
    /// [`ThreadStream::next`] and executes it through the full
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
/// [`StopReason::Blocking`], leaving the record in the lookahead.
///
/// The loop holds the record in a local: the pending lookahead is taken
/// once on entry, every later record comes straight from the inlined
/// generator, and the lookahead is written back only on a blocking stop.
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
    let mut pending = stream.lookahead.take();
    for _ in 0..BATCH {
        let Some(rec) = pending.take().or_else(|| stream.trace.next()) else {
            return StopReason::Exhausted;
        };
        let block = rec.pc.block_default();
        let Some((iway, data)) = classify(site, &rec, block, params) else {
            stream.lookahead = Some(rec);
            return StopReason::Blocking;
        };

        // Private: execute against the site alone, in the exact order of
        // the sequential per-record body.
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

/// How a private record executes: the L1-I way its fetch hits (`None`
/// when it stays in the current block), and its data block, whether it
/// stores, and the L1-D way it hits.
type PrivateHits = (Option<Way>, Option<(BlockAddr, bool, Way)>);

/// Classifies `rec`, whose fetch is from `block`: its private hits, or
/// `None` when it needs shared state. One probe per cache at most, and
/// none for an L1-D block that the memoized way still holds; the ways
/// found are the ones the hits update, since nothing in between changes
/// either cache's sets.
#[inline(always)]
fn classify(
    site: &mut CoreSite,
    rec: &Record,
    block: BlockAddr,
    params: &SegmentParams,
) -> Option<PrivateHits> {
    let iway = if site.last_iblock == Some(block) {
        None
    } else if params.fetch_transition_blocks {
        return None;
    } else {
        Some(site.l1i.probe(block)?)
    };
    let Some(d) = rec.data else {
        return Some((iway, None));
    };
    let dblock = d.addr.block_default();
    let way = match site.last_dway {
        Some((b, way)) if b == dblock && site.l1d.holds(way, dblock) => way,
        _ => {
            let way = site.l1d.probe(dblock)?;
            site.last_dway = Some((dblock, way));
            way
        }
    };
    if d.is_store && !site.l1d.is_dirty(way) {
        return None;
    }
    Some((iway, Some((dblock, d.is_store, way))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::system::System;
    use slicc_common::SplitMix64;
    use slicc_trace::{TraceScale, Workload, WorkloadBuilder};

    /// Runs one thread's stream on core 0 of a tiny machine, segment by
    /// segment, executing each blocking record through the full
    /// `System` paths, and checks that every stop resumes on exactly the
    /// next record of the thread's trace. Returns the stops seen.
    fn drive(spec: &WorkloadSpec, thread: ThreadId) -> [u64; 3] {
        let reference: Vec<Record> = spec.thread_trace(thread).collect();
        let mut sys = System::try_new(&SimConfig::tiny_test()).expect("tiny machine is valid");
        let params = sys.segment_params(false);
        let core = CoreId::new(0);
        let mut sink = EventSink::disabled();
        let mut stream = ThreadStream::lazy(spec.thread_trace(thread));
        let mut stops = [0u64; 3];
        loop {
            let before = stream.executed();
            let stop = run_segment(
                sys.core_site_mut(core),
                &mut stream,
                &mut sink,
                core,
                thread,
                spec,
                &params,
            );
            let after = stream.executed();
            assert_eq!(
                sys.timer(core).stats().instructions,
                after,
                "each executed record retires once"
            );
            match stop {
                StopReason::Exhausted => {
                    stops[2] += 1;
                    assert_eq!(after, reference.len() as u64);
                    assert_eq!(stream.next(), None);
                    let again = run_segment(
                        sys.core_site_mut(core),
                        &mut stream,
                        &mut sink,
                        core,
                        thread,
                        spec,
                        &params,
                    );
                    assert_eq!(again, StopReason::Exhausted);
                    return stops;
                }
                StopReason::BatchCap => {
                    stops[1] += 1;
                    assert_eq!(after - before, BATCH as u64);
                }
                StopReason::Blocking => {
                    stops[0] += 1;
                    let rec = stream.next().expect("a blocking stop leaves its record");
                    assert_eq!(rec, reference[after as usize], "blocking record {after}");
                    assert_eq!(stream.executed(), after + 1);
                    sys.timer_mut(core).retire_instruction();
                    let block = rec.pc.block_default();
                    if sys.core_site(core).last_iblock != Some(block) {
                        sys.core_site_mut(core).last_iblock = Some(block);
                        sys.ifetch(core, block);
                    }
                    if let Some(d) = rec.data {
                        sys.data_access(core, d.addr.block_default(), d.is_store);
                    }
                }
            }
        }
    }

    #[test]
    fn streams_resume_on_the_next_record_after_every_stop() {
        let mut rng = SplitMix64::new(0x5709);
        let mut stops = [0u64; 3];
        for _ in 0..3 {
            let seed = rng.next_u64();
            // A code-only workload whose segments fit the L1-I runs whole
            // batches of private records; the presets block often.
            let code_only = WorkloadBuilder::new("code only")
                .seed(seed)
                .tasks(8)
                .segment_blocks(16)
                .txn_type("T", 1.0, 2, 3)
                .no_data()
                .build();
            let specs = [
                Workload::TpcC1.spec(TraceScale::tiny().with_seed(seed)),
                Workload::MapReduce.spec(TraceScale::tiny().with_seed(seed)),
                code_only,
            ];
            for spec in &specs {
                let thread = ThreadId::new(rng.next_below(8) as u32);
                for (total, seen) in stops.iter_mut().zip(drive(spec, thread)) {
                    *total += seen;
                }
            }
        }
        assert!(stops.iter().all(|&n| n > 0), "every stop reason must occur: {stops:?}");
    }
}
