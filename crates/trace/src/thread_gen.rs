//! Per-thread deterministic trace generation.
//!
//! A [`ThreadTrace`] is an iterator of [`Record`]s for one transaction
//! (one worker thread). Construction derives the thread's RNG stream from
//! the workload seed and the thread id, picks the transaction type from
//! the mix, and expands the segment-visit plan; iteration then walks the
//! plan emitting instruction fetches and data references. The same
//! `(spec, thread)` pair always regenerates the identical stream.
//!
//! The walk reads each segment's block-visit order as block numbers,
//! built once per spec and shared by every thread (see
//! `CodeSegment::visit_blocks`), so moving to the next block is one load.

use crate::access::{DataAccess, Record};
use crate::workload::{DataPattern, WorkloadSpec, DB_REGION_FIRST_BLOCK};
use slicc_common::{Addr, BlockAddr, SplitMix64, ThreadId, TxnTypeId};
use std::sync::Arc;

/// Capacity of the recently-touched private data block window.
const RECENT_WINDOW: usize = 8;
/// Blocks per control-flow cluster: a visit walks the segment as a
/// sequence of small clusters (functions / loop bodies), each repeated
/// `passes_per_visit` times before moving on. Re-reference distance is a
/// few blocks — what lets insertion policies (LIP/BIP/RRIP) promote live
/// blocks, as on real instruction streams.
const CLUSTER_BLOCKS: u32 = 6;
/// Data accesses per streamed block (sequential scan of 4-byte words
/// would give 16; MapReduce-style record parsing revisits a little less).
const STREAM_ACCESSES_PER_BLOCK: u64 = 16;

/// The deterministic access stream of one thread.
///
/// Created by [`WorkloadSpec::thread_trace`].
///
/// # Example
///
/// ```
/// use slicc_trace::{TraceScale, Workload};
/// use slicc_common::ThreadId;
///
/// let spec = Workload::MapReduce.spec(TraceScale::tiny());
/// let mut trace = spec.thread_trace(ThreadId::new(3));
/// let first = trace.next().expect("traces are non-empty");
/// assert!(first.pc.raw() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct ThreadTrace<'a> {
    spec: &'a WorkloadSpec,
    thread: ThreadId,
    txn_type: TxnTypeId,
    plan: Vec<u32>,
    /// The current visit's segment in its fixed block-visit order (the
    /// code's layout), as block numbers. Shared with every other thread
    /// executing the segment.
    order: Arc<[u32]>,
    /// The spec's sequential run length, which shapes the orders.
    run_len: u32,
    rng: SplitMix64,
    instrs_per_block: u32,
    passes_per_visit: u32,
    /// [`SplitMix64::odds`] of the spec's `skip_prob`.
    skip_odds: u64,

    // Cursor into the plan: within a visit, the segment is walked as
    // clusters of CLUSTER_BLOCKS consecutive order-positions, each
    // cluster repeated `passes_per_visit` times.
    visit: usize,
    cluster: u32,
    pass: u32,
    /// Position within the current cluster (0..CLUSTER_BLOCKS).
    block: u32,
    instr: u32,
    finished: bool,
    /// Byte address of the current block's first instruction; moves only
    /// when the cursor moves to another block.
    block_pc: Addr,

    // Data-access state.
    /// [`SplitMix64::odds`] of the spec's `data_ratio`: whether an
    /// instruction references data at all.
    data_odds: u64,
    data: DataGen,
    recent: Vec<u64>,
    recent_next: usize,
    emitted: u64,
}

/// One thread's data-address generator, with every constant of its
/// pattern worked out once in [`ThreadTrace::new`].
#[derive(Clone, Debug)]
enum DataGen {
    /// [`DataPattern::OltpMix`].
    Oltp {
        p_hot: f64,
        /// `p_hot + p_recent`.
        p_hot_or_recent: f64,
        hot_base: u64,
        hot_blocks: u64,
        db_blocks: u64,
        hot_store_odds: u64,
        /// Odds of a store to a private block: the private regions absorb
        /// the stores the read-mostly hot region does not, keeping the
        /// overall store fraction at `store_frac` (§5.5: 45%).
        private_store_odds: u64,
    },
    /// [`DataPattern::Streaming`].
    Streaming { base: u64, cursor: StreamCursor, store_odds: u64 },
}

/// A thread's sequential scan through its partition: it starts at a
/// per-thread offset, gives each block [`STREAM_ACCESSES_PER_BLOCK`]
/// accesses, and wraps at the partition's end. Access `pos` reads block
/// `(offset + pos / STREAM_ACCESSES_PER_BLOCK) % partition`.
#[derive(Clone, Debug)]
struct StreamCursor {
    partition: u64,
    /// Block within the partition.
    block: u64,
    /// Accesses already made to `block`.
    hits: u64,
}

impl StreamCursor {
    fn new(partition: u64, offset: u64) -> Self {
        debug_assert!(offset < partition);
        StreamCursor { partition, block: offset, hits: 0 }
    }

    /// The partition block of the next access.
    #[inline]
    fn next(&mut self) -> u64 {
        let block = self.block;
        self.hits += 1;
        if self.hits == STREAM_ACCESSES_PER_BLOCK {
            self.hits = 0;
            self.block += 1;
            if self.block == self.partition {
                self.block = 0;
            }
        }
        block
    }
}

impl<'a> ThreadTrace<'a> {
    /// Builds the trace generator for `thread`.
    pub(crate) fn new(spec: &'a WorkloadSpec, thread: ThreadId) -> Self {
        let mut rng = spec.thread_rng(thread);
        let txn_type = spec.choose_type(&mut rng);
        let plan = spec.expand_plan(txn_type, &mut rng);
        let run_len = spec.code.sequential_run_blocks.max(1);
        let order = spec.pool.segment(plan[0]).visit_blocks(run_len);
        let d = &spec.data;
        let data = match d.pattern {
            DataPattern::OltpMix { p_hot, p_recent, hot_store_frac } => DataGen::Oltp {
                p_hot,
                p_hot_or_recent: p_hot + p_recent,
                hot_base: spec.hot_region_base(txn_type),
                hot_blocks: d.hot_blocks,
                db_blocks: d.db_blocks,
                hot_store_odds: SplitMix64::odds(hot_store_frac),
                private_store_odds: SplitMix64::odds(
                    ((d.store_frac - p_hot * hot_store_frac) / (1.0 - p_hot)).clamp(0.0, 1.0),
                ),
            },
            DataPattern::Streaming => {
                let partition = (d.db_blocks / spec.num_tasks.max(1) as u64).max(1);
                // Scans start at a per-thread offset: aligned starts would
                // phase-lock every thread's DRAM channel/bank sequence.
                let offset = SplitMix64::new(0x5ca0 ^ thread.raw() as u64).next_below(partition);
                DataGen::Streaming {
                    base: DB_REGION_FIRST_BLOCK + thread.raw() as u64 * partition,
                    cursor: StreamCursor::new(partition, offset),
                    store_odds: SplitMix64::odds(d.store_frac),
                }
            }
        };
        let mut trace = ThreadTrace {
            spec,
            thread,
            txn_type,
            plan,
            order,
            run_len,
            rng,
            instrs_per_block: spec.code.instrs_per_block,
            passes_per_visit: spec.code.passes_per_visit,
            skip_odds: SplitMix64::odds(spec.code.skip_prob),
            visit: 0,
            cluster: 0,
            pass: 0,
            block: 0,
            instr: 0,
            finished: false,
            block_pc: Addr::new(0),
            data_odds: SplitMix64::odds(d.data_ratio),
            data,
            recent: Vec::with_capacity(RECENT_WINDOW),
            recent_next: 0,
            emitted: 0,
        };
        trace.block_pc = trace.current_block_pc();
        trace
    }

    /// The first instruction's address in the block under the cursor.
    #[inline]
    fn current_block_pc(&self) -> Addr {
        BlockAddr::new(u64::from(self.order[(self.cluster * CLUSTER_BLOCKS + self.block) as usize]))
            .base_addr(64)
    }

    /// The thread this trace belongs to.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The transaction type this thread executes.
    pub fn txn_type(&self) -> TxnTypeId {
        self.txn_type
    }

    /// The expanded segment-visit plan (diagnostics; segment ids).
    pub fn plan(&self) -> &[u32] {
        &self.plan
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Batch-decodes up to `n` records, appending them to `buf`; returns
    /// how many were produced (fewer than `n` only at end of trace).
    ///
    /// Exactly equivalent to calling [`Iterator::next`] `n` times; it
    /// lets a consumer time or buffer the generator on its own.
    pub fn fill(&mut self, buf: &mut Vec<Record>, n: usize) -> usize {
        buf.reserve(n);
        let before = buf.len();
        for _ in 0..n {
            match self.next() {
                Some(rec) => buf.push(rec),
                None => break,
            }
        }
        buf.len() - before
    }

    /// Remembers a private data block in the recent window.
    fn remember(&mut self, block: u64) {
        if self.recent.len() < RECENT_WINDOW {
            self.recent.push(block);
        } else {
            self.recent[self.recent_next] = block;
            self.recent_next = (self.recent_next + 1) % RECENT_WINDOW;
        }
    }

    /// Generates this instruction's data reference, if any.
    #[inline(always)]
    fn gen_data(&mut self) -> Option<DataAccess> {
        if !self.rng.hit(self.data_odds) {
            return None;
        }
        let (block, is_store) = match &mut self.data {
            DataGen::Oltp {
                p_hot,
                p_hot_or_recent,
                hot_base,
                hot_blocks,
                db_blocks,
                hot_store_odds,
                private_store_odds,
            } => {
                let r = self.rng.next_f64();
                if r < *p_hot {
                    let b = *hot_base + self.rng.next_below(*hot_blocks);
                    (b, self.rng.hit(*hot_store_odds))
                } else if r < *p_hot_or_recent && !self.recent.is_empty() {
                    let idx = self.rng.next_below(self.recent.len() as u64) as usize;
                    (self.recent[idx], self.rng.hit(*private_store_odds))
                } else {
                    let b = DB_REGION_FIRST_BLOCK + self.rng.next_below(*db_blocks);
                    let store = self.rng.hit(*private_store_odds);
                    self.remember(b);
                    (b, store)
                }
            }
            DataGen::Streaming { base, cursor, store_odds } => {
                (*base + cursor.next(), self.rng.hit(*store_odds))
            }
        };
        Some(DataAccess { addr: Addr::new(block * 64), is_store })
    }

    /// Number of blocks in the current cluster (the last cluster of a
    /// segment may be short).
    fn cluster_len(&self) -> u32 {
        (self.order.len() as u32 - self.cluster * CLUSTER_BLOCKS).min(CLUSTER_BLOCKS)
    }

    /// Moves the cursor to the next block / cluster pass / cluster /
    /// visit, sampling control-flow skips.
    fn advance_block(&mut self) {
        let len = self.cluster_len();
        loop {
            self.block += 1;
            // Conditional control flow occasionally skips a block.
            if self.block < len && self.rng.hit(self.skip_odds) {
                continue;
            }
            break;
        }
        if self.block >= len {
            self.block = 0;
            self.pass += 1;
            if self.pass >= self.passes_per_visit {
                self.pass = 0;
                self.cluster += 1;
                if self.cluster * CLUSTER_BLOCKS >= self.order.len() as u32 {
                    self.cluster = 0;
                    self.visit += 1;
                    if self.visit >= self.plan.len() {
                        self.finished = true;
                        return;
                    }
                    self.order =
                        self.spec.pool.segment(self.plan[self.visit]).visit_blocks(self.run_len);
                }
            }
        }
        self.block_pc = self.current_block_pc();
    }
}

impl Iterator for ThreadTrace<'_> {
    type Item = Record;

    /// Inlined into its caller, the engine's segment loop, so a record
    /// goes from the generator to the classifier in registers.
    #[inline(always)]
    fn next(&mut self) -> Option<Record> {
        if self.finished {
            return None;
        }
        let pc = self.block_pc.offset(self.instr as u64 * 4);
        let data = self.gen_data();
        self.emitted += 1;

        self.instr += 1;
        if self.instr >= self.instrs_per_block {
            self.instr = 0;
            self.advance_block();
        }
        Some(Record { pc, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TraceScale, Workload};
    use std::collections::HashSet;

    fn tiny_tpcc() -> crate::workload::WorkloadSpec {
        Workload::TpcC1.spec(TraceScale::tiny())
    }

    #[test]
    fn regeneration_is_identical() {
        let spec = tiny_tpcc();
        let a: Vec<_> = spec.thread_trace(ThreadId::new(2)).collect();
        let b: Vec<_> = spec.thread_trace(ThreadId::new(2)).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_threads_differ() {
        let spec = tiny_tpcc();
        let a: Vec<_> = spec.thread_trace(ThreadId::new(0)).collect();
        let b: Vec<_> = spec.thread_trace(ThreadId::new(1)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn trace_type_matches_spec_thread_type() {
        let spec = Workload::TpcE.spec(TraceScale::tiny());
        for t in spec.threads() {
            assert_eq!(spec.thread_trace(t).txn_type(), spec.thread_type(t));
        }
    }

    #[test]
    fn instruction_addresses_stay_inside_planned_segments() {
        let spec = tiny_tpcc();
        let trace = spec.thread_trace(ThreadId::new(0));
        let plan: HashSet<u32> = trace.plan().iter().copied().collect();
        for rec in spec.thread_trace(ThreadId::new(0)) {
            let seg =
                spec.pool.segment_of_block(rec.pc.block(64)).expect("pc must be in a code segment");
            assert!(plan.contains(&seg), "pc in unplanned segment {seg}");
        }
    }

    #[test]
    fn store_fraction_is_roughly_45_percent() {
        let spec = Workload::TpcC1.spec(TraceScale::small());
        let (mut stores, mut total) = (0u64, 0u64);
        for rec in spec.thread_trace(ThreadId::new(1)) {
            if let Some(d) = rec.data {
                total += 1;
                if d.is_store {
                    stores += 1;
                }
            }
        }
        let frac = stores as f64 / total as f64;
        assert!((0.40..0.50).contains(&frac), "store fraction {frac}");
    }

    #[test]
    fn data_ratio_is_roughly_as_configured() {
        let spec = Workload::TpcC1.spec(TraceScale::small());
        let (mut with_data, mut total) = (0u64, 0u64);
        for rec in spec.thread_trace(ThreadId::new(0)) {
            total += 1;
            if rec.data.is_some() {
                with_data += 1;
            }
        }
        let frac = with_data as f64 / total as f64;
        assert!((frac - spec.data.data_ratio).abs() < 0.03, "data ratio {frac}");
    }

    #[test]
    fn same_type_threads_share_most_instruction_blocks() {
        let spec = Workload::TpcC1.spec(TraceScale::small());
        // Find two threads of the same type.
        let mut by_type = std::collections::HashMap::new();
        let mut pair = None;
        for t in spec.threads() {
            let ty = spec.thread_type(t);
            if let Some(&prev) = by_type.get(&ty) {
                pair = Some((prev, t));
                break;
            }
            by_type.insert(ty, t);
        }
        let (a, b) = pair.expect("two same-type threads exist");
        let blocks_of =
            |t| -> HashSet<u64> { spec.thread_trace(t).map(|r| r.pc.block(64).raw()).collect() };
        let (ba, bb) = (blocks_of(a), blocks_of(b));
        let inter = ba.intersection(&bb).count();
        let union = ba.union(&bb).count();
        let overlap = inter as f64 / union as f64;
        assert!(overlap > 0.9, "same-type block overlap only {overlap}");
    }

    #[test]
    fn streaming_data_is_sequential_and_partitioned() {
        let spec = Workload::MapReduce.spec(TraceScale::tiny());
        let partition = spec.data.db_blocks / spec.num_tasks as u64;
        let mut last = None;
        for rec in spec.thread_trace(ThreadId::new(2)) {
            if let Some(d) = rec.data {
                let block = d.addr.block(64).raw();
                let off = block - DB_REGION_FIRST_BLOCK;
                assert!(
                    (2 * partition..3 * partition).contains(&off),
                    "thread 2 strayed out of its partition: {off}"
                );
                if let Some(prev) = last {
                    assert!(block == prev || block == prev + 1, "stream must advance sequentially");
                }
                last = Some(block);
            }
        }
    }

    #[test]
    fn oltp_data_blocks_live_in_data_regions() {
        let spec = tiny_tpcc();
        for t in spec.threads() {
            for rec in spec.thread_trace(t) {
                if let Some(d) = rec.data {
                    let b = d.addr.block(64).raw();
                    assert!(
                        b >= crate::workload::HOT_REGION_FIRST_BLOCK,
                        "data block {b:#x} collides with code region"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_fill_is_equivalent_to_repeated_next() {
        let spec = tiny_tpcc();
        let one_by_one: Vec<Record> = spec.thread_trace(ThreadId::new(0)).collect();
        // Refill in awkward batch sizes (including across the end of the
        // trace) and require the identical record stream.
        let mut batched = Vec::new();
        let mut tr = spec.thread_trace(ThreadId::new(0));
        for n in [1, 7, 100, 3].iter().cycle() {
            if tr.fill(&mut batched, *n) < *n {
                break;
            }
        }
        assert_eq!(batched, one_by_one);
        assert_eq!(tr.emitted(), one_by_one.len() as u64);
        // A drained trace fills nothing.
        assert_eq!(tr.fill(&mut batched, 8), 0);
    }

    #[test]
    fn stream_cursor_matches_the_closed_formula() {
        let mut rng = SplitMix64::new(0x57e4);
        for partition in [1u64, 2, 3, 7, 16, 1000] {
            for _ in 0..4 {
                let offset = rng.next_below(partition);
                let mut cursor = StreamCursor::new(partition, offset);
                for pos in 0..3 * partition * STREAM_ACCESSES_PER_BLOCK + 5 {
                    let want = (offset + pos / STREAM_ACCESSES_PER_BLOCK) % partition;
                    assert_eq!(
                        cursor.next(),
                        want,
                        "partition {partition} offset {offset} pos {pos}"
                    );
                }
            }
        }
    }

    /// Every segment's shared block order, read as the walk reads it
    /// (each block's base address), is the visit permutation mapped
    /// through `instr_addr`, one copy per spec; a different run length
    /// gets its own order.
    #[test]
    fn per_spec_address_orders_match_the_visit_order() {
        use crate::segment::{segment_visit_order, CodeSegment};
        fn addrs(blocks: &[u32]) -> Vec<Addr> {
            blocks.iter().map(|&b| BlockAddr::new(u64::from(b)).base_addr(64)).collect()
        }
        fn want(seg: &CodeSegment, id: u32, run_len: u32) -> Vec<Addr> {
            segment_visit_order(id, seg.num_blocks(), run_len)
                .iter()
                .map(|&i| seg.instr_addr(i, 0))
                .collect()
        }
        let mut rng = SplitMix64::new(0x0dd5);
        for w in Workload::ALL {
            for scale in [TraceScale::tiny(), TraceScale::small()] {
                let spec = w.spec(scale.with_seed(rng.next_u64()));
                let run_len = spec.code.sequential_run_blocks.max(1);
                for (id, seg) in spec.pool.iter() {
                    let blocks = seg.visit_blocks(run_len);
                    assert_eq!(addrs(&blocks), want(seg, id, run_len), "{w} segment {id}");
                    assert!(
                        Arc::ptr_eq(&blocks, &seg.visit_blocks(run_len)),
                        "{w}: one copy per spec"
                    );
                    let other = 1 + rng.next_below(6) as u32;
                    assert_eq!(
                        addrs(&seg.visit_blocks(other)),
                        want(seg, id, other),
                        "{w} segment {id} run length {other}"
                    );
                }
                // A cloned spec shares the built orders.
                let clone = spec.clone();
                let (id, seg) = spec.pool.iter().next().expect("a segment");
                assert!(Arc::ptr_eq(
                    &seg.visit_blocks(run_len),
                    &clone.pool.segment(id).visit_blocks(run_len)
                ));
            }
        }
    }

    #[test]
    fn emitted_counter_tracks_length() {
        let spec = tiny_tpcc();
        let mut tr = spec.thread_trace(ThreadId::new(0));
        let mut n = 0;
        while tr.next().is_some() {
            n += 1;
        }
        assert_eq!(tr.emitted(), n);
    }

    #[test]
    fn trace_lengths_are_plausible() {
        // At tiny scale each transaction is still thousands of
        // instructions (plan of several visits x 16 blocks x 2 passes x
        // 12 instrs).
        let spec = tiny_tpcc();
        for t in spec.threads() {
            let len = spec.thread_trace(t).count();
            assert!(len > 500, "trace too short: {len}");
            assert!(len < 1_000_000, "trace too long: {len}");
        }
    }
}
