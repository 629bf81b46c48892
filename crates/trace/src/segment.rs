//! Code segments and the global code pool.
//!
//! §3.1 models a transaction's instruction footprint as a sequence of
//! *code segments*, "where each segment fits in the L1-I cache of a single
//! core, but two segments would not fit together". The [`CodePool`] lays
//! segments out in a dedicated code region of the simulated address
//! space; transaction-type programs reference them by [`SegmentId`].
//!
//! Segments can be laid out **sparsely**: real binaries interleave hot
//! code with cold paths, padding and unreached functions, so the live
//! blocks of a segment are separated by dead gaps. This matters for
//! fidelity of the next-line prefetcher baseline (§5.6): in a dense
//! layout, prefetching "the next block" is always useful; with real
//! layouts it often fetches dead code.

use slicc_common::{Addr, BlockAddr, SplitMix64};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Index of a segment within a [`CodePool`].
pub type SegmentId = u32;

/// First block number of the code region (blocks below this are never
/// instruction blocks).
pub const CODE_REGION_FIRST_BLOCK: u64 = 0x10_0000;

/// A range of instruction cache blocks: `num_blocks` live blocks, laid
/// out (possibly sparsely) from `first_block`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeSegment {
    /// The segment's id in its pool; it seeds the visit order.
    id: SegmentId,
    first_block: u64,
    /// Offset (in blocks) of each live block from `first_block`;
    /// strictly ascending, `offsets[0] == 0`.
    offsets: Vec<u32>,
    visit_blocks: VisitBlocks,
}

/// A segment's block-visit order as the number of each visited block,
/// built on first use together with the run length it was built for.
/// Clones of the pool share the built order.
#[derive(Clone, Default)]
struct VisitBlocks(OnceLock<(u32, Arc<[u32]>)>);

impl fmt::Debug for VisitBlocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("VisitBlocks")
    }
}

/// Derived from the segment's other fields, so it never tells two
/// segments apart.
impl PartialEq for VisitBlocks {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for VisitBlocks {}

impl CodeSegment {
    /// Dead-gap length in blocks. A full set-stride of the largest cache
    /// modelled with set-indexed placement (the 1024-set 512 KiB PIF
    /// L1-I), and therefore a multiple of every smaller power-of-two set
    /// count, so a sparse segment populates cache sets in exactly the
    /// same sequence as a dense one — sparsity changes *address
    /// adjacency* (what a next-line prefetcher exploits) without
    /// perturbing set pressure.
    const GAP_BLOCKS: u32 = 1024;

    fn new(id: SegmentId, first_block: u64, num_blocks: u32, gap_prob: f64, seed: u64) -> Self {
        assert!(num_blocks > 0, "segments must be non-empty");
        let mut rng = SplitMix64::new(seed);
        let mut offsets = Vec::with_capacity(num_blocks as usize);
        let mut off = 0u32;
        for i in 0..num_blocks {
            offsets.push(off);
            off += 1;
            // Dead gap after a live block (never after the last).
            if i + 1 < num_blocks && gap_prob > 0.0 && rng.chance(gap_prob) {
                off += Self::GAP_BLOCKS;
            }
        }
        CodeSegment { id, first_block, offsets, visit_blocks: VisitBlocks::default() }
    }

    /// The segment's first (live) cache block.
    pub fn first_block(&self) -> BlockAddr {
        BlockAddr::new(self.first_block)
    }

    /// Number of live 64-byte blocks in the segment (its cache
    /// footprint).
    pub fn num_blocks(&self) -> u32 {
        self.offsets.len() as u32
    }

    /// The address span in blocks, including dead gaps.
    pub fn span_blocks(&self) -> u32 {
        self.offsets.last().copied().unwrap_or(0) + 1
    }

    /// Live size in bytes (the cache capacity the segment occupies).
    pub fn size_bytes(&self) -> u64 {
        self.num_blocks() as u64 * 64
    }

    /// The `i`-th live block of the segment.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block(&self, i: u32) -> BlockAddr {
        BlockAddr::new(self.first_block + self.offsets[i as usize] as u64)
    }

    /// The byte address of instruction `instr` (4-byte instructions)
    /// within live block `i`.
    pub fn instr_addr(&self, i: u32, instr: u32) -> Addr {
        self.block(i).base_addr(64).offset(instr as u64 * 4)
    }

    /// The number of each block in the segment's visit order
    /// ([`segment_visit_order`] with runs of mean `run_len` blocks), as a
    /// `u32`: code blocks lie far below 2^32. Every thread that executes
    /// the segment walks this one order, so it is built once, on first
    /// use, and shared; a different `run_len` than the first caller's is
    /// built afresh.
    pub(crate) fn visit_blocks(&self, run_len: u32) -> Arc<[u32]> {
        let build = || -> Arc<[u32]> {
            segment_visit_order(self.id, self.num_blocks(), run_len)
                .into_iter()
                .map(|i| u32::try_from(self.block(i).raw()).expect("code blocks lie below 2^32"))
                .collect()
        };
        let (built_for, blocks) = self.visit_blocks.0.get_or_init(|| (run_len, build()));
        if *built_for == run_len {
            Arc::clone(blocks)
        } else {
            build()
        }
    }

    /// Whether `block` is one of this segment's *live* blocks.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        let Some(delta) = block.raw().checked_sub(self.first_block) else {
            return false;
        };
        if delta > u32::MAX as u64 {
            return false;
        }
        self.offsets.binary_search(&(delta as u32)).is_ok()
    }

    /// Whether `block` falls within the segment's address span (live or
    /// dead).
    pub fn spans_block(&self, block: BlockAddr) -> bool {
        (self.first_block..self.first_block + self.span_blocks() as u64).contains(&block.raw())
    }
}

/// The global pool of code segments for one workload.
///
/// Segments are laid out back-to-back (by span) starting at
/// [`CODE_REGION_FIRST_BLOCK`]; live blocks never overlap, so block-level
/// commonality between threads arises only from *programs sharing
/// segments*, exactly the structure SLICC exploits.
///
/// # Example
///
/// ```
/// use slicc_trace::CodePool;
///
/// let mut pool = CodePool::new();
/// let a = pool.add_segment(320); // 20 KiB of live code
/// let b = pool.add_segment(320);
/// assert_ne!(pool.segment(a).first_block(), pool.segment(b).first_block());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CodePool {
    segments: Vec<CodeSegment>,
    next_block: u64,
    gap_prob: f64,
}

impl CodePool {
    /// Creates an empty pool with a dense layout (no dead gaps).
    pub fn new() -> Self {
        CodePool { segments: Vec::new(), next_block: CODE_REGION_FIRST_BLOCK, gap_prob: 0.0 }
    }

    /// Creates an empty pool whose segments interleave live blocks with
    /// dead gaps at the given probability (realistic binary layout).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= gap_prob < 1`.
    pub fn with_gap_prob(gap_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&gap_prob), "gap probability must be in [0, 1)");
        CodePool { segments: Vec::new(), next_block: CODE_REGION_FIRST_BLOCK, gap_prob }
    }

    /// Appends a segment of `num_blocks` live blocks and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks` is zero.
    pub fn add_segment(&mut self, num_blocks: u32) -> SegmentId {
        let id = self.segments.len() as SegmentId;
        let seg = CodeSegment::new(
            id,
            self.next_block,
            num_blocks,
            self.gap_prob,
            0x5e9 ^ (id as u64) << 20,
        );
        self.next_block += seg.span_blocks() as u64;
        self.segments.push(seg);
        id
    }

    /// The segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn segment(&self, id: SegmentId) -> &CodeSegment {
        &self.segments[id as usize]
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the pool has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total live code bytes across all segments.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.size_bytes()).sum()
    }

    /// Iterates all segments with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentId, &CodeSegment)> {
        self.segments.iter().enumerate().map(|(i, s)| (i as SegmentId, s))
    }

    /// Finds the segment whose *live* blocks contain `block`, if any
    /// (O(log n)).
    pub fn segment_of_block(&self, block: BlockAddr) -> Option<SegmentId> {
        let idx = self
            .segments
            .partition_point(|s| s.first_block + s.span_blocks() as u64 <= block.raw());
        let seg = self.segments.get(idx)?;
        seg.contains_block(block).then_some(idx as SegmentId)
    }
}

/// The fixed block-visit permutation of one segment: short sequential
/// runs (basic blocks / small functions) in a shuffled order (the call
/// graph). Derived from the segment id only, so every thread walks the
/// same layout.
pub(crate) fn segment_visit_order(seg: SegmentId, num_blocks: u32, run_len: u32) -> Vec<u32> {
    let mut rng = SplitMix64::new(0xc0de_1a11 ^ (seg as u64).wrapping_mul(0x9e37_79b9));
    // Cut 0..num_blocks into runs of 1..=run_len blocks.
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i < num_blocks {
        let len = (1 + rng.next_below(run_len.max(1) as u64) as u32).min(num_blocks - i);
        runs.push((i, len));
        i += len;
    }
    // Fisher-Yates shuffle of the runs.
    for k in (1..runs.len()).rev() {
        let j = rng.next_below(k as u64 + 1) as usize;
        runs.swap(k, j);
    }
    runs.into_iter().flat_map(|(start, len)| start..start + len).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_disjoint_and_ordered() {
        let mut pool = CodePool::new();
        let ids: Vec<_> = (0..5).map(|_| pool.add_segment(100)).collect();
        for w in ids.windows(2) {
            let a = pool.segment(w[0]);
            let b = pool.segment(w[1]);
            assert_eq!(a.first_block().raw() + a.span_blocks() as u64, b.first_block().raw());
        }
        assert_eq!(pool.total_bytes(), 5 * 100 * 64);
    }

    #[test]
    fn dense_pool_has_no_gaps() {
        let mut pool = CodePool::new();
        let id = pool.add_segment(50);
        let seg = pool.segment(id);
        assert_eq!(seg.span_blocks(), 50);
        for i in 0..50 {
            assert_eq!(seg.block(i).raw(), seg.first_block().raw() + i as u64);
        }
    }

    #[test]
    fn sparse_pool_spreads_blocks() {
        let mut pool = CodePool::with_gap_prob(0.5);
        let id = pool.add_segment(200);
        let seg = pool.segment(id);
        assert_eq!(seg.num_blocks(), 200);
        assert!(seg.span_blocks() > 250, "span {} should include gaps", seg.span_blocks());
        // Live blocks are strictly ascending and unique.
        let blocks: Vec<_> = (0..200).map(|i| seg.block(i).raw()).collect();
        for w in blocks.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn sparse_layout_is_deterministic() {
        let mut a = CodePool::with_gap_prob(0.5);
        let mut b = CodePool::with_gap_prob(0.5);
        let ia = a.add_segment(64);
        let ib = b.add_segment(64);
        let sa: Vec<_> = (0..64).map(|i| a.segment(ia).block(i)).collect();
        let sb: Vec<_> = (0..64).map(|i| b.segment(ib).block(i)).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn block_and_instr_addresses() {
        let mut pool = CodePool::new();
        let id = pool.add_segment(8);
        let seg = pool.segment(id);
        assert_eq!(seg.block(0), seg.first_block());
        assert_eq!(seg.block(3).raw(), seg.first_block().raw() + 3);
        let a = seg.instr_addr(1, 2);
        assert_eq!(a.raw(), (seg.first_block().raw() + 1) * 64 + 8);
        assert_eq!(a.block(64), seg.block(1));
    }

    #[test]
    fn contains_block_distinguishes_live_from_dead() {
        let mut pool = CodePool::with_gap_prob(0.9);
        let id = pool.add_segment(10);
        let seg = pool.segment(id);
        for i in 0..10 {
            assert!(seg.contains_block(seg.block(i)));
        }
        assert!(seg.span_blocks() > 10, "gap_prob 0.9 must create gaps");
        // Some spanned block is dead.
        let dead = (0..seg.span_blocks() as u64)
            .map(|d| BlockAddr::new(seg.first_block().raw() + d))
            .find(|&b| !seg.contains_block(b))
            .expect("a dead block exists");
        assert!(seg.spans_block(dead));
        assert!(!seg.contains_block(dead));
    }

    #[test]
    fn segment_of_block_lookup() {
        let mut pool = CodePool::new();
        let a = pool.add_segment(10);
        let b = pool.add_segment(20);
        let c = pool.add_segment(5);
        assert_eq!(pool.segment_of_block(pool.segment(a).block(9)), Some(a));
        assert_eq!(pool.segment_of_block(pool.segment(b).block(0)), Some(b));
        assert_eq!(pool.segment_of_block(pool.segment(c).block(4)), Some(c));
        assert_eq!(pool.segment_of_block(BlockAddr::new(0)), None);
        assert_eq!(pool.segment_of_block(BlockAddr::new(CODE_REGION_FIRST_BLOCK + 35)), None);
    }

    #[test]
    fn segment_of_block_skips_dead_blocks() {
        let mut pool = CodePool::with_gap_prob(0.9);
        let id = pool.add_segment(10);
        let seg = pool.segment(id).clone();
        let dead = (0..seg.span_blocks() as u64)
            .map(|d| BlockAddr::new(seg.first_block().raw() + d))
            .find(|&b| !seg.contains_block(b))
            .expect("a dead block exists");
        assert_eq!(pool.segment_of_block(dead), None);
        assert_eq!(pool.segment_of_block(seg.block(9)), Some(id));
    }

    #[test]
    fn code_region_starts_at_known_base() {
        let mut pool = CodePool::new();
        let id = pool.add_segment(1);
        assert_eq!(pool.segment(id).first_block().raw(), CODE_REGION_FIRST_BLOCK);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_segment_panics() {
        CodePool::new().add_segment(0);
    }

    #[test]
    #[should_panic(expected = "gap probability")]
    fn invalid_gap_prob_panics() {
        let _ = CodePool::with_gap_prob(1.5);
    }
}
