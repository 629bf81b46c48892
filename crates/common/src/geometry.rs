//! Cache shape arithmetic: sizes, sets, ways, and index/tag extraction.

use crate::addr::BlockAddr;

/// The shape of a set-associative cache: capacity, associativity, and block
/// size, with derived set/way arithmetic.
///
/// # Example
///
/// ```
/// use slicc_common::CacheGeometry;
///
/// // Baseline L1 (Table 2): 32 KiB, 8-way, 64 B blocks.
/// let g = CacheGeometry::new(32 * 1024, 8, 64);
/// assert_eq!(g.num_sets(), 64);
/// assert_eq!(g.num_blocks(), 512);
/// assert_eq!(g.set_index_bits(), 6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    associativity: u32,
    block_size: u64,
    num_sets: u64,
    set_mask: u64,
    set_bits: u32,
}

impl CacheGeometry {
    /// Creates a geometry from total capacity (bytes), associativity
    /// (ways), and block size (bytes).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, if the capacity is not an exact
    /// multiple of `associativity * block_size`, or if the resulting number
    /// of sets is not a power of two (real caches index with bit fields).
    pub fn new(size_bytes: u64, associativity: u32, block_size: u64) -> Self {
        assert!(
            size_bytes > 0 && associativity > 0 && block_size > 0,
            "cache geometry parameters must be non-zero"
        );
        assert!(block_size.is_power_of_two(), "block size must be a power of two");
        let way_bytes = associativity as u64 * block_size;
        assert!(
            size_bytes.is_multiple_of(way_bytes),
            "capacity must be a multiple of associativity * block size"
        );
        let num_sets = size_bytes / way_bytes;
        assert!(
            num_sets.is_power_of_two(),
            "number of sets must be a power of two (got {num_sets})"
        );
        CacheGeometry {
            size_bytes,
            associativity,
            block_size,
            num_sets,
            set_mask: num_sets - 1,
            set_bits: num_sets.trailing_zeros(),
        }
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Associativity (number of ways per set).
    pub const fn associativity(self) -> u32 {
        self.associativity
    }

    /// Block size in bytes.
    pub const fn block_size(self) -> u64 {
        self.block_size
    }

    /// Number of sets.
    pub const fn num_sets(self) -> u64 {
        self.num_sets
    }

    /// Total number of blocks the cache can hold (`sets * ways`).
    pub const fn num_blocks(self) -> u64 {
        self.num_sets * self.associativity as u64
    }

    /// Number of bits in the set index.
    pub const fn set_index_bits(self) -> u32 {
        self.set_bits
    }

    /// Extracts the set index for a block address.
    pub const fn set_index(self, block: BlockAddr) -> usize {
        (block.raw() & self.set_mask) as usize
    }

    /// Extracts the tag (the block address bits above the set index).
    pub const fn tag(self, block: BlockAddr) -> u64 {
        block.raw() >> self.set_bits
    }

    /// Reconstructs a block address from a `(set, tag)` pair; the inverse
    /// of [`CacheGeometry::set_index`] + [`CacheGeometry::tag`].
    pub const fn block_from_parts(self, set: usize, tag: u64) -> BlockAddr {
        BlockAddr::new((tag << self.set_bits) | set as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_l1_geometry() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        assert_eq!(g.num_sets(), 64);
        assert_eq!(g.num_blocks(), 512);
        assert_eq!(g.set_index_bits(), 6);
        assert_eq!(g.size_bytes(), 32 * 1024);
        assert_eq!(g.associativity(), 8);
        assert_eq!(g.block_size(), 64);
    }

    #[test]
    fn l2_geometry() {
        // 16 MiB shared L2, 16-way, 64 B blocks (Table 2: 1 MiB per core x 16).
        let g = CacheGeometry::new(16 * 1024 * 1024, 16, 64);
        assert_eq!(g.num_blocks(), 262_144);
        assert_eq!(g.num_sets(), 16_384);
    }

    #[test]
    fn set_and_tag_partition_the_block_address() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        for raw in [0u64, 1, 63, 64, 65, 0xdead_beef, u64::MAX >> 8] {
            let b = BlockAddr::new(raw);
            let set = g.set_index(b);
            let tag = g.tag(b);
            assert!(set < g.num_sets() as usize);
            assert_eq!(g.block_from_parts(set, tag), b, "roundtrip failed for {raw:#x}");
        }
    }

    #[test]
    fn consecutive_blocks_hit_consecutive_sets() {
        let g = CacheGeometry::new(32 * 1024, 8, 64);
        let s0 = g.set_index(BlockAddr::new(100));
        let s1 = g.set_index(BlockAddr::new(101));
        assert_eq!((s0 + 1) % g.num_sets() as usize, s1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        let _ = CacheGeometry::new(3 * 1024, 8, 64);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn rejects_zero_capacity() {
        let _ = CacheGeometry::new(0, 8, 64);
    }

    #[test]
    fn direct_mapped_and_fully_associative_extremes() {
        let dm = CacheGeometry::new(4096, 1, 64);
        assert_eq!(dm.num_sets(), 64);
        let fa = CacheGeometry::new(4096, 64, 64);
        assert_eq!(fa.num_sets(), 1);
        assert_eq!(fa.set_index(BlockAddr::new(12345)), 0);
    }
}
