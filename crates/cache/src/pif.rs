//! Proactive Instruction Fetch (PIF) — the paper's state-of-the-art
//! prefetcher comparator, implemented rather than only upper-bounded.
//!
//! The SLICC paper models PIF \[5\] (Ferdman, Kaynak & Falsafi, MICRO 2011)
//! as a 512 KiB cache at 32 KiB latency and charges it ~40 KiB of storage
//! per core. This module implements the actual mechanism so the
//! comparison can also be run against a real prefetcher:
//!
//! - the retire-order fetch stream is compacted into **spatial
//!   footprints** — a trigger block plus a bit vector of the neighbouring
//!   blocks touched while execution stayed in its region;
//! - footprints are logged in a circular **history buffer** (the temporal
//!   stream), and an **index table** maps trigger blocks to their most
//!   recent history position;
//! - a miss whose block matches an indexed trigger starts a **stream
//!   read-out**: the next footprints in the history are prefetched ahead
//!   of execution, and the stream advances as its footprints are
//!   consumed.

use crate::cache::{Cache, EvictedBlock};
use slicc_common::{BlockAddr, FastHashMap};

/// One spatial footprint: a trigger block and the offsets (within
/// [`Pif::region_blocks`] of it) that were touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Footprint {
    trigger: u64,
    bits: u32,
}

impl Footprint {
    fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..32u32)
            .filter(|i| self.bits & (1 << i) != 0)
            .map(|i| BlockAddr::new(self.trigger + i as u64))
    }
}

/// Configuration of the PIF engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PifConfig {
    /// Blocks per spatial region (footprint width, ≤ 32).
    pub region_blocks: u32,
    /// History buffer entries. At ~42 bits per entry (trigger + bitmap),
    /// the default 8192 entries cost ~43 KiB — the paper's "∼40 KB per
    /// core".
    pub history_entries: usize,
    /// Footprints kept prefetched ahead of the consumed one.
    pub lookahead: usize,
}

impl Default for PifConfig {
    fn default() -> Self {
        PifConfig { region_blocks: 8, history_entries: 8192, lookahead: 4 }
    }
}

impl slicc_common::StableHash for PifConfig {
    fn stable_hash(&self, h: &mut slicc_common::StableHasher) {
        self.region_blocks.stable_hash(h);
        self.history_entries.stable_hash(h);
        self.lookahead.stable_hash(h);
    }
}

/// The per-core PIF engine.
///
/// Drive it with every fetched block (block-transition granularity) via
/// [`Pif::on_fetch`]; it trains continuously and issues prefetch fills
/// into the cache it is given.
#[derive(Clone, Debug)]
pub struct Pif {
    config: PifConfig,
    history: Vec<Footprint>,
    head: usize,
    index: FastHashMap<u64, usize>,
    /// Forming footprint.
    current: Option<Footprint>,
    /// Active stream read-out position in the history, if any.
    stream: Option<usize>,
    prefetches: u64,
    stream_starts: u64,
}

impl Pif {
    /// Creates an empty engine.
    ///
    /// # Panics
    ///
    /// Panics if the region width is 0 or > 32, the history is empty, or
    /// the lookahead is 0.
    pub fn new(config: PifConfig) -> Self {
        assert!((1..=32).contains(&config.region_blocks), "region must be 1..=32 blocks");
        assert!(config.history_entries > 0, "history must be non-empty");
        assert!(config.lookahead > 0, "lookahead must be positive");
        Pif {
            config,
            history: Vec::with_capacity(config.history_entries),
            head: 0,
            index: FastHashMap::default(),
            current: None,
            stream: None,
            prefetches: 0,
            stream_starts: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PifConfig {
        &self.config
    }

    /// Storage cost of the modelled hardware in bits (history + index is
    /// derived from the history in hardware PIF; we charge the log).
    pub fn storage_bits(&self) -> u64 {
        // Trigger (34-bit partial address) + region bitmap.
        self.config.history_entries as u64 * (34 + self.config.region_blocks as u64)
    }

    /// Prefetch fills issued so far.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Stream read-outs started so far.
    pub fn stream_starts(&self) -> u64 {
        self.stream_starts
    }

    fn region_trigger(&self, block: BlockAddr) -> u64 {
        block.raw() / self.config.region_blocks as u64 * self.config.region_blocks as u64
    }

    /// Observes one fetched block (`hit` is the L1-I outcome) and issues
    /// prefetches into `l1i`. Returns the blocks its fills displaced.
    /// Convenience wrapper over [`Self::on_fetch_into`].
    pub fn on_fetch(&mut self, l1i: &mut Cache, block: BlockAddr, hit: bool) -> Vec<EvictedBlock> {
        let mut evicted = Vec::new();
        self.on_fetch_into(l1i, block, hit, &mut evicted);
        evicted
    }

    /// [`Self::on_fetch`] appending displaced blocks to a caller-owned
    /// buffer, so the steady-state fetch path allocates nothing.
    pub fn on_fetch_into(
        &mut self,
        l1i: &mut Cache,
        block: BlockAddr,
        hit: bool,
        evicted: &mut Vec<EvictedBlock>,
    ) {
        // --- Training: retire-order footprint formation.
        let trigger = self.region_trigger(block);
        let offset = (block.raw() - trigger) as u32;
        match &mut self.current {
            Some(fp) if fp.trigger == trigger => {
                fp.bits |= 1 << offset;
            }
            _ => {
                if let Some(done) = self.current.take() {
                    self.commit(done);
                }
                self.current = Some(Footprint { trigger, bits: 1 << offset });
            }
        }

        // --- Prediction: follow or (re)start a stream on a miss.
        if let Some(pos) = self.stream {
            // The stream is consumed when execution reaches the region of
            // the footprint at the read pointer.
            if self.history.get(pos).is_some_and(|fp| fp.trigger == trigger) {
                let next = (pos + 1) % self.history.len().max(1);
                self.stream = Some(next);
                // Keep the lookahead window full.
                let ahead = (pos + self.config.lookahead) % self.history.len().max(1);
                self.prefetch_entry(l1i, ahead, evicted);
            }
        }
        if !hit {
            if let Some(&pos) = self.index.get(&trigger) {
                // Restart the stream from this trigger's last occurrence.
                self.stream_starts += 1;
                let len = self.history.len().max(1);
                self.stream = Some((pos + 1) % len);
                for k in 1..=self.config.lookahead {
                    self.prefetch_entry(l1i, (pos + k) % len, evicted);
                }
            } else {
                self.stream = None;
            }
        }
    }

    fn prefetch_entry(&mut self, l1i: &mut Cache, pos: usize, evicted: &mut Vec<EvictedBlock>) {
        let Some(fp) = self.history.get(pos).copied() else {
            return;
        };
        for b in fp.blocks() {
            if !l1i.contains(b) {
                self.prefetches += 1;
                if let Some(ev) = l1i.fill(b) {
                    evicted.push(ev);
                }
            }
        }
    }

    fn commit(&mut self, fp: Footprint) {
        if self.history.len() < self.config.history_entries {
            self.index.insert(fp.trigger, self.history.len());
            self.history.push(fp);
        } else {
            let old = self.history[self.head];
            // Drop the index entry if it still points at the overwritten
            // slot (a newer occurrence may have re-indexed the trigger).
            if self.index.get(&old.trigger) == Some(&self.head) {
                self.index.remove(&old.trigger);
            }
            self.index.insert(fp.trigger, self.head);
            self.history[self.head] = fp;
            self.head = (self.head + 1) % self.config.history_entries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use slicc_common::CacheGeometry;

    fn l1() -> Cache {
        Cache::new(CacheGeometry::new(32 * 1024, 8, 64), PolicyKind::Lru, 1)
    }

    fn small_pif() -> Pif {
        Pif::new(PifConfig { region_blocks: 8, history_entries: 64, lookahead: 2 })
    }

    /// Replays `blocks` through cache+PIF, returning demand misses.
    fn replay(pif: &mut Pif, l1i: &mut Cache, blocks: &[u64]) -> u64 {
        let mut misses = 0;
        let mut last = None;
        for &raw in blocks {
            let b = BlockAddr::new(raw);
            if last == Some(b) {
                continue;
            }
            last = Some(b);
            let hit = l1i.access(b, crate::AccessKind::Read).is_hit();
            if !hit {
                misses += 1;
            }
            pif.on_fetch(l1i, b, hit);
        }
        misses
    }

    #[test]
    fn second_iteration_of_a_loop_is_covered() {
        // A footprint sequence larger than the cache, repeated: the
        // second pass should be mostly prefetched. The cache must hold a
        // few regions more than the lookahead window or the prefetches
        // evict each other (8 sets x 8 ways here vs a 3-4 block/set
        // working window).
        let mut pif = small_pif();
        let mut l1i = Cache::new(CacheGeometry::new(4096, 8, 64), PolicyKind::Lru, 1); // 64 blocks
        let pattern: Vec<u64> = (0..96).chain(0..96).chain(0..96).collect();
        let misses = replay(&mut pif, &mut l1i, &pattern);
        // First pass: 96 cold misses. Later passes: the stream restarts
        // on the first miss and runs ahead; only each pass's first region
        // (the restart trigger's own) demand-misses.
        assert!(misses < 96 + 40, "PIF should cover most repeat misses, got {misses}");
        assert!(pif.prefetches() > 50);
        assert!(pif.stream_starts() >= 1);
    }

    #[test]
    fn random_stream_trains_but_does_not_cover() {
        use slicc_common::SplitMix64;
        let mut pif = small_pif();
        let mut l1i = l1();
        let mut rng = SplitMix64::new(9);
        let blocks: Vec<u64> = (0..500).map(|_| rng.next_below(1 << 20)).collect();
        let misses = replay(&mut pif, &mut l1i, &blocks);
        assert!(misses > 450, "no temporal repetition, no coverage: {misses}");
    }

    #[test]
    fn footprints_compact_spatially_adjacent_fetches() {
        let mut pif = small_pif();
        let mut l1i = l1();
        // Blocks 0..8 are one region: a walk over them plus a jump
        // produces exactly two committed footprints after the second
        // region closes.
        let pattern: Vec<u64> = (0..8).chain(100..108).chain(200..201).collect();
        replay(&mut pif, &mut l1i, &pattern);
        assert!(pif.history.len() >= 2);
        let fp = pif.history[0];
        assert_eq!(fp.trigger, 0);
        assert_eq!(fp.bits, 0xff, "all eight offsets touched");
    }

    #[test]
    fn history_is_circular_and_index_consistent() {
        let mut pif = Pif::new(PifConfig { region_blocks: 8, history_entries: 4, lookahead: 1 });
        let mut l1i = l1();
        // 10 distinct regions: history wraps.
        let pattern: Vec<u64> = (0..10).map(|r| r * 8).collect();
        replay(&mut pif, &mut l1i, &pattern);
        assert_eq!(pif.history.len(), 4);
        for (&trigger, &pos) in pif.index.iter() {
            assert_eq!(pif.history[pos].trigger, trigger, "index points at its trigger");
        }
        assert!(pif.index.len() <= 4);
    }

    #[test]
    fn storage_matches_papers_40kb_claim() {
        let pif = Pif::new(PifConfig::default());
        let kb = pif.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((38.0..46.0).contains(&kb), "default PIF storage {kb:.1} KiB should be ~40 KiB");
    }

    #[test]
    #[should_panic(expected = "region must be")]
    fn oversized_region_panics() {
        let _ = Pif::new(PifConfig { region_blocks: 33, history_entries: 8, lookahead: 1 });
    }
}
