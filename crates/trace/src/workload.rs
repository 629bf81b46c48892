//! Workload specifications and the paper's four benchmark presets.
//!
//! A [`WorkloadSpec`] describes everything needed to regenerate a
//! workload's traces deterministically: the code pool and its division
//! into shared-infrastructure and type-specific segments, the transaction
//! type mix, instruction-stream parameters, and the data-access model.
//! The [`Workload`] enum provides the four presets of Table 1 (TPC-C with
//! 1 and 10 warehouses, TPC-E, MapReduce), parameterized by a
//! [`TraceScale`] so tests can run miniature instances.

use crate::segment::{CodePool, SegmentId};
use crate::thread_gen::ThreadTrace;
use slicc_common::{SplitMix64, ThreadId, TxnTypeId};
use std::fmt;

/// First block number of the per-type hot shared data regions.
pub const HOT_REGION_FIRST_BLOCK: u64 = 0x2000_0000;
/// First block number of the private database region.
pub const DB_REGION_FIRST_BLOCK: u64 = 0x4000_0000;

/// Size/length knobs decoupling experiment scale from workload shape.
///
/// The paper simulates 1K tasks (~1.1B instructions); the default here is
/// laptop-scale. Shapes (who wins, by what factor) are preserved because
/// every structural property is expressed *relative* to the L1 size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceScale {
    /// Number of transactions (worker threads) to run.
    pub tasks: u32,
    /// Blocks per code segment. The default 288 blocks = 18 KiB: one
    /// segment fits the 32 KiB L1-I, two do not (9 ways needed per set
    /// in the 8-way baseline cache).
    pub segment_blocks: u32,
    /// Master seed for all stochastic choices.
    pub seed: u64,
}

impl slicc_common::StableHash for TraceScale {
    fn stable_hash(&self, h: &mut slicc_common::StableHasher) {
        self.tasks.stable_hash(h);
        self.segment_blocks.stable_hash(h);
        self.seed.stable_hash(h);
    }
}

impl TraceScale {
    /// The default evaluation scale (~20–30M instructions per workload).
    pub fn paper_like() -> Self {
        TraceScale { tasks: 160, segment_blocks: 288, seed: 0x51cc }
    }

    /// A reduced scale for quick experiments (~3M instructions).
    pub fn small() -> Self {
        TraceScale { tasks: 48, segment_blocks: 160, seed: 0x51cc }
    }

    /// A miniature scale for unit tests. Pair it with proportionally
    /// smaller caches: a 48-block (3 KiB) segment fits a 4 KiB L1, two
    /// do not — the same §3.1 property as the full scale.
    pub fn tiny() -> Self {
        TraceScale { tasks: 8, segment_blocks: 48, seed: 0x51cc }
    }

    /// Parses the CLI and `SUBMIT` spelling: `tiny`, `small` or `paper`.
    pub fn parse(s: &str) -> Option<TraceScale> {
        match s {
            "tiny" => Some(TraceScale::tiny()),
            "small" => Some(TraceScale::small()),
            "paper" => Some(TraceScale::paper_like()),
            _ => None,
        }
    }

    /// Returns a copy with a different task count.
    pub fn with_tasks(mut self, tasks: u32) -> Self {
        self.tasks = tasks;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TraceScale {
    fn default() -> Self {
        TraceScale::paper_like()
    }
}

/// Instruction-stream shape parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CodeParams {
    /// Instructions fetched per block visit (≤ 16 for 4-byte instructions
    /// in 64-byte blocks).
    pub instrs_per_block: u32,
    /// Sequential passes over a segment per visit (intra-segment reuse).
    pub passes_per_visit: u32,
    /// Probability a block is skipped on a pass (control-flow divergence:
    /// "similar transactions do not follow the exact same control flow
    /// path", §2.1.3).
    pub skip_prob: f64,
    /// Mean length (blocks) of sequential runs within a segment. Control
    /// flow in DB code jumps between functions constantly, so a segment
    /// is walked in a fixed, segment-specific permutation of short
    /// sequential runs - the permutation is code structure, identical for
    /// every thread. Keeps next-line prefetching honest (it only covers
    /// fall-through fetches).
    pub sequential_run_blocks: u32,
}

impl Default for CodeParams {
    fn default() -> Self {
        CodeParams {
            instrs_per_block: 12,
            passes_per_visit: 2,
            skip_prob: 0.06,
            sequential_run_blocks: 2,
        }
    }
}

/// How a thread generates its data references.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DataPattern {
    /// The OLTP mix: hot shared structures + recently-touched private
    /// blocks + fresh private blocks (compulsory misses).
    ///
    /// Stores are region-dependent: the hot shared structures (index
    /// roots, catalog) are read-mostly, while private tuples and log
    /// buffers take nearly all the stores — the region store rates are
    /// chosen so stores remain ~45% of all data accesses (§5.5).
    OltpMix {
        /// Probability of touching the type's hot shared region.
        p_hot: f64,
        /// Probability of re-touching a recent private block.
        p_recent: f64,
        /// Store probability on hot-region accesses (read-mostly).
        hot_store_frac: f64,
    },
    /// MapReduce-style streaming: each thread scans its own partition
    /// sequentially.
    Streaming,
}

/// Data-access model parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataParams {
    /// Fraction of instructions that reference data.
    pub data_ratio: f64,
    /// Fraction of data references that are stores (§5.5: 45%).
    pub store_frac: f64,
    /// Reference pattern.
    pub pattern: DataPattern,
    /// Size of the private database region in blocks.
    pub db_blocks: u64,
    /// Size of each type's hot shared region in blocks.
    pub hot_blocks: u64,
}

/// One transaction type: its mix weight and its code structure.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeSpec {
    /// Human-readable name (e.g. "NewOrder").
    pub name: String,
    /// Relative frequency in the mix.
    pub weight: f64,
    /// The type's own segments; `specific[0]` is the prologue, which is
    /// unique per type (this is what SLICC-Pp's scout hashing detects).
    pub specific: Vec<SegmentId>,
    /// Minimum loop iterations per transaction instance (jittered
    /// upward per instance).
    pub loop_iters: u32,
}

/// A complete, self-contained description of one workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Workload name (Table 1 row).
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Number of transactions to run.
    pub num_tasks: u32,
    /// All code segments.
    pub pool: CodePool,
    /// Segments shared by every transaction type (DBMS infrastructure:
    /// B-tree, lock manager, logging, buffer pool, ...).
    pub shared: Vec<SegmentId>,
    /// The transaction types.
    pub types: Vec<TypeSpec>,
    /// Instruction-stream parameters.
    pub code: CodeParams,
    /// Data-access parameters.
    pub data: DataParams,
}

impl WorkloadSpec {
    /// The RNG stream for one thread, derived from the master seed.
    pub(crate) fn thread_rng(&self, thread: ThreadId) -> SplitMix64 {
        SplitMix64::new(self.seed).split(thread.raw() as u64)
    }

    /// The transaction type executed by `thread`. Deterministic, and
    /// identical to the type [`WorkloadSpec::thread_trace`] generates.
    pub fn thread_type(&self, thread: ThreadId) -> TxnTypeId {
        self.choose_type(&mut self.thread_rng(thread))
    }

    pub(crate) fn choose_type(&self, rng: &mut SplitMix64) -> TxnTypeId {
        let weights: Vec<f64> = self.types.iter().map(|t| t.weight).collect();
        TxnTypeId::new(rng.pick_weighted(&weights) as u16)
    }

    /// Expands one transaction instance's segment visit sequence.
    ///
    /// The plan interleaves shared infrastructure with the type's own
    /// segments and revisits both across loop iterations, producing the
    /// A-B-C-A recurrence of Figure 4.
    pub(crate) fn expand_plan(&self, txn_type: TxnTypeId, rng: &mut SplitMix64) -> Vec<SegmentId> {
        let t = &self.types[txn_type.index()];
        assert!(!t.specific.is_empty(), "type {} has no segments", t.name);
        let n_spec = t.specific.len();
        // `loop_iters` is a minimum: every instance covers the type's full
        // segment set (same-type commonality ~98%, §2.1.3); the upward
        // jitter varies path length across instances.
        let jitter_span = t.loop_iters / 3 + 1;
        let iters = t.loop_iters + rng.next_below(jitter_span as u64) as u32;

        let mut plan = vec![t.specific[0]];
        for i in 0..iters as usize {
            // Each iteration walks two shared-infrastructure segments
            // (index probe, lock/log work) around the type's own logic -
            // most executed code is common across types, matching the
            // ~80% cross-thread redundancy of Chakraborty [3] / Figure 3.
            if !self.shared.is_empty() {
                plan.push(self.shared[(2 * i) % self.shared.len()]);
            }
            if n_spec > 1 {
                plan.push(t.specific[1 + (2 * i) % (n_spec - 1)]);
            } else {
                plan.push(t.specific[0]);
            }
            if !self.shared.is_empty() {
                plan.push(self.shared[(2 * i + 1) % self.shared.len()]);
            }
            if n_spec > 1 {
                plan.push(t.specific[1 + (2 * i + 1) % (n_spec - 1)]);
            }
        }
        if let Some(&commit) = self.shared.last() {
            plan.push(commit);
        }
        plan
    }

    /// The deterministic access stream of one thread.
    pub fn thread_trace(&self, thread: ThreadId) -> ThreadTrace<'_> {
        ThreadTrace::new(self, thread)
    }

    /// First block of the hot shared region of `txn_type`.
    pub fn hot_region_base(&self, txn_type: TxnTypeId) -> u64 {
        HOT_REGION_FIRST_BLOCK + txn_type.index() as u64 * self.data.hot_blocks
    }

    /// Iterates all thread ids of the workload.
    pub fn threads(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.num_tasks).map(ThreadId::new)
    }

    /// The per-type instruction footprint in bytes: its own segments plus
    /// the shared infrastructure it runs through.
    pub fn type_footprint_bytes(&self, txn_type: TxnTypeId) -> u64 {
        let t = &self.types[txn_type.index()];
        t.specific
            .iter()
            .chain(self.shared.iter())
            .map(|&s| self.pool.segment(s).size_bytes())
            .sum()
    }
}

/// The four benchmark workloads of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// TPC-C, 1 warehouse (84 MB database).
    TpcC1,
    /// TPC-C, 10 warehouses (1 GB database).
    TpcC10,
    /// TPC-E, 1000 customers (20 GB database).
    TpcE,
    /// Hadoop MapReduce over Wikipedia articles (12 GB input).
    MapReduce,
}

impl Workload {
    /// All workloads, in the paper's presentation order.
    pub const ALL: [Workload; 4] =
        [Workload::TpcC1, Workload::TpcC10, Workload::TpcE, Workload::MapReduce];

    /// Display name matching the paper's figure labels.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::TpcC1 => "TPC-C-1",
            Workload::TpcC10 => "TPC-C-10",
            Workload::TpcE => "TPC-E",
            Workload::MapReduce => "MapReduce",
        }
    }

    /// Parses the CLI and `SUBMIT` spelling: `tpcc1`, `tpcc10`, `tpce` or
    /// `mapreduce`.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "tpcc1" => Some(Workload::TpcC1),
            "tpcc10" => Some(Workload::TpcC10),
            "tpce" => Some(Workload::TpcE),
            "mapreduce" => Some(Workload::MapReduce),
            _ => None,
        }
    }

    /// Builds the workload's specification at the given scale.
    pub fn spec(self, scale: TraceScale) -> WorkloadSpec {
        match self {
            Workload::TpcC1 => tpcc_spec(scale, false),
            Workload::TpcC10 => tpcc_spec(scale, true),
            Workload::TpcE => tpce_spec(scale),
            Workload::MapReduce => mapreduce_spec(scale),
        }
    }
}

impl slicc_common::StableHash for Workload {
    fn stable_hash(&self, h: &mut slicc_common::StableHasher) {
        // Explicit ordinals so run-cache keys survive declaration reorder.
        let ordinal: u64 = match self {
            Workload::TpcC1 => 0,
            Workload::TpcC10 => 1,
            Workload::TpcE => 2,
            Workload::MapReduce => 3,
        };
        ordinal.stable_hash(h);
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Probability of a dead gap after each live code block: binaries
/// interleave hot code with cold paths, so sequential prefetch of "the
/// next block" often fetches dead code (keeps the §5.6 next-line
/// baseline honest).
const CODE_GAP_PROB: f64 = 0.45;

/// Shared-infrastructure segments for TPC-C (B-tree ops, lock manager,
/// logging, buffer pool, catalog, transaction management, ...).
const TPCC_SHARED_SEGMENTS: usize = 12;
/// Shared-infrastructure segments exercised by TPC-E's leaner paths.
const TPCE_SHARED_SEGMENTS: usize = 6;

fn build_types(
    pool: &mut CodePool,
    segment_blocks: u32,
    defs: &[(&str, f64, usize, u32)],
) -> Vec<TypeSpec> {
    defs.iter()
        .map(|&(name, weight, n_spec, loop_iters)| TypeSpec {
            name: name.to_owned(),
            weight,
            specific: (0..n_spec).map(|_| pool.add_segment(segment_blocks)).collect(),
            loop_iters,
        })
        .collect()
}

fn tpcc_spec(scale: TraceScale, ten_warehouses: bool) -> WorkloadSpec {
    let mut pool = CodePool::with_gap_prob(CODE_GAP_PROB);
    let shared: Vec<SegmentId> =
        (0..TPCC_SHARED_SEGMENTS).map(|_| pool.add_segment(scale.segment_blocks)).collect();
    // The canonical TPC-C mix. Most of a transaction's code is the shared
    // DBMS infrastructure (B-tree, locking, logging, buffer pool), so the
    // per-type specific code is small; total footprints of 13-16 L1-sized
    // segments match §5.4 ("TPC-C's transactions are spread across up to
    // 14 cores").
    let types = build_types(
        &mut pool,
        scale.segment_blocks,
        &[
            ("NewOrder", 0.45, 5, 7),
            ("Payment", 0.43, 4, 6),
            ("OrderStatus", 0.04, 2, 6),
            ("Delivery", 0.04, 6, 7),
            ("StockLevel", 0.04, 3, 6),
        ],
    );
    let (db_blocks, p_hot, p_recent) = if ten_warehouses {
        // 1 GB database: larger private region, less locality and sharing
        // (§5.5: "There is less locality and sharing in the larger data
        // set of TPC-C-10").
        (16_000_000, 0.18, 0.77)
    } else {
        // 84 MB database.
        (1_300_000, 0.30, 0.66)
    };
    WorkloadSpec {
        name: if ten_warehouses { "TPC-C-10" } else { "TPC-C-1" }.to_owned(),
        seed: scale.seed,
        num_tasks: scale.tasks,
        pool,
        shared,
        types,
        code: CodeParams::default(),
        data: DataParams {
            data_ratio: 0.34,
            store_frac: 0.45,
            pattern: DataPattern::OltpMix { p_hot, p_recent, hot_store_frac: 0.003 },
            db_blocks,
            hot_blocks: (scale.segment_blocks as u64 / 3).max(8),
        },
    }
}

fn tpce_spec(scale: TraceScale) -> WorkloadSpec {
    let mut pool = CodePool::with_gap_prob(CODE_GAP_PROB);
    let shared: Vec<SegmentId> =
        (0..TPCE_SHARED_SEGMENTS).map(|_| pool.add_segment(scale.segment_blocks)).collect();
    // The TPC-E mix (weights in percent, normalized by pick_weighted).
    // Footprints of 8-9 segments match §5.4 ("SLICC spreads the
    // transactions of TPC-E across 8-10 cores"); rare types (MarketFeed
    // 1%, TradeUpdate 2%) supply the ~3% stray threads the paper reports.
    let types = build_types(
        &mut pool,
        scale.segment_blocks,
        &[
            ("BrokerVolume", 4.9, 3, 4),
            ("CustomerPosition", 13.0, 2, 4),
            ("MarketFeed", 1.0, 2, 4),
            ("MarketWatch", 18.0, 3, 4),
            ("SecurityDetail", 14.0, 2, 4),
            ("TradeLookup", 8.0, 3, 5),
            ("TradeOrder", 10.1, 3, 5),
            ("TradeResult", 10.0, 3, 5),
            ("TradeStatus", 19.0, 1, 4),
            ("TradeUpdate", 2.0, 2, 5),
        ],
    );
    WorkloadSpec {
        name: "TPC-E".to_owned(),
        seed: scale.seed,
        num_tasks: scale.tasks,
        pool,
        shared,
        types,
        code: CodeParams::default(),
        data: DataParams {
            data_ratio: 0.34,
            store_frac: 0.45,
            pattern: DataPattern::OltpMix { p_hot: 0.30, p_recent: 0.66, hot_store_frac: 0.003 },
            // 20 GB database.
            db_blocks: 320_000_000,
            hot_blocks: (scale.segment_blocks as u64 / 3).max(8),
        },
    }
}

fn mapreduce_spec(scale: TraceScale) -> WorkloadSpec {
    let mut pool = CodePool::with_gap_prob(CODE_GAP_PROB / 2.0);
    // One map/reduce kernel whose whole footprint fits a single L1-I
    // (§2.1: "MapReduce is a cloud workload featuring a relatively
    // smaller instruction footprint").
    let kernel = pool.add_segment(scale.segment_blocks);
    let types = vec![TypeSpec {
        name: "MapTask".to_owned(),
        weight: 1.0,
        specific: vec![kernel],
        loop_iters: 18,
    }];
    WorkloadSpec {
        name: "MapReduce".to_owned(),
        seed: scale.seed,
        num_tasks: scale.tasks,
        pool,
        shared: Vec::new(),
        types,
        code: CodeParams {
            instrs_per_block: 12,
            passes_per_visit: 2,
            skip_prob: 0.02,
            sequential_run_blocks: 4,
        },
        data: DataParams {
            data_ratio: 0.30,
            store_frac: 0.10,
            pattern: DataPattern::Streaming,
            // 12 GB input, partitioned across tasks.
            db_blocks: 200_000_000,
            hot_blocks: 32,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_build() {
        for w in Workload::ALL {
            let spec = w.spec(TraceScale::tiny());
            assert_eq!(spec.name, w.name());
            assert!(!spec.types.is_empty());
            assert!(spec.num_tasks > 0);
        }
    }

    #[test]
    fn thread_type_is_deterministic_and_matches_mix() {
        let spec = Workload::TpcC1.spec(TraceScale::paper_like().with_tasks(2000));
        let mut counts = vec![0u32; spec.types.len()];
        for t in spec.threads() {
            let ty = spec.thread_type(t);
            assert_eq!(ty, spec.thread_type(t));
            counts[ty.index()] += 1;
        }
        // NewOrder (45%) and Payment (43%) dominate.
        let total: u32 = counts.iter().sum();
        assert_eq!(total, 2000);
        assert!(counts[0] > 700, "NewOrder count {counts:?}");
        assert!(counts[1] > 700, "Payment count {counts:?}");
        assert!(counts[2] < 200 && counts[3] < 200 && counts[4] < 200, "{counts:?}");
    }

    #[test]
    fn tpcc_segments_fit_l1_but_two_do_not() {
        let spec = Workload::TpcC1.spec(TraceScale::paper_like());
        for (_, seg) in spec.pool.iter() {
            assert!(seg.size_bytes() <= 32 * 1024, "one segment must fit the 32 KiB L1-I");
            assert!(2 * seg.size_bytes() > 32 * 1024, "two segments must not fit together");
        }
    }

    #[test]
    fn type_footprints_exceed_l1_for_oltp() {
        let spec = Workload::TpcC1.spec(TraceScale::paper_like());
        for (i, t) in spec.types.iter().enumerate() {
            let fp = spec.type_footprint_bytes(TxnTypeId::new(i as u16));
            assert!(fp > 3 * 32 * 1024, "{} footprint {} too small", t.name, fp);
            assert!(fp <= 16 * 32 * 1024, "{} footprint {} exceeds 16-core aggregate", t.name, fp);
        }
    }

    #[test]
    fn mapreduce_footprint_fits_one_l1() {
        let spec = Workload::MapReduce.spec(TraceScale::paper_like());
        let fp = spec.type_footprint_bytes(TxnTypeId::new(0));
        assert!(fp <= 32 * 1024, "MapReduce footprint {fp} must fit one L1-I");
    }

    #[test]
    fn plans_revisit_segments() {
        let spec = Workload::TpcC1.spec(TraceScale::paper_like());
        let mut rng = SplitMix64::new(1);
        let plan = spec.expand_plan(TxnTypeId::new(0), &mut rng);
        assert!(plan.len() > 5);
        // The A-B-C-A property: some segment appears at least twice.
        let mut sorted = plan.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.len() < plan.len(), "plan {plan:?} has no recurrence");
        // The plan starts with the type's unique prologue.
        assert_eq!(plan[0], spec.types[0].specific[0]);
    }

    #[test]
    fn prologues_are_unique_per_type() {
        let spec = Workload::TpcE.spec(TraceScale::paper_like());
        let mut prologues: Vec<_> = spec.types.iter().map(|t| t.specific[0]).collect();
        prologues.sort_unstable();
        prologues.dedup();
        assert_eq!(prologues.len(), spec.types.len());
    }

    #[test]
    fn tpcc10_has_bigger_database_and_less_locality() {
        let c1 = Workload::TpcC1.spec(TraceScale::paper_like());
        let c10 = Workload::TpcC10.spec(TraceScale::paper_like());
        assert!(c10.data.db_blocks > 10 * c1.data.db_blocks / 2);
        match (c1.data.pattern, c10.data.pattern) {
            (DataPattern::OltpMix { p_hot: h1, .. }, DataPattern::OltpMix { p_hot: h10, .. }) => {
                assert!(h10 < h1);
            }
            _ => panic!("TPC-C uses the OLTP data mix"),
        }
    }

    #[test]
    fn hot_regions_are_disjoint_per_type() {
        let spec = Workload::TpcC1.spec(TraceScale::paper_like());
        let bases: Vec<_> =
            (0..spec.types.len()).map(|i| spec.hot_region_base(TxnTypeId::new(i as u16))).collect();
        for w in bases.windows(2) {
            assert!(w[1] - w[0] >= spec.data.hot_blocks);
        }
    }

    #[test]
    fn scale_helpers() {
        let s = TraceScale::paper_like().with_tasks(7).with_seed(99);
        assert_eq!(s.tasks, 7);
        assert_eq!(s.seed, 99);
        assert_eq!(TraceScale::default(), TraceScale::paper_like());
        assert_eq!(format!("{}", Workload::TpcE), "TPC-E");
    }
}
