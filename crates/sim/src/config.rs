//! Simulator configuration: the Table-2 machine and the execution modes.

use slicc_cache::{PifConfig, PolicyKind};
use slicc_common::{CacheGeometry, Cycle, LatencyTable, StableHash, StableHasher};
use slicc_core::SliccParams;
use slicc_cpu::{MigrationModel, TimingConfig};
use slicc_mem::DramConfig;
use std::fmt;

/// Which scheduling/migration algorithm runs the thread pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerMode {
    /// Conventional OS scheduling: up to N concurrent threads, one per
    /// core, no migration (§5.1's baseline).
    Baseline,
    /// Transaction-type-oblivious SLICC (§4.1).
    Slicc,
    /// SLICC-SW: the software layer annotates each thread with its
    /// transaction type (§4.3.1).
    SliccSw,
    /// SLICC-Pp: a scout core detects types by hashing each thread's
    /// first instructions (§4.3.1); one core is dedicated to scouting.
    SliccPp,
    /// STEPS-style software time-multiplexing (the §6 comparison):
    /// same-type threads share ONE core and context-switch at the
    /// boundaries SLICC would have migrated at, so instruction chunks are
    /// reused in the time domain instead of the space domain.
    Steps,
}

impl SchedulerMode {
    /// All modes in Figure 10/11 presentation order.
    pub const ALL: [SchedulerMode; 4] = [
        SchedulerMode::Baseline,
        SchedulerMode::Slicc,
        SchedulerMode::SliccPp,
        SchedulerMode::SliccSw,
    ];

    /// The paper's modes plus this workspace's STEPS re-creation.
    pub const WITH_STEPS: [SchedulerMode; 5] = [
        SchedulerMode::Baseline,
        SchedulerMode::Slicc,
        SchedulerMode::SliccPp,
        SchedulerMode::SliccSw,
        SchedulerMode::Steps,
    ];

    /// Display label matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            SchedulerMode::Baseline => "Base",
            SchedulerMode::Slicc => "SLICC",
            SchedulerMode::SliccSw => "SLICC-SW",
            SchedulerMode::SliccPp => "SLICC-Pp",
            SchedulerMode::Steps => "STEPS",
        }
    }

    /// Parses the CLI and `SUBMIT` spelling: `base`, `slicc`, `slicc-sw`,
    /// `slicc-pp` or `steps`.
    pub fn parse(s: &str) -> Option<SchedulerMode> {
        match s {
            "base" => Some(SchedulerMode::Baseline),
            "slicc" => Some(SchedulerMode::Slicc),
            "slicc-sw" => Some(SchedulerMode::SliccSw),
            "slicc-pp" => Some(SchedulerMode::SliccPp),
            "steps" => Some(SchedulerMode::Steps),
            _ => None,
        }
    }

    /// Whether this mode migrates threads between cores.
    pub const fn is_slicc(self) -> bool {
        matches!(self, SchedulerMode::Slicc | SchedulerMode::SliccSw | SchedulerMode::SliccPp)
    }

    /// Whether this mode runs the per-core SLICC agents (migration modes
    /// and STEPS, which reuses the agent's chunk-boundary signal).
    pub const fn uses_agents(self) -> bool {
        !matches!(self, SchedulerMode::Baseline)
    }

    /// Whether this mode groups threads into type teams.
    pub const fn is_type_aware(self) -> bool {
        matches!(self, SchedulerMode::SliccSw | SchedulerMode::SliccPp | SchedulerMode::Steps)
    }
}

impl fmt::Display for SchedulerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl StableHash for SchedulerMode {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Explicit ordinals so run-cache keys survive declaration reorder.
        let ordinal: u64 = match self {
            SchedulerMode::Baseline => 0,
            SchedulerMode::Slicc => 1,
            SchedulerMode::SliccSw => 2,
            SchedulerMode::SliccPp => 3,
            SchedulerMode::Steps => 4,
        };
        ordinal.stable_hash(h);
    }
}

/// Forward-progress watchdog for the engine's event loop.
///
/// A fuel budget: the run is aborted with
/// [`crate::SimError::Livelock`] (plus a diagnostic
/// [`crate::LivelockSnapshot`]) once it exceeds either bound. `None`
/// disables the corresponding bound; the default disables both, so
/// published figures never change under the watchdog. A budget of zero is
/// legal and trips on the first event-loop step — tests use this to
/// exercise the abort path deterministically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Abort once any core's local clock passes this cycle count.
    pub max_cycles: Option<Cycle>,
    /// Abort once the event loop has taken this many heap steps (each
    /// step executes up to one batch of trace records on one core).
    pub max_heap_steps: Option<u64>,
}

impl WatchdogConfig {
    /// Both bounds disabled (the default).
    pub const fn disabled() -> Self {
        WatchdogConfig { max_cycles: None, max_heap_steps: None }
    }

    /// Whether any bound is armed.
    pub const fn is_enabled(&self) -> bool {
        self.max_cycles.is_some() || self.max_heap_steps.is_some()
    }
}

impl StableHash for WatchdogConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.max_cycles.stable_hash(h);
        self.max_heap_steps.stable_hash(h);
    }
}

/// Deterministic fault injection, for exercising the runner's fault
/// isolation (tests, CI drills). The preset workloads cannot legitimately
/// fail, so the only way to demonstrate panic containment end-to-end is
/// to ask for a failure explicitly. Injected faults participate in the
/// run-cache key: a faulty point and its healthy twin never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic at the start of execution (models a simulator bug).
    Panic,
    /// Stop making forward progress once the event loop reaches heap step
    /// `step`: cores keep getting re-queued without executing, burning
    /// heap steps until the watchdog (or a deadline) trips. Models a
    /// wedged simulation; requires a fuel budget or deadline to
    /// terminate, exactly like the real failure it imitates.
    StallAt {
        /// First heap step at which progress stops (0 stalls immediately).
        step: u64,
    },
    /// Hold the completed result for `delay_ms` wall-clock milliseconds
    /// before releasing it, modelling a client that drains results slowly
    /// (a stalled socket, a saturated downstream). Runner-layer-only: the
    /// engine ignores it, the simulation completes normally, and the
    /// metrics are byte-identical to the unfaulted twin's — what the
    /// fault holds open is the service's in-flight slot, so coalesced
    /// waiters and admission control feel the backpressure.
    SlowConsumer {
        /// How long the result is held after completion, in milliseconds.
        delay_ms: u64,
    },
}

impl InjectedFault {
    /// Every variant, for exhaustive chaos matrices.
    pub const ALL: [InjectedFault; 3] = [
        InjectedFault::Panic,
        InjectedFault::StallAt { step: 0 },
        InjectedFault::SlowConsumer { delay_ms: 10 },
    ];

    /// Parses the CLI spelling: `panic`, `stall:STEP`, `slow-consumer:MS`.
    pub fn parse(s: &str) -> Option<InjectedFault> {
        if s == "panic" {
            return Some(InjectedFault::Panic);
        }
        if let Some(step) = s.strip_prefix("stall:") {
            return step.parse().ok().map(|step| InjectedFault::StallAt { step });
        }
        if let Some(ms) = s.strip_prefix("slow-consumer:") {
            return ms.parse().ok().map(|delay_ms| InjectedFault::SlowConsumer { delay_ms });
        }
        None
    }
}

impl StableHash for InjectedFault {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Explicit ordinals so run-cache keys survive declaration reorder
        // and deletion: 2, 3 and 5 belonged to retired variants and stay
        // unused, so no surviving key moves.
        let ordinal: u64 = match self {
            InjectedFault::Panic => 0,
            InjectedFault::StallAt { .. } => 1,
            InjectedFault::SlowConsumer { .. } => 4,
        };
        ordinal.stable_hash(h);
        match self {
            InjectedFault::Panic => {}
            InjectedFault::StallAt { step } => step.stable_hash(h),
            InjectedFault::SlowConsumer { delay_ms } => delay_ms.stable_hash(h),
        }
    }
}

/// A per-point wall-clock budget.
///
/// Carried on [`crate::RunRequest`] (and settable runner-wide as a
/// default): when armed, the engine checks real elapsed time on the
/// watchdog cadence and aborts with [`crate::SimError::DeadlineExceeded`]
/// plus a diagnostic snapshot once the budget is spent. Deliberately
/// **excluded** from the run-cache key, like observation config: a
/// deadline never alters the metrics of a run it does not abort, and
/// aborted runs are errors, which are never cached — so a later batch
/// may tighten or relax its deadline and still reuse every completed
/// point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadlineConfig {
    /// Wall-clock budget in milliseconds; `None` disables the deadline.
    /// Zero is legal and trips on the first deadline check — tests use it
    /// to exercise the abort path deterministically.
    pub wall_ms: Option<u64>,
}

impl DeadlineConfig {
    /// No deadline (the default).
    pub const fn disabled() -> Self {
        DeadlineConfig { wall_ms: None }
    }

    /// A budget of `ms` milliseconds of wall-clock time.
    pub const fn from_ms(ms: u64) -> Self {
        DeadlineConfig { wall_ms: Some(ms) }
    }

    /// Whether a budget is armed.
    pub const fn is_enabled(&self) -> bool {
        self.wall_ms.is_some()
    }

    /// The budget as a [`std::time::Duration`], if armed.
    pub fn budget(&self) -> Option<std::time::Duration> {
        self.wall_ms.map(std::time::Duration::from_millis)
    }
}

/// Full machine + algorithm configuration.
///
/// [`SimConfig::paper_baseline`] reproduces Table 2 and
/// [`SimConfig::tiny_test`] its miniature; the `with_*` methods derive the
/// variants used across the evaluation, and any other knob is a public
/// field (`SimConfig { exact_search: true, ..SimConfig::paper_baseline() }`).
/// [`SimConfig::try_validate`] checks the result; every run also checks it
/// before it simulates.
///
/// # Example
///
/// ```
/// use slicc_sim::{SchedulerMode, SimConfig};
///
/// let cfg = SimConfig { seed: 7, ..SimConfig::tiny_test() }.with_mode(SchedulerMode::Slicc);
/// assert!(cfg.try_validate().is_ok());
///
/// // Invalid shapes are rejected with an error naming the field:
/// let err = SimConfig { l1i_assoc: 0, ..SimConfig::tiny_test() }.try_validate().unwrap_err();
/// assert!(err.to_string().contains("l1i_assoc"));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Number of cores (Table 2: 16, on a 4×4 torus).
    pub cores: usize,
    /// Torus columns (`cores` must equal `noc_cols * noc_rows`).
    pub noc_cols: u32,
    /// Torus rows.
    pub noc_rows: u32,
    /// L1 instruction cache capacity in bytes.
    pub l1i_size: u64,
    /// L1-I associativity.
    pub l1i_assoc: u32,
    /// L1 data cache capacity in bytes.
    pub l1d_size: u64,
    /// L1-D associativity.
    pub l1d_assoc: u32,
    /// L1 replacement policy (both caches; Figure 2 sweeps this).
    pub l1_policy: PolicyKind,
    /// Capacity→latency model for the L1-I (the CACTI substitute).
    pub latency_table: LatencyTable,
    /// Fixed L1-I latency override (the PIF model: big cache, small-cache
    /// latency).
    pub l1i_latency_override: Option<Cycle>,
    /// L2 capacity in bytes (Table 2: 1 MiB per core).
    pub l2_size: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// L2 banks.
    pub l2_banks: usize,
    /// L2 bank hit latency.
    pub l2_hit_latency: Cycle,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Core timing model.
    pub timing: TimingConfig,
    /// Thread-migration cost model.
    pub migration: MigrationModel,
    /// SLICC thresholds.
    pub slicc: SliccParams,
    /// Bloom-filter signature size in bits (§5.3: 2K).
    pub bloom_bits: u64,
    /// Execution mode.
    pub mode: SchedulerMode,
    /// Next-line prefetch degree on the L1-I, if enabled.
    pub next_line_prefetch: Option<u64>,
    /// Enable the 3C miss classifiers (Figure 1; costs memory/time).
    pub classify_3c: bool,
    /// SLICC's in-flight thread pool, as a multiple of N (§5.1: 2N).
    pub pool_multiplier: u32,
    /// Per-core thread queue capacity (Table 3: 30).
    pub thread_queue_capacity: usize,
    /// Maximum waiting threads at a migration target: a candidate with a
    /// longer queue is rejected and the thread falls back to an idle core
    /// or stays (loading the segment locally, which replicates hot
    /// segments and spreads load). The paper leaves target congestion
    /// unspecified; without this bound every thread converges on the
    /// single holder of each segment and the collective serializes.
    pub migration_queue_limit: usize,
    /// Scout-core preprocessing length for SLICC-Pp.
    pub scout_instructions: u32,
    /// Instruction TLB entries per core.
    pub itlb_entries: usize,
    /// Instruction page size: DBMS binaries are mapped with huge pages
    /// (the sparse code layout would otherwise thrash a 4 KiB iTLB).
    pub itlb_page_bytes: u64,
    /// Data TLB entries per core.
    pub dtlb_entries: usize,
    /// Page-walk latency in cycles.
    pub tlb_walk_cycles: u64,
    /// Run the real PIF prefetcher (Ferdman et al.) on each L1-I; only
    /// meaningful under baseline scheduling.
    pub pif_prefetch: Option<PifConfig>,
    /// STEPS context-switch cost in cycles (fast same-core switch).
    pub steps_switch_cycles: u64,
    /// STEPS thread-group size (the paper's STEPS forms groups of ~10).
    pub steps_team_size: usize,
    /// Cycles between successive transaction arrivals. Zero starts every
    /// thread at cycle 0, which lock-steps identical transactions into
    /// synchronized DRAM-bank convoys no real system exhibits.
    pub arrival_stagger_cycles: u64,
    /// Measure bloom-signature accuracy against ground truth on every
    /// L1-I access (Figure 9; adds overhead).
    pub measure_bloom_accuracy: bool,
    /// Ablation: answer remote segment searches from exact cache
    /// contents instead of the bloom signatures (an idealized,
    /// bandwidth-free search).
    pub exact_search: bool,
    /// Ablation: allow idle cores to steal surplus queued threads (the
    /// centralized-queue reading of §5.7). Disabling shows the
    /// utilization cost of strictly local queues.
    pub work_stealing: bool,
    /// Seed for the stochastic cache policies.
    pub seed: u64,
    /// Forward-progress fuel budget (disabled by default).
    pub watchdog: WatchdogConfig,
    /// Deterministic fault injection (none by default).
    pub fault_injection: Option<InjectedFault>,
}

impl SimConfig {
    /// The Table-2 baseline machine.
    pub fn paper_baseline() -> Self {
        SimConfig {
            cores: 16,
            noc_cols: 4,
            noc_rows: 4,
            l1i_size: 32 * 1024,
            l1i_assoc: 8,
            l1d_size: 32 * 1024,
            l1d_assoc: 8,
            l1_policy: PolicyKind::Lru,
            latency_table: LatencyTable::cacti_like(),
            l1i_latency_override: None,
            l2_size: 16 * 1024 * 1024,
            l2_assoc: 16,
            l2_banks: 16,
            l2_hit_latency: 16,
            dram: DramConfig::paper_ddr3_1600(),
            timing: TimingConfig::paper_like(),
            migration: MigrationModel::paper_like(),
            slicc: SliccParams::calibrated(),
            bloom_bits: 2048,
            mode: SchedulerMode::Baseline,
            next_line_prefetch: None,
            classify_3c: false,
            // The paper manages 2N threads; our queue-bounded migration
            // needs a deeper pool to keep all cores fed (see DESIGN.md).
            pool_multiplier: 4,
            thread_queue_capacity: 30,
            migration_queue_limit: 4,
            scout_instructions: 48,
            itlb_entries: 128,
            itlb_page_bytes: 2 * 1024 * 1024,
            dtlb_entries: 64,
            tlb_walk_cycles: 30,
            pif_prefetch: None,
            steps_switch_cycles: 20,
            steps_team_size: 10,
            arrival_stagger_cycles: 97,
            measure_bloom_accuracy: false,
            exact_search: false,
            work_stealing: true,
            seed: 0x5eed,
            watchdog: WatchdogConfig::disabled(),
            fault_injection: None,
        }
    }

    /// A miniature machine matched to [`slicc_trace::TraceScale::tiny`]:
    /// 4 KiB L1s so 48-block segments keep the §3.1 fits/doesn't-fit
    /// property, with thresholds scaled accordingly.
    pub fn tiny_test() -> Self {
        let mut c = SimConfig::paper_baseline();
        c.l1i_size = 4 * 1024;
        c.l1i_assoc = 8;
        c.l1d_size = 4 * 1024;
        c.l1d_assoc = 8;
        // 4 KiB / 64 B = 64 blocks; fill up at 1/4 of them, as in the
        // calibrated full-size configuration.
        c.slicc = c.slicc.with_fill_up(16).with_dilution(3);
        c.bloom_bits = 256;
        c.l2_size = 2 * 1024 * 1024;
        c.latency_table = LatencyTable::constant(3);
        c
    }

    /// Returns a copy running under `mode`.
    pub fn with_mode(mut self, mode: SchedulerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns a copy with a next-line prefetcher of `degree`.
    pub fn with_next_line(mut self, degree: u64) -> Self {
        self.next_line_prefetch = Some(degree);
        self
    }

    /// Returns a copy running the *real* PIF prefetcher (history buffer +
    /// stream read-out) under baseline scheduling, as opposed to the
    /// paper's upper-bound model ([`SimConfig::with_pif_model`]).
    pub fn with_real_pif(mut self) -> Self {
        self.pif_prefetch = Some(PifConfig::default());
        self.mode = SchedulerMode::Baseline;
        self
    }

    /// Returns a copy modelling PIF as the paper does (§5.6): a 512 KiB
    /// L1-I with the 32 KiB cache's 3-cycle latency, baseline scheduling.
    pub fn with_pif_model(mut self) -> Self {
        self.l1i_size = 512 * 1024;
        self.l1i_latency_override = Some(3);
        self.mode = SchedulerMode::Baseline;
        self
    }

    /// Returns a copy with a different L1-I capacity (Figure 1 sweeps).
    pub fn with_l1i_size(mut self, bytes: u64) -> Self {
        self.l1i_size = bytes;
        self
    }

    /// Returns a copy with a different L1-D capacity (Figure 1 sweeps).
    pub fn with_l1d_size(mut self, bytes: u64) -> Self {
        self.l1d_size = bytes;
        self
    }

    /// Returns a copy with a different replacement policy (Figure 2).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.l1_policy = policy;
        self
    }

    /// Returns a copy with different SLICC thresholds (Figures 7/8).
    pub fn with_slicc_params(mut self, params: SliccParams) -> Self {
        self.slicc = params;
        self
    }

    /// Returns a copy with 3C classification enabled (Figure 1).
    pub fn with_classification(mut self) -> Self {
        self.classify_3c = true;
        self
    }

    /// The effective L1-I hit latency (override or table lookup).
    pub fn l1i_latency(&self) -> Cycle {
        self.l1i_latency_override.unwrap_or_else(|| self.latency_table.l1_latency(self.l1i_size))
    }

    /// The L1-I geometry.
    pub fn l1i_geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.l1i_size, self.l1i_assoc, 64)
    }

    /// The L1-D geometry.
    pub fn l1d_geometry(&self) -> CacheGeometry {
        CacheGeometry::new(self.l1d_size, self.l1d_assoc, 64)
    }

    /// Validates cross-field invariants, returning the first violation;
    /// see [`ConfigError`] for the individual invariants.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.cores < 1 {
            return Err(ConfigError::NoCores);
        }
        if self.cores as u32 != self.noc_cols * self.noc_rows {
            return Err(ConfigError::TorusMismatch {
                cores: self.cores,
                cols: self.noc_cols,
                rows: self.noc_rows,
            });
        }
        if self.pool_multiplier < 1 {
            return Err(ConfigError::ZeroPoolMultiplier);
        }
        if self.mode == SchedulerMode::SliccPp && self.cores < 2 {
            return Err(ConfigError::ScoutNeedsTwoCores);
        }
        if self.thread_queue_capacity < 1 {
            return Err(ConfigError::ZeroThreadQueue);
        }
        if self.l2_banks < 1 {
            return Err(ConfigError::ZeroL2Banks);
        }
        if self.bloom_bits < 1 {
            return Err(ConfigError::ZeroBloomBits);
        }
        check_cache_shape("l1i", self.l1i_size, self.l1i_assoc)?;
        check_cache_shape("l1d", self.l1d_size, self.l1d_assoc)?;
        check_cache_shape("l2", self.l2_size, self.l2_assoc)?;
        if self.mode.uses_agents() {
            let blocks = self.l1i_size / slicc_common::BLOCK_SIZE;
            if u64::from(self.slicc.fill_up_t) > blocks {
                return Err(ConfigError::FillUpExceedsBlocks {
                    fill_up_t: self.slicc.fill_up_t,
                    blocks,
                });
            }
        }
        Ok(())
    }
}

/// Checks the invariants `CacheGeometry::new` would otherwise enforce by
/// panicking, so misconfigurations surface as typed errors.
fn check_cache_shape(cache: &'static str, size: u64, assoc: u32) -> Result<(), ConfigError> {
    if assoc == 0 {
        return Err(ConfigError::ZeroWayCache { cache });
    }
    if size == 0 {
        return Err(ConfigError::ZeroSizeCache { cache });
    }
    let way_bytes = u64::from(assoc) * slicc_common::BLOCK_SIZE;
    if !size.is_multiple_of(way_bytes) {
        return Err(ConfigError::UnalignedCache { cache, size, assoc });
    }
    let sets = size / way_bytes;
    if !sets.is_power_of_two() {
        return Err(ConfigError::NonPowerOfTwoSets { cache, sets });
    }
    Ok(())
}

/// A violated [`SimConfig`] invariant; each variant names the offending
/// field(s) and carries the rejected values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `cores` is zero.
    NoCores,
    /// `noc_cols * noc_rows` does not equal `cores`.
    TorusMismatch {
        /// The configured core count.
        cores: usize,
        /// Torus columns.
        cols: u32,
        /// Torus rows.
        rows: u32,
    },
    /// `pool_multiplier` is zero (SLICC needs an in-flight pool).
    ZeroPoolMultiplier,
    /// SLICC-Pp needs a scout core in addition to at least one worker.
    ScoutNeedsTwoCores,
    /// `thread_queue_capacity` is zero: no core could accept any thread.
    ZeroThreadQueue,
    /// `l2_banks` is zero.
    ZeroL2Banks,
    /// `bloom_bits` is zero: remote searches would have no signature.
    ZeroBloomBits,
    /// A cache is configured with zero ways.
    ZeroWayCache {
        /// Which cache field group (`l1i`, `l1d`, or `l2`).
        cache: &'static str,
    },
    /// A cache is configured with zero capacity.
    ZeroSizeCache {
        /// Which cache field group.
        cache: &'static str,
    },
    /// Capacity is not a multiple of `associativity * 64 B`.
    UnalignedCache {
        /// Which cache field group.
        cache: &'static str,
        /// The rejected capacity in bytes.
        size: u64,
        /// The configured associativity.
        assoc: u32,
    },
    /// The derived set count is not a power of two (caches index with bit
    /// fields).
    NonPowerOfTwoSets {
        /// Which cache field group.
        cache: &'static str,
        /// The rejected set count.
        sets: u64,
    },
    /// `slicc.fill_up_t` exceeds the L1-I's block count, so the fill-up
    /// detector could never fire.
    FillUpExceedsBlocks {
        /// The configured threshold.
        fill_up_t: u32,
        /// Blocks in the configured L1-I.
        blocks: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCores => write!(f, "cores: need at least one core"),
            ConfigError::TorusMismatch { cores, cols, rows } => {
                write!(f, "noc_cols/noc_rows: torus {cols}x{rows} must cover {cores} cores")
            }
            ConfigError::ZeroPoolMultiplier => {
                write!(f, "pool_multiplier: pool multiplier must be at least 1")
            }
            ConfigError::ScoutNeedsTwoCores => {
                write!(f, "cores: SLICC-Pp dedicates one core to scouting")
            }
            ConfigError::ZeroThreadQueue => {
                write!(
                    f,
                    "thread_queue_capacity: per-core queues need capacity for at least one thread"
                )
            }
            ConfigError::ZeroL2Banks => write!(f, "l2_banks: need at least one L2 bank"),
            ConfigError::ZeroBloomBits => {
                write!(f, "bloom_bits: bloom signatures need at least one bit")
            }
            ConfigError::ZeroWayCache { cache } => {
                write!(f, "{cache}_assoc: zero-way caches cannot hold blocks")
            }
            ConfigError::ZeroSizeCache { cache } => {
                write!(f, "{cache}_size: cache capacity must be non-zero")
            }
            ConfigError::UnalignedCache { cache, size, assoc } => {
                write!(
                    f,
                    "{cache}_size: capacity {size} B is not a multiple of associativity {assoc} x 64 B blocks"
                )
            }
            ConfigError::NonPowerOfTwoSets { cache, sets } => {
                write!(
                    f,
                    "{cache}_size/{cache}_assoc: derived set count {sets} is not a power of two"
                )
            }
            ConfigError::FillUpExceedsBlocks { fill_up_t, blocks } => {
                write!(
                    f,
                    "slicc.fill_up_t: threshold {fill_up_t} exceeds the L1-I's {blocks} blocks"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::paper_baseline()
    }
}

impl StableHash for SimConfig {
    fn stable_hash(&self, h: &mut StableHasher) {
        // Every field, in declaration order: two configs that could ever
        // produce different metrics must produce different run-cache keys.
        self.cores.stable_hash(h);
        self.noc_cols.stable_hash(h);
        self.noc_rows.stable_hash(h);
        self.l1i_size.stable_hash(h);
        self.l1i_assoc.stable_hash(h);
        self.l1d_size.stable_hash(h);
        self.l1d_assoc.stable_hash(h);
        self.l1_policy.stable_hash(h);
        self.latency_table.stable_hash(h);
        self.l1i_latency_override.stable_hash(h);
        self.l2_size.stable_hash(h);
        self.l2_assoc.stable_hash(h);
        self.l2_banks.stable_hash(h);
        self.l2_hit_latency.stable_hash(h);
        self.dram.stable_hash(h);
        self.timing.stable_hash(h);
        self.migration.stable_hash(h);
        self.slicc.stable_hash(h);
        self.bloom_bits.stable_hash(h);
        self.mode.stable_hash(h);
        self.next_line_prefetch.stable_hash(h);
        self.classify_3c.stable_hash(h);
        self.pool_multiplier.stable_hash(h);
        self.thread_queue_capacity.stable_hash(h);
        self.migration_queue_limit.stable_hash(h);
        self.scout_instructions.stable_hash(h);
        self.itlb_entries.stable_hash(h);
        self.itlb_page_bytes.stable_hash(h);
        self.dtlb_entries.stable_hash(h);
        self.tlb_walk_cycles.stable_hash(h);
        self.pif_prefetch.stable_hash(h);
        self.steps_switch_cycles.stable_hash(h);
        self.steps_team_size.stable_hash(h);
        self.arrival_stagger_cycles.stable_hash(h);
        self.measure_bloom_accuracy.stable_hash(h);
        self.exact_search.stable_hash(h);
        self.work_stealing.stable_hash(h);
        self.seed.stable_hash(h);
        self.watchdog.stable_hash(h);
        self.fault_injection.stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_2() {
        let c = SimConfig::paper_baseline();
        assert_eq!(c.try_validate(), Ok(()));
        assert_eq!(c.cores, 16);
        assert_eq!(c.l1i_size, 32 * 1024);
        assert_eq!(c.l1i_latency(), 3);
        assert_eq!(c.l2_size, 16 * 1024 * 1024);
        assert_eq!(c.l2_hit_latency, 16);
        assert_eq!(c.thread_queue_capacity, 30);
    }

    #[test]
    fn pif_model_is_big_but_fast() {
        let c = SimConfig::paper_baseline().with_pif_model();
        assert_eq!(c.l1i_size, 512 * 1024);
        assert_eq!(c.l1i_latency(), 3);
        assert_eq!(c.mode, SchedulerMode::Baseline);
    }

    #[test]
    fn big_cache_without_override_is_slower() {
        let c = SimConfig::paper_baseline().with_l1i_size(512 * 1024);
        assert!(c.l1i_latency() > 3);
    }

    #[test]
    fn mode_helpers() {
        assert!(!SchedulerMode::Baseline.is_slicc());
        assert!(SchedulerMode::Slicc.is_slicc());
        assert!(!SchedulerMode::Slicc.is_type_aware());
        assert!(SchedulerMode::SliccSw.is_type_aware());
        assert_eq!(SchedulerMode::SliccPp.to_string(), "SLICC-Pp");
    }

    #[test]
    fn presets_with_overrides_validate() {
        let cfg =
            SimConfig { seed: 42, ..SimConfig::paper_baseline() }.with_mode(SchedulerMode::Slicc);
        assert_eq!(cfg.try_validate(), Ok(()));
        assert_eq!(cfg.mode, SchedulerMode::Slicc);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    fn zero_way_cache_is_rejected() {
        let err =
            SimConfig { l1i_assoc: 0, ..SimConfig::paper_baseline() }.try_validate().unwrap_err();
        assert_eq!(err, ConfigError::ZeroWayCache { cache: "l1i" });
        assert!(err.to_string().contains("l1i_assoc"));
    }

    #[test]
    fn fill_up_beyond_blocks_is_rejected() {
        // The tiny machine's 4 KiB L1-I holds 64 blocks; fill-up_t 65 can
        // never fire — but exactly 64 is legal (Figure 7 sweeps up to the
        // full block count).
        let with_fill_up = |fill_up_t| {
            let mut c = SimConfig::tiny_test().with_mode(SchedulerMode::Slicc);
            c.slicc = c.slicc.with_fill_up(fill_up_t);
            c.try_validate()
        };
        assert_eq!(
            with_fill_up(65),
            Err(ConfigError::FillUpExceedsBlocks { fill_up_t: 65, blocks: 64 })
        );
        assert_eq!(with_fill_up(64), Ok(()));
    }

    #[test]
    fn builder_rejects_bad_torus() {
        // A config built by struct update still meets the torus check.
        let err =
            SimConfig { cores: 12, ..SimConfig::paper_baseline() }.try_validate().unwrap_err();
        assert_eq!(err, ConfigError::TorusMismatch { cores: 12, cols: 4, rows: 4 });
        assert!(err.to_string().contains("torus"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_torus_panics() {
        // More cores than torus nodes: try_validate rejects the config
        // because the last core would have no place on the grid.
        let c = SimConfig { cores: 20, ..SimConfig::paper_baseline() };
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::TorusMismatch { cores: 20, cols: 4, rows: 4 })
        );
        let noc = slicc_noc::Torus::new(c.noc_cols, c.noc_rows);
        noc.coords(slicc_common::CoreId::new(c.cores as u16 - 1));
    }

    #[test]
    fn zero_pool_multiplier_is_rejected() {
        let err = SimConfig { pool_multiplier: 0, ..SimConfig::paper_baseline() }
            .try_validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroPoolMultiplier);
    }

    #[test]
    fn stable_hash_distinguishes_configs() {
        use slicc_common::stable_hash_of;
        let base = SimConfig::paper_baseline();
        assert_eq!(stable_hash_of(&base), stable_hash_of(&SimConfig::paper_baseline()));
        let slicc = SimConfig::paper_baseline().with_mode(SchedulerMode::Slicc);
        assert_ne!(stable_hash_of(&base), stable_hash_of(&slicc));
        let seeded = SimConfig { seed: 1, ..SimConfig::paper_baseline() };
        assert_ne!(stable_hash_of(&base), stable_hash_of(&seeded));
    }

    #[test]
    fn watchdog_and_fault_injection_change_the_stable_hash() {
        // Both knobs change the *outcome* of a run (abort vs. success), so
        // leaving them out of the key would alias a livelocking point with
        // its healthy twin in the run cache.
        use slicc_common::stable_hash_of;
        let base = SimConfig::paper_baseline();
        let fueled = SimConfig {
            watchdog: WatchdogConfig { max_heap_steps: Some(10), ..WatchdogConfig::disabled() },
            ..SimConfig::paper_baseline()
        };
        assert_ne!(stable_hash_of(&base), stable_hash_of(&fueled));
        let cycles = SimConfig {
            watchdog: WatchdogConfig { max_cycles: Some(10), ..WatchdogConfig::disabled() },
            ..SimConfig::paper_baseline()
        };
        assert_ne!(stable_hash_of(&base), stable_hash_of(&cycles));
        assert_ne!(stable_hash_of(&fueled), stable_hash_of(&cycles));
        let faulty = SimConfig {
            fault_injection: Some(InjectedFault::Panic),
            ..SimConfig::paper_baseline()
        };
        assert_ne!(stable_hash_of(&base), stable_hash_of(&faulty));
    }

    #[test]
    fn every_injected_fault_hashes_distinctly_including_payloads() {
        use slicc_common::stable_hash_of;
        let key = |fault| {
            stable_hash_of(&SimConfig {
                fault_injection: Some(fault),
                ..SimConfig::paper_baseline()
            })
        };
        let mut keys: Vec<u64> = InjectedFault::ALL.into_iter().map(key).collect();
        // Payloads must feed the hash too, not just the ordinal.
        keys.push(key(InjectedFault::StallAt { step: 7 }));
        keys.push(key(InjectedFault::SlowConsumer { delay_ms: 77 }));
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "fault keys must not collide: {keys:x?}");
    }

    #[test]
    fn injected_fault_parses_the_cli_spellings() {
        assert_eq!(InjectedFault::parse("panic"), Some(InjectedFault::Panic));
        assert_eq!(InjectedFault::parse("stall:42"), Some(InjectedFault::StallAt { step: 42 }));
        assert_eq!(
            InjectedFault::parse("slow-consumer:25"),
            Some(InjectedFault::SlowConsumer { delay_ms: 25 })
        );
        for bad in [
            "",
            "stall",
            "stall:",
            "stall:x",
            "panic!",
            "slow-consumer:",
            "io-error:1",
            "corrupt-tail",
            "alloc-pressure:8",
        ] {
            assert_eq!(InjectedFault::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn point_names_parse_to_their_variants() {
        use slicc_trace::{TraceScale, Workload};
        let modes = [
            ("base", SchedulerMode::Baseline),
            ("slicc", SchedulerMode::Slicc),
            ("slicc-sw", SchedulerMode::SliccSw),
            ("slicc-pp", SchedulerMode::SliccPp),
            ("steps", SchedulerMode::Steps),
        ];
        for (name, mode) in modes {
            assert_eq!(SchedulerMode::parse(name), Some(mode), "{name:?}");
        }
        let workloads = [
            ("tpcc1", Workload::TpcC1),
            ("tpcc10", Workload::TpcC10),
            ("tpce", Workload::TpcE),
            ("mapreduce", Workload::MapReduce),
        ];
        for (name, workload) in workloads {
            assert_eq!(Workload::parse(name), Some(workload), "{name:?}");
        }
        let scales = [
            ("tiny", TraceScale::tiny()),
            ("small", TraceScale::small()),
            ("paper", TraceScale::paper_like()),
        ];
        for (name, scale) in scales {
            assert_eq!(TraceScale::parse(name), Some(scale), "{name:?}");
        }
        // Display names, other cases and near misses are not spellings.
        for bad in [
            "",
            "Base",
            "SLICC-SW",
            "sliccsw",
            "turbo",
            "TPC-C-1",
            "tpcc",
            "tpcx",
            "Tiny",
            "medium",
            "paper_like",
        ] {
            assert_eq!(SchedulerMode::parse(bad), None, "{bad:?}");
            assert_eq!(Workload::parse(bad), None, "{bad:?}");
            assert_eq!(TraceScale::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn deadline_config_budget_and_enablement() {
        assert!(!DeadlineConfig::disabled().is_enabled());
        assert_eq!(DeadlineConfig::disabled().budget(), None);
        let d = DeadlineConfig::from_ms(250);
        assert!(d.is_enabled());
        assert_eq!(d.budget(), Some(std::time::Duration::from_millis(250)));
    }

    #[test]
    fn watchdog_defaults_disabled() {
        let c = SimConfig::paper_baseline();
        assert!(!c.watchdog.is_enabled());
        assert!(c.fault_injection.is_none());
        assert!(
            WatchdogConfig { max_heap_steps: Some(0), ..WatchdogConfig::disabled() }.is_enabled()
        );
    }

    #[test]
    fn tiny_test_config_is_consistent() {
        let c = SimConfig::tiny_test();
        assert_eq!(c.try_validate(), Ok(()));
        assert_eq!(c.l1i_geometry().num_blocks(), 64);
        // A 48-block segment fits; two do not.
        assert!(48 <= c.l1i_geometry().num_blocks());
        assert!(96 > c.l1i_geometry().num_blocks());
    }
}
