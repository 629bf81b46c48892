//! The assembled machine: cores + L1s + blooms + NoC + L2 + DRAM.
//!
//! [`System`] owns all hardware state and implements the two memory
//! operations the engine issues — instruction fetch and data access —
//! including miss-path latency (torus hops to the home L2 bank, bank hit
//! latency, DRAM on L2 miss), coherence side effects (store
//! invalidations, dirty downgrades, inclusive back-invalidation), bloom
//! signature maintenance, optional next-line prefetching, and optional 3C
//! classification.
//!
//! # Site split and deferred cross-core effects (DESIGN §13)
//!
//! Per-core state lives in a `CoreSite`, which the engine's private
//! segments borrow alone. Everything that is not per-core — the NoC, the
//! L2 NUCA + directory, DRAM, and the bloom signatures (read cross-core by
//! `remote_search`) — is touched only through the full `System` paths.
//!
//! In deferred mode (`System::set_deferred_effects`, which the engine
//! always enables), cross-core coherence side effects do not mutate the
//! victim core directly. They are queued as typed `CrossEffect`
//! messages in a per-core mailbox and applied by
//! `System::drain_mailbox` at the end of every step of the target core.
//! Effects whose target is the requesting core itself apply immediately.
//! The L2 directory tolerates the stale window this opens: an eviction
//! notice for a block the directory no longer tracks is a no-op.

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use slicc_cache::{
    AccessKind, BloomSignature, Cache, EvictedBlock, MissBreakdown, MissClass, NextLinePrefetcher,
    Pif, SignatureAccuracy, ThreeCClassifier,
};
use slicc_common::{BlockAddr, CoreId, Cycle, Merge};
use slicc_core::{CoreMask, SliccAgent};
use slicc_cpu::{CoreStats, CoreTimer, Tlb};
use slicc_mem::{Dram, L2AccessKind, L2Nuca, L2Response};
use slicc_noc::{NocStats, Torus};

/// Per-core hardware state: everything a private segment may touch.
///
/// The SLICC agent and the engine's fetch-block/segment cursors ride in
/// the site because a private segment advances them; the bloom signature
/// does *not* — remote searches read every core's bloom, and private
/// segments (all L1-I hits) never change bloom contents.
pub(crate) struct CoreSite {
    pub(crate) l1i: Cache,
    pub(crate) l1d: Cache,
    pub(crate) timer: CoreTimer,
    pub(crate) itlb: Tlb,
    pub(crate) dtlb: Tlb,
    pub(crate) prefetcher: Option<NextLinePrefetcher>,
    pub(crate) pif: Option<Pif>,
    pub(crate) i_classifier: Option<ThreeCClassifier>,
    pub(crate) d_classifier: Option<ThreeCClassifier>,
    pub(crate) agent: SliccAgent,
    /// The block the core fetched from last; a record in the same block
    /// costs no fetch (it comes from the fetch buffer).
    pub(crate) last_iblock: Option<BlockAddr>,
    /// The code segment of the last fetch, for segment-boundary events.
    pub(crate) last_segment: Option<u32>,
}

/// The per-segment constants a private segment needs from the config,
/// precomputed once so segments never read `SimConfig`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegmentParams {
    pub(crate) tlb_walk_cycles: Cycle,
    pub(crate) l1i_latency: Cycle,
    /// When a prefetcher, the PIF comparator, or the bloom-accuracy probe
    /// is configured, every fetch-block transition has shared side
    /// effects and must take the blocking path.
    pub(crate) fetch_transition_blocks: bool,
    /// Whether the scheduler mode consults SLICC agents on fetches.
    pub(crate) uses_agents: bool,
}

impl CoreSite {
    /// One private instruction-fetch block transition. Callers guarantee
    /// `l1i.contains(block)` and `!fetch_transition_blocks`; this mirrors
    /// the hit path of [`System::ifetch`] exactly — TLB, L1-I access
    /// (recency update, no eviction possible), 3C observation, timer
    /// charge — and must stay in lockstep with it.
    pub(crate) fn private_ifetch_hit(&mut self, block: BlockAddr, p: &SegmentParams) {
        if !self.itlb.access(block.base_addr(64)) {
            self.timer.tlb_walk(p.tlb_walk_cycles, true);
        }
        let result = self.l1i.access(block, AccessKind::Read);
        debug_assert!(result.is_hit(), "private fetch classified as hit must hit");
        if let Some(c) = &mut self.i_classifier {
            c.observe(block);
        }
        self.timer.ifetch_hit(p.l1i_latency);
    }

    /// One private data access. Callers guarantee the L1-D holds the
    /// block (dirty, for stores); mirrors the hit path of
    /// [`System::data_access`] — TLB, L1-D access, 3C observation, no
    /// timer charge — and must stay in lockstep with it.
    pub(crate) fn private_data_hit(&mut self, block: BlockAddr, is_store: bool, p: &SegmentParams) {
        if !self.dtlb.access(block.base_addr(64)) {
            self.timer.tlb_walk(p.tlb_walk_cycles, false);
        }
        let kind = if is_store { AccessKind::Write } else { AccessKind::Read };
        let result = self.l1d.access(block, kind);
        debug_assert!(result.is_hit(), "private data access classified as hit must hit");
        if let Some(c) = &mut self.d_classifier {
            c.observe(block);
        }
    }
}

/// One cross-core coherence side effect, queued in the victim core's
/// mailbox and applied at that core's next step barrier.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CrossEffect {
    /// Inclusive back-invalidation of an L1-I copy. Bloom upkeep rides
    /// with the application (it reads the victim's L1-I set contents).
    InvalI(BlockAddr),
    /// L1-D invalidation (store exclusivity or inclusive back-inval).
    InvalD(BlockAddr),
    /// Dirty-owner downgrade: the line stays, loses dirtiness.
    CleanD(BlockAddr),
    /// SLICC agent reset broadcast at team completion.
    AgentReset,
}

/// The full simulated machine.
pub struct System {
    cfg: SimConfig,
    noc: Torus,
    noc_stats: NocStats,
    l2: L2Nuca,
    dram: Dram,
    sites: Vec<CoreSite>,
    /// Bloom signatures live outside the sites: `remote_search` reads
    /// every core's signature, and private segments never touch them.
    blooms: Vec<BloomSignature>,
    /// Deferred cross-core effects, drained at each core's step barrier.
    mailboxes: Vec<Vec<CrossEffect>>,
    /// Whether cross-core effects defer to mailboxes (the engine) or
    /// apply immediately (standalone `System` users).
    deferred: bool,
    l1i_latency: Cycle,
    bloom_accuracy: SignatureAccuracy,
    /// Reusable eviction buffer for the fetch path: filled and drained
    /// within one `ifetch`, kept across calls so the steady state never
    /// allocates.
    evict_scratch: Vec<EvictedBlock>,
    /// 3C class of the most recent L1-I miss, written only when the
    /// classifier is configured, so observed runs can stamp Miss events
    /// with the class without a second classifier pass.
    last_i_miss_class: Option<MissClass>,
    /// 3C class of the most recent L1-D miss (see `last_i_miss_class`).
    last_d_miss_class: Option<MissClass>,
}

impl System {
    /// Builds the machine described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`]. Fallible callers
    /// (the engine's error path) use [`System::try_new`].
    pub fn new(cfg: &SimConfig) -> Self {
        System::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the machine described by `cfg`, rejecting invalid
    /// configurations as typed errors instead of panicking.
    pub fn try_new(cfg: &SimConfig) -> Result<Self, crate::ConfigError> {
        cfg.try_validate()?;
        let l1i_geom = cfg.l1i_geometry();
        let l1d_geom = cfg.l1d_geometry();
        let sites = (0..cfg.cores)
            .map(|i| {
                CoreSite {
                    l1i: Cache::new(l1i_geom, cfg.l1_policy, cfg.seed ^ (i as u64) << 1),
                    l1d: Cache::new(l1d_geom, cfg.l1_policy, cfg.seed ^ (i as u64) << 1 ^ 1),
                    timer: CoreTimer::new(cfg.timing),
                    itlb: Tlb::with_page_bytes(cfg.itlb_entries, cfg.itlb_page_bytes),
                    dtlb: Tlb::new(cfg.dtlb_entries),
                    prefetcher: cfg.next_line_prefetch.map(NextLinePrefetcher::new),
                    pif: cfg.pif_prefetch.map(Pif::new),
                    i_classifier: cfg
                        .classify_3c
                        .then(|| ThreeCClassifier::new(l1i_geom.num_blocks() as usize)),
                    d_classifier: cfg
                        .classify_3c
                        .then(|| ThreeCClassifier::new(l1d_geom.num_blocks() as usize)),
                    agent: SliccAgent::new(CoreId::new(i as u16), cfg.slicc),
                    last_iblock: None,
                    last_segment: None,
                }
            })
            .collect();
        Ok(System {
            noc: Torus::new(cfg.noc_cols, cfg.noc_rows),
            noc_stats: NocStats::default(),
            l2: L2Nuca::new(
                slicc_common::CacheGeometry::new(cfg.l2_size, cfg.l2_assoc, 64),
                cfg.l2_banks,
                cfg.l2_hit_latency,
                cfg.seed ^ 0x12,
            ),
            dram: Dram::new(cfg.dram),
            sites,
            blooms: (0..cfg.cores)
                .map(|_| BloomSignature::new(cfg.bloom_bits.max(l1i_geom.num_sets()), l1i_geom))
                .collect(),
            mailboxes: (0..cfg.cores).map(|_| Vec::new()).collect(),
            deferred: false,
            l1i_latency: cfg.l1i_latency(),
            bloom_accuracy: SignatureAccuracy::default(),
            evict_scratch: Vec::new(),
            last_i_miss_class: None,
            last_d_miss_class: None,
            cfg: cfg.clone(),
        })
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The interconnect.
    pub fn noc(&self) -> &Torus {
        &self.noc
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.sites.len()
    }

    /// The core's per-core hardware state (engine internal).
    pub(crate) fn core_site(&self, core: CoreId) -> &CoreSite {
        &self.sites[core.index()]
    }

    /// Mutable per-core hardware state (engine internal).
    pub(crate) fn core_site_mut(&mut self, core: CoreId) -> &mut CoreSite {
        &mut self.sites[core.index()]
    }

    /// Switches cross-core coherence effects from immediate application
    /// to per-core mailboxes drained at step barriers. The engine always
    /// turns this on; the golden digests are defined by it.
    pub(crate) fn set_deferred_effects(&mut self, deferred: bool) {
        self.deferred = deferred;
    }

    /// The precomputed constants a private segment needs.
    pub(crate) fn segment_params(&self, uses_agents: bool) -> SegmentParams {
        SegmentParams {
            tlb_walk_cycles: self.cfg.tlb_walk_cycles,
            l1i_latency: self.l1i_latency,
            fetch_transition_blocks: self.cfg.next_line_prefetch.is_some()
                || self.cfg.pif_prefetch.is_some()
                || self.cfg.measure_bloom_accuracy,
            uses_agents,
        }
    }

    /// Applies every queued cross-core effect for `core`, in arrival
    /// order (= the order blocking records retired). Called at the end of
    /// every step of `core`.
    pub(crate) fn drain_mailbox(&mut self, core: CoreId) {
        if self.mailboxes[core.index()].is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.mailboxes[core.index()]);
        for effect in pending.drain(..) {
            match effect {
                CrossEffect::InvalI(block) => self.apply_inval_i(core, block),
                CrossEffect::InvalD(block) => {
                    self.sites[core.index()].l1d.invalidate(block);
                }
                CrossEffect::CleanD(block) => {
                    self.sites[core.index()].l1d.clean(block);
                }
                CrossEffect::AgentReset => self.sites[core.index()].agent.reset_all(),
            }
        }
        // Hand the drained buffer back to reuse its allocation: applying
        // an effect never queues a new one for the same core.
        self.mailboxes[core.index()] = pending;
    }

    /// Resets `core`'s SLICC agent: immediately when it is the stepping
    /// core (or effects are immediate), deferred to its mailbox otherwise.
    pub(crate) fn reset_agent(&mut self, core: CoreId, stepping: CoreId) {
        if self.deferred && core != stepping {
            self.mailboxes[core.index()].push(CrossEffect::AgentReset);
        } else {
            self.sites[core.index()].agent.reset_all();
        }
    }

    /// The core's local clock.
    pub fn timer(&self, core: CoreId) -> &CoreTimer {
        &self.sites[core.index()].timer
    }

    /// Mutable access to the core's local clock (the engine charges
    /// migration, idling, and instruction retirement through this).
    pub fn timer_mut(&mut self, core: CoreId) -> &mut CoreTimer {
        &mut self.sites[core.index()].timer
    }

    /// Read access to a core's L1-I (tests, diagnostics).
    pub fn l1i(&self, core: CoreId) -> &Cache {
        &self.sites[core.index()].l1i
    }

    /// Read access to a core's L1-D (tests, diagnostics).
    pub fn l1d(&self, core: CoreId) -> &Cache {
        &self.sites[core.index()].l1d
    }

    /// Read access to a core's bloom signature (tests, diagnostics).
    pub fn bloom(&self, core: CoreId) -> &BloomSignature {
        &self.blooms[core.index()]
    }

    /// The effective L1-I hit latency.
    pub fn l1i_latency(&self) -> Cycle {
        self.l1i_latency
    }

    /// Performs one instruction fetch on `core` and charges its timer.
    /// Returns whether the L1-I hit.
    pub fn ifetch(&mut self, core: CoreId, block: BlockAddr) -> bool {
        let i = core.index();

        // Address translation precedes the cache.
        {
            let walk = self.cfg.tlb_walk_cycles;
            let site = &mut self.sites[i];
            if !site.itlb.access(block.base_addr(64)) {
                site.timer.tlb_walk(walk, true);
            }
        }

        if self.cfg.measure_bloom_accuracy {
            // §5.3's accuracy metric: does the signature agree with the
            // cache on hit/miss, for every access?
            let holds = self.sites[i].l1i.contains(block);
            self.bloom_accuracy.record(self.blooms[i].maybe_contains(block), holds);
        }

        // L1 lookup (with optional next-line prefetch), classification,
        // and bloom upkeep for prefetch fills. Evictions from prefetch
        // fills and the demand fill collect in the reused scratch buffer.
        let mut evictions = std::mem::take(&mut self.evict_scratch);
        evictions.clear();
        let result = {
            let site = &mut self.sites[i];
            let bloom = &mut self.blooms[i];
            let result = match &mut site.prefetcher {
                Some(pf) => {
                    let degree = pf.degree();
                    let out = pf.access_into(&mut site.l1i, block, &mut evictions);
                    // Prefetch-filled blocks are cached: the bloom
                    // signature must cover them for remote searches.
                    for d in 1..=degree {
                        let target = block.offset(d);
                        if site.l1i.contains(target) {
                            bloom.insert(target);
                        }
                    }
                    out
                }
                None => site.l1i.access(block, AccessKind::Read),
            };
            if let Some(c) = &mut site.i_classifier {
                if result.is_hit() {
                    c.observe(block);
                } else {
                    self.last_i_miss_class = Some(c.observe_miss(block));
                }
            }
            result
        };

        // Evictions caused by the demand fill and by prefetch fills.
        if let Some(ev) = result.evicted() {
            evictions.push(ev);
        }
        for ev in &evictions {
            self.handle_l1i_eviction(core, ev.block);
        }

        // The real-PIF comparator trains on the retire-order stream and
        // streams prefetch fills into the L1-I (same scratch, drained).
        evictions.clear();
        {
            let site = &mut self.sites[i];
            if let Some(pif) = &mut site.pif {
                pif.on_fetch_into(&mut site.l1i, block, result.is_hit(), &mut evictions);
            }
        }
        for ev in &evictions {
            self.handle_l1i_eviction(core, ev.block);
        }
        self.evict_scratch = evictions;

        if result.is_hit() {
            let latency = self.l1i_latency;
            self.sites[i].timer.ifetch_hit(latency);
            return true;
        }

        // Miss path: request to the home L2 bank over the torus.
        let now = self.sites[i].timer.now();
        let (resp, round_trip) = self.l2_request(core, block, L2AccessKind::IFetch, now);
        self.apply_back_invalidations(core, &resp);
        self.blooms[i].insert(block);
        self.sites[i].timer.ifetch_miss(round_trip);
        false
    }

    /// Performs one data access on `core` and charges its timer.
    /// Returns whether the L1-D hit.
    pub fn data_access(&mut self, core: CoreId, block: BlockAddr, is_store: bool) -> bool {
        let i = core.index();
        let kind = if is_store { AccessKind::Write } else { AccessKind::Read };

        {
            let walk = self.cfg.tlb_walk_cycles;
            let site = &mut self.sites[i];
            if !site.dtlb.access(block.base_addr(64)) {
                site.timer.tlb_walk(walk, false);
            }
        }

        let (result, was_dirty) = {
            let site = &mut self.sites[i];
            let was_dirty = site.l1d.contains_dirty(block);
            let result = site.l1d.access(block, kind);
            if let Some(c) = &mut site.d_classifier {
                if result.is_hit() {
                    c.observe(block);
                } else {
                    self.last_d_miss_class = Some(c.observe_miss(block));
                }
            }
            (result, was_dirty)
        };

        if let Some(ev) = result.evicted() {
            self.l2.on_l1_evict(core, ev.block, true, ev.dirty);
            if ev.dirty {
                // Write-back message to the home bank.
                let home = self.noc.bank_home(self.l2.bank_of(ev.block));
                let hops = self.noc.hops(core, home);
                self.noc_stats.record_unicast(hops);
            }
        }

        if result.is_hit() {
            // A store to a clean (potentially shared) line needs
            // exclusivity: an upgrade transaction at the directory.
            if is_store && !was_dirty {
                let now = self.sites[i].timer.now();
                let (resp, round_trip) = self.l2_request(core, block, L2AccessKind::DataWrite, now);
                self.apply_coherence(core, block, &resp);
                self.apply_back_invalidations(core, &resp);
                self.sites[i].timer.data_miss(block, round_trip, true);
            }
            return true;
        }

        let now = self.sites[i].timer.now();
        let l2_kind = if is_store { L2AccessKind::DataWrite } else { L2AccessKind::DataRead };
        let (resp, mut round_trip) = self.l2_request(core, block, l2_kind, now);
        // A dirty remote copy must be downgraded before the data returns.
        if let Some(owner) = resp.downgrade {
            let home = self.noc.bank_home(self.l2.bank_of(block));
            round_trip += self.noc.round_trip(home, owner);
            self.noc_stats.record_unicast(self.noc.hops(home, owner));
        }
        self.apply_coherence(core, block, &resp);
        self.apply_back_invalidations(core, &resp);
        self.sites[i].timer.data_miss(block, round_trip, is_store);
        false
    }

    /// The SLICC remote cache segment search: queries every other core's
    /// bloom signature for `block`. Counted as one broadcast (§5.8).
    pub fn remote_search(&mut self, core: CoreId, block: BlockAddr) -> CoreMask {
        self.noc_stats.record_broadcast();
        let mut mask = CoreMask::empty();
        for i in 0..self.sites.len() {
            let holds = if self.cfg.exact_search {
                // Exact search reads other cores' L1-Is directly.
                self.sites[i].l1i.contains(block)
            } else {
                self.blooms[i].maybe_contains(block)
            };
            if i != core.index() && holds {
                mask.insert(CoreId::new(i as u16));
            }
        }
        mask
    }

    /// Measured bloom-signature accuracy so far (Figure 9), if enabled.
    pub fn bloom_accuracy(&self) -> Option<f64> {
        self.cfg.measure_bloom_accuracy.then(|| self.bloom_accuracy.accuracy())
    }

    /// Records the context-transfer messages of one migration.
    pub fn record_migration_traffic(&mut self, from: CoreId, to: CoreId) {
        let hops = self.noc.hops(from, to);
        // Save to the L2 bank near the target, restore locally.
        self.noc_stats.record_unicast(hops);
        self.noc_stats.record_unicast(0);
    }

    /// Issues an L2 request and computes its round-trip latency.
    fn l2_request(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: L2AccessKind,
        now: Cycle,
    ) -> (L2Response, Cycle) {
        let bank = self.l2.bank_of(block);
        let home = self.noc.bank_home(bank);
        let noc_one_way = self.noc.latency(core, home);
        self.noc_stats.record_unicast(self.noc.hops(core, home));
        let resp = self.l2.access(core, block, kind);
        let mut round_trip = 2 * noc_one_way + self.l2.hit_latency();
        if !resp.hit {
            let issue = now + noc_one_way + self.l2.hit_latency();
            let done = self.dram.access(block, issue, false);
            round_trip += done - issue;
        }
        if resp.dirty_writeback {
            // The L2 victim's write-back occupies a DRAM bank but is off
            // the critical path of this request.
            // (The victim block address is in `resp.back_invalidate` when
            // L1 sharers existed; for timing we model bank pressure only
            // when we know the block.)
        }
        (resp, round_trip)
    }

    /// Applies store-invalidations and downgrades to the victim L1-Ds.
    /// NoC messages are charged at request time either way; in deferred
    /// mode the cache mutations queue to the victims' mailboxes.
    fn apply_coherence(&mut self, requester: CoreId, block: BlockAddr, resp: &L2Response) {
        for victim in resp.invalidate_data.iter() {
            debug_assert_ne!(victim, requester);
            if self.deferred {
                self.mailboxes[victim.index()].push(CrossEffect::InvalD(block));
            } else {
                self.sites[victim.index()].l1d.invalidate(block);
            }
            self.noc_stats.record_unicast(self.noc.hops(requester, victim));
        }
        if let Some(owner) = resp.downgrade {
            if self.deferred && owner != requester {
                self.mailboxes[owner.index()].push(CrossEffect::CleanD(block));
            } else {
                self.sites[owner.index()].l1d.clean(block);
            }
        }
    }

    /// Applies inclusive-L2 back-invalidations to all L1 copies. The
    /// requester's own copy applies immediately;
    /// other sharers defer to their mailboxes in deferred mode.
    fn apply_back_invalidations(&mut self, requester: CoreId, resp: &L2Response) {
        if let Some(bi) = resp.back_invalidate {
            for c in bi.i_sharers.iter() {
                if self.deferred && c != requester {
                    self.mailboxes[c.index()].push(CrossEffect::InvalI(bi.block));
                } else {
                    self.apply_inval_i(c, bi.block);
                }
            }
            for c in bi.d_sharers.iter() {
                if self.deferred && c != requester {
                    self.mailboxes[c.index()].push(CrossEffect::InvalD(bi.block));
                } else {
                    self.sites[c.index()].l1d.invalidate(bi.block);
                }
            }
        }
    }

    /// Invalidates an L1-I copy with bloom upkeep (bloom removal reads the
    /// victim's L1-I set contents).
    fn apply_inval_i(&mut self, core: CoreId, block: BlockAddr) {
        if self.sites[core.index()].l1i.invalidate(block).is_some() {
            self.remove_from_bloom(core, block);
        }
    }

    /// L1-I eviction bookkeeping: directory notification + bloom removal.
    fn handle_l1i_eviction(&mut self, core: CoreId, block: BlockAddr) {
        self.l2.on_l1_evict(core, block, false, false);
        self.remove_from_bloom(core, block);
    }

    fn remove_from_bloom(&mut self, core: CoreId, block: BlockAddr) {
        let site = &self.sites[core.index()];
        let set = site.l1i.geometry().set_index(block);
        self.blooms[core.index()].remove(block, site.l1i.blocks_in_set(set));
    }

    /// The completion time of the machine: the latest core clock.
    pub fn makespan(&self) -> Cycle {
        self.sites.iter().map(|site| site.timer.now()).max().unwrap_or(0)
    }

    /// 3C class of the most recent L1-I miss, if 3C classification is on.
    pub fn last_i_miss_class(&self) -> Option<MissClass> {
        self.last_i_miss_class
    }

    /// 3C class of the most recent L1-D miss, if 3C classification is on.
    pub fn last_d_miss_class(&self) -> Option<MissClass> {
        self.last_d_miss_class
    }

    /// Snapshot of the cumulative counters the interval sampler tracks.
    /// `migrations` is owned by the engine and left zero here.
    pub fn obs_counters(&self) -> slicc_obs::ObsCounters {
        let mut cum = slicc_obs::ObsCounters::default();
        for site in &self.sites {
            cum.instructions += site.timer.stats().instructions;
            cum.i_misses += site.l1i.stats().misses;
            cum.d_misses += site.l1d.stats().misses;
        }
        cum
    }

    /// Gathers hardware-side metrics into `out`.
    pub fn collect_metrics(&self, out: &mut RunMetrics) {
        out.cycles = self.makespan();
        let mut core_stats = CoreStats::default();
        let mut i_bd = MissBreakdown::default();
        let mut d_bd = MissBreakdown::default();
        for site in &self.sites {
            out.i_tlb_misses += site.itlb.misses();
            out.d_tlb_misses += site.dtlb.misses();
            out.instructions += site.timer.stats().instructions;
            out.i_misses += site.l1i.stats().misses;
            out.d_misses += site.l1d.stats().misses;
            out.i_accesses += site.l1i.stats().accesses;
            out.d_accesses += site.l1d.stats().accesses;
            core_stats.merge(site.timer.stats());
            if let Some(c) = &site.i_classifier {
                i_bd.merge(&c.breakdown());
            }
            if let Some(c) = &site.d_classifier {
                d_bd.merge(&c.breakdown());
            }
        }
        out.core_stats = core_stats;
        out.noc = self.noc_stats;
        out.l2 = *self.l2.stats();
        out.dram = *self.dram.stats();
        if self.cfg.classify_3c {
            out.i_breakdown = Some(i_bd);
            out.d_breakdown = Some(d_bd);
        }
        out.bloom_accuracy = self.bloom_accuracy();
    }
}
