//! The execution engine: thread dispatch, migration, and the event loop.
//!
//! Each core owns a local clock ([`slicc_cpu::CoreTimer`]); a min-heap
//! over core clocks always advances the earliest core by a bounded batch
//! of trace records, so cross-core cache interactions resolve in
//! near-global time order while each thread's own accounting stays exact.
//!
//! # Split steps (DESIGN §13)
//!
//! Every step is split into a **private segment** — records that provably
//! touch only the core's own site, executed by `shard::run_segment`
//! — followed by at most one **blocking record** that needs shared state,
//! executed through the full `System` paths. Cross-core coherence effects
//! queue in per-core mailboxes and drain at step barriers (see
//! [`crate::system`]). The whole point runs on the calling thread.
//!
//! The engine implements the four scheduling modes:
//!
//! - **Baseline**: up to N concurrent threads, one per core, run to
//!   completion (the §5.1 OS baseline);
//! - **SLICC**: a 2N-thread pool, naïve least-congested load balancing of
//!   new threads, and the Figure-5 migration loop on every L1-I miss;
//! - **SLICC-SW**: types from the software layer; threads grouped into
//!   teams (§4.3.2), the oldest team scheduled first, large teams on all
//!   cores, medium teams on half, strays to idle cores; team threads are
//!   injected on the team's lead core (§5.2) so the pipeline of Figure 4
//!   forms;
//! - **SLICC-Pp**: like SLICC-SW, but types come from a scout core that
//!   executes each thread's first instructions and hashes them (§4.3.1);
//!   the scout core is excluded from normal execution;
//! - **STEPS**: the §6 software comparison — same-type thread groups are
//!   pinned to single cores and context-switch at the chunk boundaries
//!   the SLICC agent detects, reusing instructions in the time domain
//!   instead of the space domain.

use crate::config::{InjectedFault, SchedulerMode, SimConfig, WatchdogConfig};
use crate::error::{HotThread, LivelockSnapshot, SimError};
use crate::metrics::RunMetrics;
use crate::shard::{run_segment, StopReason, ThreadStream};
use crate::system::{SegmentParams, System};
use slicc_cache::MissClass;
use slicc_common::{BlockAddr, CancelToken, CoreId, Cycle, RingFifo, ThreadId, TxnTypeId};
use slicc_obs::{
    EventKind, EventSink, IntervalSampler, MigrationReason, MissKind, MissLevel, ObsConfig,
    Observation, ThreeC,
};
use slicc_core::{CoreMask, MigrationAdvice, ScoutHasher, TeamFormer, TeamKind, TypeRegistry};
use slicc_trace::{Record, WorkloadSpec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Heap steps between external-control checks in a controlled session:
/// the cancellation flag (a relaxed atomic load) and the wall-clock
/// deadline (a real clock read) are polled together on this power-of-two
/// cadence, and not at all in a quiescent session. The first check lands
/// on step 1 so even a 0 ms budget or pre-cancelled token trips
/// deterministically.
const CONTROL_CHECK_MASK: u64 = 63;

/// External run control: a cooperative cancellation token plus an
/// optional wall-clock deadline, checked by the engine's event loop on
/// the watchdog cadence. The default (fresh token, no deadline) never
/// interrupts anything.
#[derive(Clone, Debug, Default)]
pub struct RunControl {
    /// Cooperative stop flag; when set the run aborts with
    /// [`SimError::Cancelled`] and a diagnostic snapshot.
    pub cancel: CancelToken,
    /// Absolute wall-clock deadline; past it the run aborts with
    /// [`SimError::DeadlineExceeded`] and a diagnostic snapshot.
    pub deadline: Option<Instant>,
}

impl RunControl {
    /// Control that never interrupts (fresh token, no deadline).
    pub fn unbounded() -> Self {
        RunControl::default()
    }
}

/// One migration, as recorded by [`Engine::events`] when event recording
/// is enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationEvent {
    /// The migrating thread.
    pub thread: ThreadId,
    /// Source core.
    pub from: CoreId,
    /// Destination core.
    pub to: CoreId,
    /// Source-core local time of the migration.
    pub at: Cycle,
    /// Instructions the thread had executed when it migrated.
    pub thread_instructions: u64,
    /// Whether the target came from the remote segment search (vs idle).
    pub matched: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Pending,
    Queued,
    Running,
    Done,
}

/// Per-thread scheduler state in struct-of-arrays layout. The event loop
/// touches different subsets of this state at very different rates — the
/// record stream on every record, `ready_at`/`state` on every dispatch
/// decision, `team`/`is_stray` only at formation — so each concern lives
/// in its own dense array instead of one padded record per thread, and
/// the hot arrays stay resident while the cold ones stay out of the way.
struct Threads<'a> {
    /// Per-thread record streams (decode ring over the lazy generator).
    /// A thread's unconsumed tail survives migration: the stream is
    /// positional state, not a per-core cache. Streams of completed
    /// threads stay in place so diagnostics can read them.
    streams: Vec<ThreadStream<'a>>,
    state: Vec<ThreadState>,
    /// Earliest cycle the thread may start at its queued core (migration
    /// arrival or scout completion).
    ready_at: Vec<Cycle>,
    /// Local time of the core that completed the thread, when done (for
    /// transaction-latency statistics).
    completed_at: Vec<Option<Cycle>>,
    /// The thread's arrival time (dispatch eligibility).
    arrived_at: Vec<Cycle>,
    /// Cores this thread may run on (team restriction).
    allowed: Vec<CoreMask>,
    team: Vec<Option<usize>>,
    cores_visited: Vec<CoreMask>,
    is_stray: Vec<bool>,
}

impl<'a> Threads<'a> {
    fn len(&self) -> usize {
        self.state.len()
    }

    /// The next record of thread `t`'s stream, consumed.
    #[inline]
    fn next_record(&mut self, t: usize) -> Option<Record> {
        self.streams[t].next()
    }

    /// Records thread `t` has executed so far (diagnostics).
    fn executed(&self, t: usize) -> u64 {
        self.streams[t].executed()
    }
}

/// Per-run loop bounds, lowered from [`WatchdogConfig`] and
/// [`InjectedFault`] once at session start: the inner loop compares the
/// step counter and the popped core's clock against plain integers
/// (`MAX` means unarmed) instead of unwrapping `Option`s every step.
#[derive(Clone, Copy)]
struct EpochPlan {
    /// First heap step at which the fuel budget is spent (budget + 1, so
    /// a budget of N admits exactly N steps; `u64::MAX` when unarmed).
    fuel_trip: u64,
    /// Watchdog cycle cap (`Cycle::MAX` when unarmed).
    cycle_cap: Cycle,
    /// First heap step at which an injected stall takes over
    /// (`u64::MAX` when no `StallAt` fault is armed).
    stall_at: u64,
}

struct Team {
    members: Vec<ThreadId>,
    #[allow(dead_code)]
    txn_type: TxnTypeId,
    kind: TeamKind,
    next_member: usize,
    done_members: usize,
    cores: CoreMask,
    lead: CoreId,
    active: bool,
}

/// Maps the cache crate's miss taxonomy onto the obs crate's mirror.
fn three_c(class: MissClass) -> ThreeC {
    match class {
        MissClass::Compulsory => ThreeC::Compulsory,
        MissClass::Conflict => ThreeC::Conflict,
        MissClass::Capacity => ThreeC::Capacity,
    }
}

/// The simulation engine. Most callers should use [`crate::RunSession`]
/// (or the [`crate::Runner`] above it); the engine is public for tests
/// and custom experiment loops that need intermediate state access.
pub struct Engine<'a> {
    sys: System,
    spec: &'a WorkloadSpec,
    mode: SchedulerMode,
    threads: Threads<'a>,
    queues: Vec<RingFifo<ThreadId>>,
    running: Vec<Option<ThreadId>>,
    heap: BinaryHeap<Reverse<(Cycle, u64, usize)>>,
    stamps: Vec<u64>,
    /// Whether each core's freshest stamp is present in the heap, plus the
    /// count of such live entries: answers "is any core runnable?" in O(1)
    /// instead of scanning the heap for a non-stale entry.
    in_heap: Vec<bool>,
    live_heap: usize,
    /// Cores with nothing running and an empty queue (scout excluded),
    /// maintained incrementally at every queue/running-slot mutation so
    /// idle-target selection and wake-ups never sweep all cores.
    idle: CoreMask,
    /// Cores whose thread queue is non-empty (the steal victims).
    queued: CoreMask,
    in_flight: usize,
    pool_limit: usize,
    completed: usize,
    migrations: u64,
    matched_migrations: u64,
    idle_migrations: u64,
    blocked_migrations: u64,
    // Baseline / oblivious dispatch cursor.
    next_pending: usize,
    // Team scheduling state.
    teams: Vec<Team>,
    next_team: usize,
    half_owner: [Option<usize>; 2],
    halves: [CoreMask; 2],
    strays: Vec<ThreadId>,
    stray_cursor: usize,
    exec_cores: CoreMask,
    scout_core: Option<CoreId>,
    migration_queue_limit: usize,
    work_stealing: bool,
    steps_switch_cycles: u64,
    steps_team_size: usize,
    context_switches: u64,
    record_events: bool,
    events: Vec<MigrationEvent>,
    /// Monotone counter stamping when each core last went idle. Idle-core
    /// selection prefers the least-recently-vacated core: the paper does
    /// not specify the choice, and picking the most recently vacated one
    /// would overwrite the freshest member of a forming collective.
    vacate_clock: u64,
    vacated_seq: Vec<u64>,
    watchdog: WatchdogConfig,
    fault: Option<InjectedFault>,
    /// Whether external control is armed. Selects the controlled loop
    /// body; the quiescent body never touches `cancel` or `deadline`.
    controlled: bool,
    /// Cooperative stop flag, polled every `CONTROL_CHECK_MASK + 1` heap
    /// steps in a controlled session (a relaxed atomic load).
    cancel: CancelToken,
    /// Absolute wall-clock deadline, polled on the same cadence.
    deadline: Option<Instant>,
    /// Typed event trace (a disabled no-op sink unless the run is
    /// observed with event tracing on; see [`slicc_obs::ObsConfig`]).
    sink: EventSink,
    /// Interval-series sampler (`None` unless the run is observed with
    /// epoch sampling on).
    sampler: Option<IntervalSampler>,
    /// Precomputed constants private segments need.
    params: SegmentParams,
}

impl<'a> Engine<'a> {
    /// Builds the engine: constructs all thread traces, runs the scout
    /// phase (SLICC-Pp), and forms teams (type-aware modes).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation; [`Engine::try_new`] reports that
    /// as a typed error instead.
    pub fn new(spec: &'a WorkloadSpec, cfg: &SimConfig) -> Self {
        Engine::try_new(spec, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the engine, rejecting invalid configurations as typed
    /// errors instead of panicking.
    pub fn try_new(spec: &'a WorkloadSpec, cfg: &SimConfig) -> Result<Self, SimError> {
        Engine::try_new_with(spec, cfg, &ObsConfig::disabled())
    }

    /// Shared construction behind [`Engine::try_new`] and
    /// [`RunSession::run`]: builds the system, stages every thread trace,
    /// runs the scout phase (SLICC-Pp), and forms teams.
    pub(crate) fn try_new_with(
        spec: &'a WorkloadSpec,
        cfg: &SimConfig,
        obs: &ObsConfig,
    ) -> Result<Self, SimError> {
        let mut sys = System::try_new(cfg)?;
        // The engine always defers cross-core effects to step barriers:
        // the golden digests are defined by the mailbox semantics.
        sys.set_deferred_effects(true);
        let n = cfg.cores;
        let mode = cfg.mode;
        let scout_core = (mode == SchedulerMode::SliccPp).then(|| CoreId::new((n - 1) as u16));
        let mut exec_cores = CoreMask::all(n);
        if let Some(s) = scout_core {
            exec_cores.remove(s);
        }

        let thread_ids: Vec<ThreadId> = spec.threads().collect();
        let total = thread_ids.len();
        let streams: Vec<ThreadStream<'a>> =
            thread_ids.iter().map(|&t| ThreadStream::lazy(spec.thread_trace(t))).collect();
        // Transactions arrive spaced out, not in lockstep.
        let arrivals: Vec<Cycle> =
            thread_ids.iter().map(|t| t.raw() as Cycle * cfg.arrival_stagger_cycles).collect();
        let threads = Threads {
            streams,
            state: vec![ThreadState::Pending; total],
            ready_at: arrivals.clone(),
            completed_at: vec![None; total],
            arrived_at: arrivals,
            allowed: vec![exec_cores; total],
            team: vec![None; total],
            cores_visited: vec![CoreMask::empty(); total],
            is_stray: vec![false; total],
        };

        let pool_limit = match mode {
            SchedulerMode::Baseline => n,
            _ => n * cfg.pool_multiplier as usize,
        };

        let exec_list: Vec<CoreId> = exec_cores.iter().collect();
        let half_a: CoreMask = exec_list[..exec_list.len() / 2].iter().copied().collect();
        let half_b: CoreMask = exec_list[exec_list.len() / 2..].iter().copied().collect();

        let params = sys.segment_params(mode.uses_agents());

        let mut engine = Engine {
            sys,
            spec,
            mode,
            threads,
            queues: (0..n).map(|_| RingFifo::new(cfg.thread_queue_capacity)).collect(),
            running: vec![None; n],
            heap: BinaryHeap::new(),
            stamps: vec![0; n],
            in_heap: vec![false; n],
            live_heap: 0,
            idle: exec_cores,
            queued: CoreMask::empty(),
            in_flight: 0,
            pool_limit,
            completed: 0,
            migrations: 0,
            matched_migrations: 0,
            idle_migrations: 0,
            blocked_migrations: 0,
            next_pending: 0,
            teams: Vec::new(),
            next_team: 0,
            half_owner: [None, None],
            halves: [half_a, half_b],
            strays: Vec::new(),
            stray_cursor: 0,
            exec_cores,
            scout_core,
            migration_queue_limit: cfg.migration_queue_limit,
            work_stealing: cfg.work_stealing,
            steps_switch_cycles: cfg.steps_switch_cycles,
            steps_team_size: cfg.steps_team_size.max(1),
            context_switches: 0,
            record_events: false,
            events: Vec::new(),
            vacate_clock: 0,
            vacated_seq: vec![0; n],
            watchdog: cfg.watchdog,
            fault: cfg.fault_injection,
            controlled: false,
            cancel: CancelToken::new(),
            deadline: None,
            sink: if obs.events {
                EventSink::new(n, obs.event_capacity, obs.sample_every)
            } else {
                EventSink::disabled()
            },
            sampler: obs.epoch_cycles.map(IntervalSampler::new),
            params,
        };

        match mode {
            SchedulerMode::Baseline | SchedulerMode::Slicc => {}
            SchedulerMode::SliccSw => {
                let types: Vec<(ThreadId, TxnTypeId)> =
                    spec.threads().map(|t| (t, spec.thread_type(t))).collect();
                engine.form_teams(&types);
            }
            SchedulerMode::SliccPp => {
                let types = engine.scout_phase(cfg.scout_instructions);
                engine.form_teams(&types);
            }
            SchedulerMode::Steps => {
                let types: Vec<(ThreadId, TxnTypeId)> =
                    spec.threads().map(|t| (t, spec.thread_type(t))).collect();
                engine.form_steps_groups(&types);
            }
        }
        Ok(engine)
    }

    /// STEPS grouping: same-type thread groups of bounded size, each
    /// pinned to one core (round-robin over the machine).
    fn form_steps_groups(&mut self, types: &[(ThreadId, TxnTypeId)]) {
        let former = TeamFormer::new(self.steps_team_size.div_ceil(2));
        let exec: Vec<CoreId> = self.exec_cores.iter().collect();
        for (i, plan) in former.form_teams(types).into_iter().enumerate() {
            let core = exec[i % exec.len()];
            let mut mask = CoreMask::empty();
            mask.insert(core);
            let team_idx = self.teams.len();
            for &m in &plan.members {
                self.threads.team[m.index()] = Some(team_idx);
                self.threads.allowed[m.index()] = mask;
            }
            self.teams.push(Team {
                members: plan.members,
                txn_type: plan.txn_type,
                kind: plan.kind,
                next_member: 0,
                done_members: 0,
                cores: mask,
                lead: core,
                active: true,
            });
        }
    }

    /// SLICC-Pp preprocessing: each thread executes its first
    /// `budget` instructions on the scout core while their addresses are
    /// hashed into a type signature (§4.3.1).
    ///
    /// Hashing granularity: our synthetic control flow jitters *block*
    /// sequences between same-type instances, so the hash runs over the
    /// code-segment identity of each fetch (which the prologue-segment
    /// structure of the traces makes type-unique). The paper reports the
    /// raw-address variant is 100% accurate on its traces; this achieves
    /// the same accuracy on ours.
    fn scout_phase(&mut self, budget: u32) -> Vec<(ThreadId, TxnTypeId)> {
        let scout = self.scout_core.expect("scout phase requires SLICC-Pp");
        let mut registry = TypeRegistry::new();
        let mut out = Vec::with_capacity(self.threads.len());
        for idx in 0..self.threads.len() {
            let tid = ThreadId::new(idx as u32);
            let mut hasher = ScoutHasher::new(budget);
            let mut signature = None;
            while signature.is_none() {
                let Some(rec) = self.threads.next_record(idx) else {
                    break;
                };
                self.sys.timer_mut(scout).retire_instruction();
                let block = rec.pc.block_default();
                self.sys.ifetch(scout, block);
                if let Some(d) = rec.data {
                    self.sys.data_access(scout, d.addr.block_default(), d.is_store);
                }
                let token = self
                    .spec
                    .pool
                    .segment_of_block(block)
                    .map(|s| s as u64)
                    .unwrap_or(block.raw());
                signature = hasher.observe(BlockAddr::new(token));
            }
            let detected = registry.type_for(signature.unwrap_or(0x5c007 ^ idx as u64));
            self.threads.ready_at[idx] =
                self.threads.ready_at[idx].max(self.sys.timer(scout).now());
            out.push((tid, detected));
        }
        out
    }

    /// Groups threads into teams (§4.3.2) and separates strays.
    fn form_teams(&mut self, types: &[(ThreadId, TxnTypeId)]) {
        let exec_count = self.exec_cores.len() as usize;
        let former = TeamFormer::new(exec_count);
        for plan in former.form_teams(types) {
            if plan.kind == TeamKind::Stray {
                for &m in &plan.members {
                    self.threads.is_stray[m.index()] = true;
                    self.strays.push(m);
                }
                continue;
            }
            let team_idx = self.teams.len();
            for &m in &plan.members {
                self.threads.team[m.index()] = Some(team_idx);
            }
            self.teams.push(Team {
                members: plan.members,
                txn_type: plan.txn_type,
                kind: plan.kind,
                next_member: 0,
                done_members: 0,
                cores: CoreMask::empty(), // set at activation
                lead: CoreId::new(0),
                active: false,
            });
        }
    }

    /// Runs the event loop to completion.
    ///
    /// # Panics
    ///
    /// Panics if the event loop stalls or the watchdog fires;
    /// [`Engine::try_execute`] reports those as typed errors instead.
    pub fn execute(&mut self) {
        if let Err(e) = self.try_execute() {
            panic!("{e}");
        }
    }

    /// Arms external run control and switches the engine onto the
    /// controlled loop body (the session's `.control()` lowers to this).
    pub(crate) fn attach_control(&mut self, ctrl: RunControl) {
        self.controlled = true;
        self.cancel = ctrl.cancel;
        self.deadline = ctrl.deadline;
    }

    /// Lowers the run configuration into plain loop bounds (see
    /// [`EpochPlan`]).
    fn epoch_plan(&self) -> EpochPlan {
        EpochPlan {
            fuel_trip: self.watchdog.max_heap_steps.map_or(u64::MAX, |b| b.saturating_add(1)),
            cycle_cap: self.watchdog.max_cycles.unwrap_or(Cycle::MAX),
            stall_at: match self.fault {
                Some(InjectedFault::StallAt { step }) => step,
                _ => u64::MAX,
            },
        }
    }

    /// Runs the event loop to completion, reporting a stalled loop, an
    /// exhausted watchdog fuel budget, a cancellation, or a blown
    /// wall-clock deadline as a typed [`SimError`].
    ///
    /// On error the engine is left at the failure point: metrics and
    /// state accessors still work, which is what lets the livelock
    /// snapshot describe the stuck machine.
    pub fn try_execute(&mut self) -> Result<(), SimError> {
        if let Some(InjectedFault::Panic) = self.fault {
            panic!("injected fault: panic on execute (SimConfig::fault_injection)");
        }
        // Quiescent-mode specialization: each arm monomorphizes its own
        // loop body, so an uncontrolled session compiles to a loop with
        // no atomic loads, no clock reads, and no `Option` unwraps.
        if self.controlled {
            self.run_loop::<true>()
        } else {
            self.run_loop::<false>()
        }
    }

    fn run_loop<const CONTROLLED: bool>(&mut self) -> Result<(), SimError> {
        let plan = self.epoch_plan();
        let total = self.threads.len();
        let mut heap_steps: u64 = 0;
        self.try_dispatch();
        while self.completed < total {
            let Some(core) = self.pop_next_core() else {
                self.try_dispatch();
                if self.pop_next_core_peek() {
                    continue;
                }
                return Err(SimError::Stalled {
                    completed: self.completed as u64,
                    total: total as u64,
                    in_flight: self.in_flight as u64,
                });
            };
            heap_steps += 1;
            // Watchdog fuel: a heap-step budget of N admits exactly N
            // steps (so zero trips immediately); the cycle cap compares
            // the popped core's clock, which is the global progress floor
            // under the min-heap discipline.
            if heap_steps >= plan.fuel_trip || self.sys.timer(core).now() > plan.cycle_cap {
                if self.sink.is_enabled() {
                    let now = self.sys.timer(core).now();
                    self.sink.record(core, now, EventKind::WatchdogFired { heap_steps });
                }
                return Err(SimError::Livelock(Box::new(self.livelock_snapshot(heap_steps, core))));
            }
            if CONTROLLED && heap_steps & CONTROL_CHECK_MASK == 1 {
                if self.cancel.is_cancelled() {
                    return Err(SimError::Cancelled(Box::new(
                        self.livelock_snapshot(heap_steps, core),
                    )));
                }
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return Err(SimError::DeadlineExceeded(Box::new(
                            self.livelock_snapshot(heap_steps, core),
                        )));
                    }
                }
            }
            if heap_steps >= plan.stall_at {
                // Injected stall: re-queue the core at its current time
                // without executing, so the loop spins until the
                // watchdog or a deadline puts it down.
                let now = self.sys.timer(core).now();
                self.push_core(core, now);
                continue;
            }
            self.step(core);
            // Epoch sampling off the popped core's clock: under the
            // min-heap discipline it is the global progress floor, so
            // every epoch closes at an honest machine-wide time, with the
            // machine's counters as of this step barrier.
            if self.sampler.as_ref().is_some_and(|s| s.due(self.sys.timer(core).now())) {
                let now = self.sys.timer(core).now();
                let mut cum = self.sys.obs_counters();
                cum.migrations = self.migrations;
                self.sampler.as_mut().expect("sampler checked above").sample(now, cum);
            }
            self.try_dispatch();
        }
        Ok(())
    }

    /// Captures the machine's state for the [`SimError::Livelock`]
    /// diagnostic: queue depths, migration counters, and the unfinished
    /// thread that has executed the most instructions.
    fn livelock_snapshot(&self, heap_steps: u64, core: CoreId) -> LivelockSnapshot {
        let hottest_thread = (0..self.threads.len())
            .filter(|&t| self.threads.state[t] != ThreadState::Done && self.threads.executed(t) > 0)
            .max_by_key(|&t| (self.threads.executed(t), std::cmp::Reverse(t)))
            .map(|t| HotThread {
                thread: t as u32,
                instructions: self.threads.executed(t),
                cores_visited: self.threads.cores_visited[t].len() as usize,
            });
        LivelockSnapshot {
            heap_steps,
            cycles: self.sys.timer(core).now(),
            completed: self.completed as u64,
            total: self.threads.len() as u64,
            in_flight: self.in_flight as u64,
            migrations: self.migrations,
            blocked_migrations: self.blocked_migrations,
            queue_depths: self.queues.iter().map(|q| q.len()).collect(),
            hottest_thread,
            recent_events: self.sink.recent(32),
            series_tail: self
                .sampler
                .as_ref()
                .map(|s| s.series().tail(8).to_vec())
                .unwrap_or_default(),
        }
    }

    fn pop_next_core(&mut self) -> Option<CoreId> {
        while let Some(Reverse((_, stamp, core))) = self.heap.pop() {
            if self.stamps[core] == stamp {
                self.in_heap[core] = false;
                self.live_heap -= 1;
                return Some(CoreId::new(core as u16));
            }
        }
        None
    }

    /// Whether any live (non-stale) heap entry remains.
    fn pop_next_core_peek(&self) -> bool {
        self.live_heap > 0
    }

    /// Registers `core` in the heap at its next interesting time. A
    /// re-push bumps the stamp, turning the core's older entry stale.
    fn push_core(&mut self, core: CoreId, at: Cycle) {
        let c = core.index();
        self.stamps[c] += 1;
        self.heap.push(Reverse((at, self.stamps[c], c)));
        if !self.in_heap[c] {
            self.in_heap[c] = true;
            self.live_heap += 1;
        }
    }

    /// Recomputes `core`'s membership in the idle and queued sets; must
    /// run after every mutation of its queue or running slot.
    fn refresh_core_sets(&mut self, core: CoreId) {
        let c = core.index();
        let queue_empty = self.queues[c].is_empty();
        if queue_empty {
            self.queued.remove(core);
        } else {
            self.queued.insert(core);
        }
        if queue_empty && self.running[c].is_none() && self.scout_core != Some(core) {
            self.idle.insert(core);
        } else {
            self.idle.remove(core);
        }
    }

    fn push_core_if_work(&mut self, core: CoreId) {
        let c = core.index();
        if self.running[c].is_some() {
            let at = self.sys.timer(core).now();
            self.push_core(core, at);
        } else if let Some(&tid) = self.queues[c].front() {
            let at = self.sys.timer(core).now().max(self.threads.ready_at[tid.index()]);
            self.push_core(core, at);
        }
    }

    /// Advances one core by one split step: start a queued thread if
    /// idle, run one private segment, execute the trailing blocking
    /// record if the segment stopped on one, then drain the core's effect
    /// mailbox. The mailbox drains at the end of *every* step — including
    /// empty ones — so deferred effects land at the step barriers that
    /// define the golden digests.
    fn step(&mut self, core: CoreId) {
        let c = core.index();
        if self.running[c].is_none() && !self.start_next_thread(core) {
            self.sys.drain_mailbox(core);
            return; // nothing to do; dispatcher will wake us
        }
        let tid = self.running[c].expect("core has a running thread");
        let stop = run_segment(
            self.sys.core_site_mut(core),
            &mut self.threads.streams[tid.index()],
            &mut self.sink,
            core,
            tid,
            self.spec,
            &self.params,
        );
        match stop {
            StopReason::Exhausted => self.complete_thread(core, tid),
            StopReason::Blocking => self.exec_blocking_record(core, tid),
            StopReason::BatchCap => {}
        }
        self.sys.drain_mailbox(core);
        self.push_core_if_work(core);
    }

    /// Executes the blocking record a private segment stopped on, through
    /// the full shared-state paths: L2/directory fetch, agent policy with
    /// optional remote search, observation, and the migration or
    /// context-switch reaction to an L1-I miss. Mirrors the sequential
    /// per-record body exactly.
    fn exec_blocking_record(&mut self, core: CoreId, tid: ThreadId) {
        let rec = self.threads.streams[tid.index()]
            .next()
            .expect("segment stopped on a blocking record");
        self.sys.timer_mut(core).retire_instruction();
        let block = rec.pc.block_default();
        // Fetch-buffer model: instructions within the current block are
        // fed from the fetch buffer; the L1-I (and SLICC agent) see one
        // access per block transition.
        let mut hit = true;
        let mut accessed = false;
        if self.sys.core_site(core).last_iblock != Some(block) {
            self.sys.core_site_mut(core).last_iblock = Some(block);
            accessed = true;
            let fetch_start = if self.sink.is_enabled() { self.sys.timer(core).now() } else { 0 };
            hit = self.sys.ifetch(core, block);
            if self.mode.uses_agents() {
                if hit {
                    self.sys.core_site_mut(core).agent.on_fetch(true, None);
                } else {
                    // The remote search only serves migration; STEPS
                    // switches locally and never broadcasts.
                    let mask = (self.mode.is_slicc()
                        && self.sys.core_site(core).agent.wants_remote_search())
                    .then(|| self.sys.remote_search(core, block));
                    self.sys.core_site_mut(core).agent.on_fetch(false, mask);
                }
            }
            if self.sink.is_enabled() {
                self.observe_fetch(core, tid, block, hit, fetch_start);
            }
        }

        if let Some(d) = rec.data {
            let d_hit = self.sys.data_access(core, d.addr.block_default(), d.is_store);
            if !d_hit && self.sink.is_enabled() {
                let kind = if d.is_store { MissKind::Store } else { MissKind::Load };
                let class = self.sys.last_d_miss_class().map(three_c);
                let now = self.sys.timer(core).now();
                self.sink.record_sampled(
                    core,
                    now,
                    EventKind::Miss { level: MissLevel::L1D, kind, class },
                );
            }
        }

        if accessed && !hit {
            match self.mode {
                SchedulerMode::Steps => {
                    self.try_context_switch(core, tid);
                }
                m if m.is_slicc() => {
                    self.try_migrate(core, tid);
                }
                _ => {}
            }
        }
    }

    /// Post-ifetch observation: segment-boundary crossings, sampled
    /// misses stamped with their 3C class, and the stall the miss cost.
    /// Only called when the sink is live, so the fetch hot path pays one
    /// constant-false test per block transition when tracing is off.
    fn observe_fetch(
        &mut self,
        core: CoreId,
        tid: ThreadId,
        block: BlockAddr,
        hit: bool,
        fetch_start: Cycle,
    ) {
        let segment = self.spec.pool.segment_of_block(block);
        if segment != self.sys.core_site(core).last_segment {
            self.sys.core_site_mut(core).last_segment = segment;
            if let Some(segment) = segment {
                self.sink.record(
                    core,
                    fetch_start,
                    EventKind::SegmentBoundary { thread: tid.raw(), segment },
                );
            }
        }
        if !hit {
            let class = self.sys.last_i_miss_class().map(three_c);
            let kept = self.sink.record_sampled(
                core,
                fetch_start,
                EventKind::Miss { level: MissLevel::L1I, kind: MissKind::Fetch, class },
            );
            if kept {
                // The stall rides the miss's sampling decision so every
                // sampled miss carries its cost and no orphan stalls
                // clutter the trace.
                let now = self.sys.timer(core).now();
                let cycles = now.saturating_sub(fetch_start).min(u32::MAX as Cycle) as u32;
                self.sink.record(core, now, EventKind::Stall { cycles });
            }
        }
    }

    /// Pops the core's queue head into execution; an idle core with an
    /// empty queue steals the newest waiting thread from the most
    /// congested queue instead (§5.7 allows a centralized thread queue —
    /// stealing is the distributed equivalent and keeps cores busy).
    /// Returns false when there is nothing to run.
    fn start_next_thread(&mut self, core: CoreId) -> bool {
        let c = core.index();
        let tid = match self.queues[c].pop() {
            Some(t) => t,
            None => match self.steal_for(core) {
                Some(t) => t,
                None => return false,
            },
        };
        let t = tid.index();
        let ready = self.threads.ready_at[t];
        self.sys.timer_mut(core).idle_until(ready);
        self.threads.state[t] = ThreadState::Running;
        self.threads.cores_visited[t].insert(core);
        self.running[c] = Some(tid);
        {
            let site = self.sys.core_site_mut(core);
            site.last_iblock = None;
            site.last_segment = None;
        }
        self.refresh_core_sets(core);
        if self.sink.is_enabled() {
            let now = self.sys.timer(core).now();
            self.sink.record(core, now, EventKind::ThreadStart { thread: tid.raw() });
        }
        true
    }

    /// Figure-5 migration attempt for the running thread after an L1-I
    /// miss. Returns true if the thread left this core.
    fn try_migrate(&mut self, core: CoreId, tid: ThreadId) -> bool {
        let advice = self.sys.core_site_mut(core).agent.advice();
        let allowed = self.threads.allowed[tid.index()];
        let (target, matched) = match advice {
            MigrationAdvice::Stay => (None, false),
            MigrationAdvice::Migrate(mask) => {
                let candidates = (mask & allowed).without(core);
                let limit = self.migration_queue_limit;
                match self.pick_nearest(
                    core,
                    candidates
                        .iter()
                        .filter(|&t| !self.queue_full(t) && self.queues[t.index()].len() <= limit),
                ) {
                    Some(t) => (Some(t), true),
                    None => (self.pick_idle(core, allowed), false),
                }
            }
            MigrationAdvice::SeekIdle => (self.pick_idle(core, allowed), false),
        };
        let Some(target) = target else {
            if advice != MigrationAdvice::Stay {
                self.blocked_migrations += 1;
            }
            return false;
        };
        if matched {
            self.matched_migrations += 1;
        } else {
            self.idle_migrations += 1;
        }
        if self.record_events {
            self.events.push(MigrationEvent {
                thread: tid,
                from: core,
                to: target,
                at: self.sys.timer(core).now(),
                thread_instructions: self.threads.executed(tid.index()),
                matched,
            });
        }
        if self.sink.is_enabled() {
            let reason = if matched { MigrationReason::Matched } else { MigrationReason::Idle };
            let now = self.sys.timer(core).now();
            self.sink.record(
                core,
                now,
                EventKind::Migration { thread: tid.raw(), from: core, to: target, reason },
            );
        }
        self.migrate(core, target, tid);
        true
    }

    /// STEPS-style switch: at a chunk boundary, rotate the running
    /// thread to the back of its own core's queue so teammates re-run
    /// the chunk it just loaded (time-domain pipelining, §6).
    fn try_context_switch(&mut self, core: CoreId, tid: ThreadId) -> bool {
        let c = core.index();
        if !self.sys.core_site_mut(core).agent.chunk_boundary()
            || self.queues[c].is_empty()
            || self.queues[c].is_full()
        {
            return false;
        }
        self.sys.timer_mut(core).migration(self.steps_switch_cycles);
        let t = tid.index();
        self.threads.state[t] = ThreadState::Queued;
        self.threads.ready_at[t] = self.sys.timer(core).now();
        self.queues[c].push(tid);
        self.sys.core_site_mut(core).agent.on_thread_departed();
        self.running[c] = None;
        self.refresh_core_sets(core);
        self.context_switches += 1;
        if self.sink.is_enabled() {
            let now = self.sys.timer(core).now();
            self.sink.record(core, now, EventKind::ContextSwitch { thread: tid.raw() });
        }
        true
    }

    fn queue_full(&self, core: CoreId) -> bool {
        self.queues[core.index()].is_full()
    }

    fn pick_nearest(
        &self,
        from: CoreId,
        candidates: impl Iterator<Item = CoreId>,
    ) -> Option<CoreId> {
        candidates.min_by_key(|&c| (self.sys.noc().hops(from, c), c.index()))
    }

    /// An idle core (nothing running, empty queue) within `allowed`:
    /// least-recently-vacated first (its cache contents are the least
    /// likely to still serve anyone), then nearest.
    fn pick_idle(&self, from: CoreId, allowed: CoreMask) -> Option<CoreId> {
        (self.idle & allowed)
            .without(from)
            .iter()
            .min_by_key(|&c| (self.vacated_seq[c.index()], self.sys.noc().hops(from, c), c.index()))
    }

    fn mark_vacated(&mut self, core: CoreId) {
        self.vacate_clock += 1;
        self.vacated_seq[core.index()] = self.vacate_clock;
    }

    /// Steals the newest waiting thread from the most congested queue
    /// this core may serve (the thread's `allowed` mask must admit the
    /// thief). An idle core steals even a lone waiter: it may lose a
    /// little locality (it re-migrates on its first misses) but an idle
    /// core while threads wait costs a whole core-interval.
    fn steal_for(&mut self, thief: CoreId) -> Option<ThreadId> {
        if !self.mode.is_slicc() || !self.work_stealing {
            return None;
        }
        let victim = self
            .queued
            .without(thief)
            .iter()
            .filter(|&v| {
                self.running[v.index()].is_some()
                    && self.queues[v.index()]
                        .back()
                        .is_some_and(|&t| self.threads.allowed[t.index()].contains(thief))
            })
            .max_by_key(|&v| (self.queues[v.index()].len(), v.index()))?;
        // Take the back (newest) entry: the head may already be waiting
        // on the victim core's warmed state.
        if self.sink.is_enabled() {
            let now = self.sys.timer(thief).now();
            let victim_queue = self.queues[victim.index()].len() as u32;
            self.sink.record(thief, now, EventKind::Steal { victim, victim_queue });
        }
        let stolen = self.queues[victim.index()].pop_back();
        self.refresh_core_sets(victim);
        stolen
    }

    /// Executes the migration: drain at the source, context transfer to
    /// the target's local L2 bank, enqueue at the target.
    fn migrate(&mut self, from: CoreId, to: CoreId, tid: ThreadId) {
        debug_assert!(!self.queue_full(to), "caller checks target queue");
        let cfg = self.sys.config();
        let total = cfg.migration.cost(self.sys.noc().latency(from, to), cfg.l2_hit_latency);
        let drain = cfg.migration.drain_cycles.min(total);
        self.sys.timer_mut(from).migration(drain);
        let ready = self.sys.timer(from).now() + (total - drain);
        self.sys.record_migration_traffic(from, to);
        self.migrations += 1;

        let t = tid.index();
        self.threads.state[t] = ThreadState::Queued;
        self.threads.ready_at[t] = ready;
        self.queues[to.index()].push(tid);
        self.sys.core_site_mut(from).agent.on_thread_departed();
        self.running[from.index()] = None;
        {
            let site = self.sys.core_site_mut(from);
            site.last_iblock = None;
            site.last_segment = None;
        }
        // §4.2.1 + §5.7: the running thread is the queue's first entry, so
        // the "thread queue becomes empty" reset fires when the core is
        // left with no threads at all.
        if self.queues[from.index()].is_empty() {
            self.sys.core_site_mut(from).agent.on_queue_empty();
            self.mark_vacated(from);
        }
        self.refresh_core_sets(from);
        self.refresh_core_sets(to);

        if self.running[to.index()].is_none() && self.queues[to.index()].len() == 1 {
            let wake = self.sys.timer(to).now().max(ready);
            self.push_core(to, wake);
        } else if self.queues[to.index()].len() > 1 {
            // Surplus work exists: idle cores may steal it.
            self.wake_idle_cores(ready);
        }
    }

    /// Re-arms every fully idle core so it gets a chance to steal.
    fn wake_idle_cores(&mut self, ready: Cycle) {
        let idle = self.idle;
        for c in idle.iter() {
            let at = self.sys.timer(c).now().max(ready);
            self.push_core(c, at);
        }
    }

    fn complete_thread(&mut self, core: CoreId, tid: ThreadId) {
        let c = core.index();
        let t = tid.index();
        self.threads.state[t] = ThreadState::Done;
        self.threads.completed_at[t] = Some(self.sys.timer(core).now());
        if self.sink.is_enabled() {
            let now = self.sys.timer(core).now();
            self.sink.record(core, now, EventKind::ThreadComplete { thread: tid.raw() });
        }
        self.running[c] = None;
        self.refresh_core_sets(core);
        self.completed += 1;
        self.in_flight -= 1;
        // Other queues may hold surplus work this completion frees a
        // core for: re-arm idle cores so they can steal it.
        if !self.queued.is_empty() {
            self.wake_idle_cores(0);
        }
        if self.mode.uses_agents() {
            self.sys.core_site_mut(core).agent.on_thread_departed();
            if self.queues[c].is_empty() {
                self.sys.core_site_mut(core).agent.on_queue_empty();
                self.mark_vacated(core);
            }
        }
        if let Some(team_idx) = self.threads.team[t] {
            let team = &mut self.teams[team_idx];
            team.done_members += 1;
            if team.done_members == team.members.len() {
                team.active = false;
                for h in 0..2 {
                    if self.half_owner[h] == Some(team_idx) {
                        self.half_owner[h] = None;
                    }
                }
                // §4.3.2: when a team completes, reset all MCs, MTQs,
                // MSVs (STEPS groups are per-core: reset only theirs).
                // Other cores' resets ride the mailboxes and land at their
                // next step barrier.
                if self.mode == SchedulerMode::Steps {
                    self.sys.core_site_mut(core).agent.reset_all();
                } else {
                    for i in 0..self.sys.num_cores() {
                        self.sys.reset_agent(CoreId::new(i as u16), core);
                    }
                }
            }
        }
    }

    /// Enqueues a pending thread on `core` and wakes the core if needed.
    fn enqueue(&mut self, tid: ThreadId, core: CoreId) {
        debug_assert!(!self.queue_full(core));
        let t = tid.index();
        debug_assert_eq!(self.threads.state[t], ThreadState::Pending);
        self.threads.state[t] = ThreadState::Queued;
        self.queues[core.index()].push(tid);
        self.refresh_core_sets(core);
        self.in_flight += 1;
        let ready = self.threads.ready_at[t];
        if self.running[core.index()].is_none() && self.queues[core.index()].len() == 1 {
            let wake = self.sys.timer(core).now().max(ready);
            self.push_core(core, wake);
        } else if self.queues[core.index()].len() > 1 {
            // Surplus work exists: idle cores may steal it.
            self.wake_idle_cores(ready);
        }
    }

    /// Mode-specific dispatch of pending work.
    fn try_dispatch(&mut self) {
        match self.mode {
            SchedulerMode::Baseline => self.dispatch_baseline(),
            SchedulerMode::Slicc => self.dispatch_oblivious(),
            SchedulerMode::SliccSw | SchedulerMode::SliccPp => self.dispatch_teams(),
            SchedulerMode::Steps => self.dispatch_steps(),
        }
    }

    /// Feeds every STEPS group's core from its member list.
    fn dispatch_steps(&mut self) {
        for team_idx in 0..self.teams.len() {
            loop {
                let team = &self.teams[team_idx];
                if team.next_member >= team.members.len()
                    || self.in_flight >= self.pool_limit
                    || self.queue_full(team.lead)
                {
                    break;
                }
                let tid = team.members[team.next_member];
                let lead = team.lead;
                self.teams[team_idx].next_member += 1;
                self.enqueue(tid, lead);
            }
        }
    }

    fn dispatch_baseline(&mut self) {
        while self.in_flight < self.pool_limit && self.next_pending < self.threads.len() {
            let Some(core) = self.pick_idle_global() else {
                return;
            };
            let tid = ThreadId::new(self.next_pending as u32);
            self.next_pending += 1;
            self.enqueue(tid, core);
        }
    }

    fn pick_idle_global(&self) -> Option<CoreId> {
        (self.idle & self.exec_cores).iter().next()
    }

    fn dispatch_oblivious(&mut self) {
        while self.in_flight < self.pool_limit && self.next_pending < self.threads.len() {
            // Naïve load balancing: least congested core (§4.1).
            let Some(core) = self
                .exec_cores
                .iter()
                .filter(|&c| !self.queues[c.index()].is_full())
                .min_by_key(|&c| {
                    self.queues[c.index()].len() + usize::from(self.running[c.index()].is_some())
                })
            else {
                return;
            };
            let tid = ThreadId::new(self.next_pending as u32);
            self.next_pending += 1;
            self.enqueue(tid, core);
        }
    }

    fn dispatch_teams(&mut self) {
        self.activate_teams();
        // Feed active teams from their lead cores.
        for team_idx in 0..self.teams.len() {
            if !self.teams[team_idx].active {
                continue;
            }
            loop {
                let team = &self.teams[team_idx];
                if team.next_member >= team.members.len()
                    || self.in_flight >= self.pool_limit
                    || self.queue_full(team.lead)
                {
                    break;
                }
                let tid = team.members[team.next_member];
                let (lead, cores) = (team.lead, team.cores);
                self.teams[team_idx].next_member += 1;
                self.threads.allowed[tid.index()] = cores;
                self.enqueue(tid, lead);
            }
        }
        // Strays fill idle cores (§4.3.2: "scheduled, individually, to
        // idle cores, or in parallel with a medium team").
        while self.stray_cursor < self.strays.len() && self.in_flight < self.pool_limit {
            let Some(core) = self.pick_idle_global() else {
                return;
            };
            let tid = self.strays[self.stray_cursor];
            self.stray_cursor += 1;
            self.threads.allowed[tid.index()] = self.exec_cores;
            self.enqueue(tid, core);
        }
    }

    /// Whether a half is free for a new team: unowned, or its owner has
    /// dispatched every member ("cores are time-multiplexed among teams",
    /// §4.3.2 — a draining team's tail overlaps the next team's ramp).
    fn half_free(&self, h: usize) -> bool {
        match self.half_owner[h] {
            None => true,
            Some(owner) => {
                let t = &self.teams[owner];
                t.next_member >= t.members.len()
            }
        }
    }

    /// Activates the oldest waiting teams onto free halves (large teams
    /// need both halves; mediums take one).
    fn activate_teams(&mut self) {
        while self.next_team < self.teams.len() {
            let kind = self.teams[self.next_team].kind;
            match kind {
                TeamKind::Large => {
                    if !self.half_free(0) || !self.half_free(1) {
                        return;
                    }
                    let team = &mut self.teams[self.next_team];
                    team.cores = self.halves[0] | self.halves[1];
                    team.lead = team.cores.iter().next().expect("exec cores are non-empty");
                    team.active = true;
                    self.half_owner = [Some(self.next_team), Some(self.next_team)];
                    self.next_team += 1;
                }
                TeamKind::Medium => {
                    let Some(h) = (0..2).find(|&h| self.half_free(h)) else {
                        return;
                    };
                    let team = &mut self.teams[self.next_team];
                    team.cores = self.halves[h];
                    team.lead = team.cores.iter().next().expect("halves are non-empty");
                    team.active = true;
                    self.half_owner[h] = Some(self.next_team);
                    self.next_team += 1;
                }
                TeamKind::Stray => unreachable!("strays are filtered at formation"),
            }
        }
    }

    /// Finalizes the run into metrics.
    pub fn into_metrics(self) -> RunMetrics {
        let mut out = RunMetrics {
            workload: self.spec.name.clone(),
            mode: self.mode.name().to_owned(),
            migrations: self.migrations,
            context_switches: self.context_switches,
            matched_migrations: self.matched_migrations,
            idle_migrations: self.idle_migrations,
            blocked_migrations: self.blocked_migrations,
            completed_threads: self.completed as u64,
            ..Default::default()
        };
        self.sys.collect_metrics(&mut out);
        let n_threads = self.threads.len().max(1) as f64;
        out.mean_cores_per_thread =
            self.threads.cores_visited.iter().map(|v| v.len() as f64).sum::<f64>() / n_threads;
        out.stray_fraction = self.strays.len() as f64 / n_threads;
        // Transaction latency: arrival to completion.
        let mut latencies: Vec<Cycle> = self
            .threads
            .completed_at
            .iter()
            .zip(&self.threads.arrived_at)
            .filter_map(|(done, &arrived)| done.map(|d| d.saturating_sub(arrived)))
            .collect();
        latencies.sort_unstable();
        if !latencies.is_empty() {
            out.mean_txn_latency =
                latencies.iter().sum::<Cycle>() as f64 / latencies.len() as f64;
            out.p95_txn_latency = latencies[(latencies.len() * 95 / 100).min(latencies.len() - 1)];
        }
        out
    }

    /// Finalizes an observed run into metrics plus the observation
    /// artifacts (the event timeline and the interval series).
    pub fn into_outcome(mut self) -> (RunMetrics, Observation) {
        let obs = self.take_observation();
        (self.into_metrics(), obs)
    }

    /// Drains the observability state: flushes the final partial epoch
    /// (which is what makes `series.totals()` reconcile exactly with the
    /// run's cumulative counters) and merges the per-core event rings
    /// into one timeline.
    fn take_observation(&mut self) -> Observation {
        let series = self.sampler.take().map(|s| {
            let mut cum = self.sys.obs_counters();
            cum.migrations = self.migrations;
            s.finish(self.sys.makespan(), cum)
        });
        Observation {
            dropped_events: self.sink.dropped(),
            events: self.sink.drain(),
            series,
        }
    }

    /// The engine's system (tests, diagnostics).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Threads completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Enables migration-event recording (see [`Engine::events`]).
    pub fn record_events(&mut self) {
        self.record_events = true;
    }

    /// The recorded migration events (empty unless
    /// [`Engine::record_events`] was called before [`Engine::execute`]).
    pub fn events(&self) -> &[MigrationEvent] {
        &self.events
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }
}
