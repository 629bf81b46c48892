//! Parallel experiment runner: typed run descriptors, a std::thread job
//! pool, a bounded byte-weighted run cache, single-flight coalescing,
//! admission control, and per-point fault isolation.
//!
//! Every simulation point is an independent, deterministic, single-threaded
//! job, so a figure's point set can fan out across host cores. This module
//! provides the pieces:
//!
//! - [`RunRequest`] — the typed experiment-point descriptor (workload,
//!   scale, config; the mode lives in the config). It is simultaneously
//!   the runner's job type, the run-cache key (via
//!   [`RunRequest::stable_key`]), and the CLI/figures entry point.
//! - [`RunResult`] — the metrics plus wall-time and
//!   simulated-instructions-per-second observability counters.
//! - [`Runner`] — the one place that decides how a point is served. A
//!   batch ([`Runner::run_all`]) fans out over `jobs` scoped worker
//!   threads and returns results in submission order; a submission
//!   ([`Runner::submit`]) resolves one request under an admission policy
//!   (cache → flight → slot → bounded queue → shed). Both paths share
//!   one lock over the run cache, the in-flight simulations and the
//!   admission counts, so a point is simulated once however many callers
//!   ask for it, on either path. The memo is a
//!   [`crate::service::BoundedResultCache`]: byte-weighted, LRU-evicting,
//!   and capped ([`Runner::set_cache_bytes`]) so a long-lived process
//!   cannot grow without limit.
//!
//! Failures are contained per point: each worker runs its simulation
//! under `catch_unwind`, so a panicking or livelocking point becomes a
//! typed [`RunError`] in that point's slot of the batch while every other
//! point completes normally. A failed point runs once and is never
//! cached, so a later batch that names it simulates it again.
//!
//! The pool is plain `std::thread::scope` with an atomic claim counter —
//! the workspace builds with no external dependencies (DESIGN.md §5),
//! and a work queue of whole simulations needs nothing fancier.
//!
//! # Example
//!
//! ```no_run
//! use slicc_sim::{RunRequest, Runner, SchedulerMode, SimConfig};
//! use slicc_trace::{TraceScale, Workload};
//!
//! let runner = Runner::with_default_parallelism();
//! let reqs: Vec<RunRequest> = [SchedulerMode::Baseline, SchedulerMode::Slicc]
//!     .iter()
//!     .map(|&m| {
//!         RunRequest::new(Workload::TpcC1, TraceScale::small(), SimConfig::paper_baseline())
//!             .with_mode(m)
//!     })
//!     .collect();
//! let results = runner.run_all(&reqs);
//! let base = results[0].as_ref().expect("baseline point completed");
//! let slicc = results[1].as_ref().expect("SLICC point completed");
//! let speedup = base.metrics.cycles as f64 / slicc.metrics.cycles as f64;
//! println!("SLICC speedup: {speedup:.2}x over {:.0} sim-insn/s", slicc.sim_ips);
//! ```

use crate::config::{DeadlineConfig, InjectedFault, SchedulerMode, SimConfig};
use crate::engine::RunControl;
use crate::error::{PointSummary, RunError, SimError};
use crate::metrics::RunMetrics;
use crate::service::{BoundedResultCache, PressureSnapshot, ServiceConfig, DEFAULT_CACHE_BYTES};
use crate::session::{RunOutcome, RunSession};
use slicc_common::{lock_unpoisoned, CancelToken, StableHash, StableHasher};
use slicc_obs::{ObsConfig, Observation, ProgressEvent, Reporter, WarningsOnlyReporter};
use slicc_trace::{TraceScale, Workload, WorkloadSpec};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A typed experiment point: which workload to run, at what scale, on what
/// machine. Equal requests describe byte-identical simulations, which is
/// what makes the request usable as the run-cache key.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRequest {
    /// The benchmark workload.
    pub workload: Workload,
    /// Trace scale (task count, segment size, trace seed).
    pub scale: TraceScale,
    /// Task-count override applied on top of `scale`, if any.
    pub tasks: Option<u32>,
    /// Trace-seed override applied on top of `scale`, if any.
    pub seed: Option<u64>,
    /// The machine and execution mode.
    pub config: SimConfig,
    /// What to observe while simulating (events, interval series).
    /// Deliberately excluded from [`RunRequest::stable_key`]: observation
    /// never changes simulated results, so an observed run and its
    /// unobserved twin share a cache slot (the cached copy may then carry
    /// `obs: None` — callers wanting artifacts should run fresh).
    pub obs: ObsConfig,
    /// Wall-clock budget for this point. Also excluded from
    /// [`RunRequest::stable_key`], for the same shape of reason: a
    /// deadline never changes the metrics of a run it does not abort, and
    /// an aborted run is an error, which is never cached — so a later
    /// batch may change its deadline and still reuse every completed
    /// point.
    pub deadline: DeadlineConfig,
}

impl RunRequest {
    /// Describes `workload` at `scale` on the machine `config`.
    pub fn new(workload: Workload, scale: TraceScale, config: SimConfig) -> Self {
        RunRequest {
            workload,
            scale,
            tasks: None,
            seed: None,
            config,
            obs: ObsConfig::disabled(),
            deadline: DeadlineConfig::disabled(),
        }
    }

    /// Returns a copy observing per `obs` (see [`ObsConfig`]).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Returns a copy bounded by `deadline` (see [`DeadlineConfig`]).
    pub fn with_deadline(mut self, deadline: DeadlineConfig) -> Self {
        self.deadline = deadline;
        self
    }

    /// Returns a copy running under `mode`.
    pub fn with_mode(mut self, mode: SchedulerMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Returns a copy with the task count overridden.
    pub fn with_tasks(mut self, tasks: u32) -> Self {
        self.tasks = Some(tasks);
        self
    }

    /// Returns a copy with the trace seed overridden.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The execution mode (stored in the config).
    pub fn mode(&self) -> SchedulerMode {
        self.config.mode
    }

    /// The trace scale with the `tasks`/`seed` overrides applied.
    pub fn effective_scale(&self) -> TraceScale {
        let mut scale = self.scale;
        if let Some(tasks) = self.tasks {
            scale.tasks = tasks;
        }
        if let Some(seed) = self.seed {
            scale.seed = seed;
        }
        scale
    }

    /// Generates the workload specification this request describes.
    pub fn spec(&self) -> WorkloadSpec {
        self.workload.spec(self.effective_scale())
    }

    /// The spec-memo key: a stable hash of exactly the inputs that shape
    /// the materialized trace — workload and effective scale. Narrower
    /// than [`RunRequest::stable_key`] on purpose: requests differing
    /// only in machine config (e.g. the five scheduler modes of one
    /// figure column) share one [`WorkloadSpec`].
    pub fn spec_key(&self) -> u64 {
        let mut h = StableHasher::new();
        self.workload.stable_hash(&mut h);
        self.effective_scale().stable_hash(&mut h);
        h.finish()
    }

    /// The run-cache key: a stable hash of everything that can influence
    /// the outcome — including the watchdog fuel budget and any injected
    /// fault, so an aborted point never aliases its healthy twin in the
    /// cache. Identical on every host and in every process.
    pub fn stable_key(&self) -> u64 {
        let mut h = StableHasher::new();
        self.workload.stable_hash(&mut h);
        self.effective_scale().stable_hash(&mut h);
        self.config.stable_hash(&mut h);
        h.finish()
    }

    /// Human label for progress lines: enough to recognize the point
    /// without the full reproduction key. Besides the workload, scheduler
    /// mode, tasks and seed it names the machine variant when there is
    /// one — a next-line degree, the real PIF prefetcher, or an L1 size or
    /// L1-I latency off the paper baseline — so Figure 11's Next-Line and
    /// PIF columns and Figure 1's cache sweeps do not all read `[Base]`.
    pub fn label(&self) -> String {
        let cfg = &self.config;
        let paper = SimConfig::paper_baseline();
        let mut variant = cfg.mode.name().to_string();
        if let Some(degree) = cfg.next_line_prefetch {
            variant.push_str(&format!(" next-line={degree}"));
        }
        if cfg.pif_prefetch.is_some() {
            variant.push_str(" pif");
        }
        if cfg.l1i_size != paper.l1i_size || cfg.l1i_latency_override.is_some() {
            variant.push_str(&format!(" l1i={}KiB/{}cyc", cfg.l1i_size / 1024, cfg.l1i_latency()));
        }
        if cfg.l1d_size != paper.l1d_size {
            variant.push_str(&format!(" l1d={}KiB", cfg.l1d_size / 1024));
        }
        let scale = self.effective_scale();
        format!("{} [{variant}] tasks={} seed={}", self.workload.name(), scale.tasks, scale.seed)
    }

    /// Runs this point now, on the calling thread, bypassing any cache.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`]; [`RunRequest::try_execute`] reports
    /// those as typed errors instead.
    pub fn execute(&self) -> RunResult {
        self.try_execute().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs this point now, on the calling thread, bypassing any cache,
    /// reporting simulation failures as typed errors. The request's own
    /// [`DeadlineConfig`] applies, measured from the start of the run;
    /// nothing else can interrupt it.
    pub fn try_execute(&self) -> Result<RunResult, SimError> {
        let spec = self.spec();
        let started = Instant::now();
        let ctrl = RunControl {
            cancel: CancelToken::new(),
            deadline: self.deadline.budget().map(|budget| started + budget),
        };
        let outcome =
            RunSession::new(&spec, &self.config)?.observe(self.obs).control(ctrl).run()?;
        Ok(RunResult::of(outcome, started))
    }
}

/// The outcome of one simulation point.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The simulation's metrics.
    pub metrics: RunMetrics,
    /// [`RunMetrics::digest`] of `metrics` as simulated, computed once
    /// when the run finishes so every later reader (each served
    /// `RESULT`) skips re-hashing the rendering.
    pub digest: u64,
    /// Wall-clock time the simulation took (zero-cost when served from the
    /// run cache; this is the original simulation's time).
    pub wall: Duration,
    /// Simulated instructions per wall-clock second — the runner's
    /// throughput observability counter.
    pub sim_ips: f64,
    /// Whether this result was served from the run cache (or deduplicated
    /// within a batch) rather than freshly simulated.
    pub from_cache: bool,
    /// Observation artifacts (event trace, interval series), when the
    /// request asked for any ([`RunRequest::obs`]). `None` for unobserved
    /// runs.
    pub obs: Option<Observation>,
}

impl RunResult {
    /// Wraps a freshly-run session outcome with the runner-level
    /// bookkeeping: wall time since `started`, derived sim-ips, the
    /// metrics digest, and the fresh-run cache flag.
    fn of(outcome: RunOutcome, started: Instant) -> RunResult {
        let wall = started.elapsed();
        let sim_ips = if wall.as_secs_f64() > 0.0 {
            outcome.metrics.instructions as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        RunResult {
            digest: outcome.metrics.digest(),
            metrics: outcome.metrics,
            wall,
            sim_ips,
            from_cache: false,
            obs: outcome.obs,
        }
    }
}

/// Aggregate observability counters for a [`Runner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Requests served from a result that was already memoized when the
    /// request arrived.
    /// Duplicates that piggy-back on an in-flight simulation are counted
    /// separately as [`RunnerStats::coalesced_hits`].
    pub cache_hits: u64,
    /// Requests served by attaching to a simulation that was already in
    /// flight: intra-batch duplicates, and requests — submitted or
    /// batched — coalesced onto another caller's flight. Together with
    /// [`RunnerStats::cache_hits`] these are the requests that cost
    /// nothing; the split tells memoization apart from stampede
    /// suppression.
    pub coalesced_hits: u64,
    /// Requests that required a fresh simulation attempt (successful or
    /// not).
    pub cache_misses: u64,
    /// Entries evicted from the bounded run cache to stay inside its
    /// byte budget (inserts too heavy to ever fit count once each).
    pub cache_evictions: u64,
    /// Bytes currently resident in the bounded run cache.
    pub cache_bytes: u64,
    /// Submissions rejected by admission control with
    /// [`RunError::Overloaded`] (process total, never reset).
    pub shed_points: u64,
    /// Fresh simulation attempts that failed with a [`RunError`]. Failed
    /// points are never cached, so they are re-attempted by every batch
    /// that names them.
    pub failed_points: u64,
    /// [`WorkloadSpec`]s materialized. With the spec memo, a five-mode
    /// figure column costs one build, not five; a spec dropped from the
    /// full memo and asked for again is built again.
    pub spec_builds: u64,
    /// Total instructions simulated by fresh runs.
    pub simulated_instructions: u64,
    /// Total CPU time spent inside fresh simulations (sums across worker
    /// threads, so it can exceed wall-clock time).
    pub busy_nanos: u64,
}

impl RunnerStats {
    /// Mean simulated instructions per busy second across all fresh runs.
    pub fn sim_ips(&self) -> f64 {
        let secs = self.busy_nanos as f64 / 1e9;
        if secs > 0.0 {
            self.simulated_instructions as f64 / secs
        } else {
            0.0
        }
    }
}

/// Specs the memo keeps at most. A figure needs a handful at a time (a
/// column's modes share one), but a server sees a new spec for every
/// fresh seed, and each spec carries its code layout and visit orders;
/// past the cap the oldest spec is dropped (an engine still running on
/// it keeps its own `Arc`) and rebuilt, identically, if asked for again.
const SPEC_MEMO_CAP: usize = 16;

/// The spec memo: specs by [`RunRequest::spec_key`], and their keys in
/// the order they were built, oldest first.
#[derive(Default)]
struct SpecMemo {
    specs: HashMap<u64, Arc<WorkloadSpec>>,
    order: VecDeque<u64>,
}

/// A memoizing job pool for simulation points, and the one place that
/// decides how a point is served.
///
/// Two entry points share one resolution state — the bounded run cache,
/// the in-flight simulations and the admission counts, all behind one
/// lock — so neither path can miss the other's work:
///
/// - [`Runner::run_all`] fans a batch out over `jobs` scoped workers.
///   Results come back in submission order regardless of completion
///   order, so output is deterministic for any `jobs` value. A batch is
///   never shed.
/// - [`Runner::submit`] serves one interactive request under the
///   admission policy ([`crate::ServiceConfig`]): cache → flight → slot
///   → bounded queue → shed.
///
/// A point is simulated at most once however it is asked for: completed
/// points land in the cache keyed by [`RunRequest::stable_key`], and a
/// request for a point already in flight attaches to that flight.
///
/// Faults are isolated per point: a panic or watchdog abort in one
/// simulation yields a [`RunError`] for that point only. All shared state
/// is accessed with poison recovery, so a panicked worker never wedges
/// [`Runner::cached_points`] or [`Runner::stats`].
pub struct Runner {
    jobs: usize,
    /// The run cache, the in-flight simulations and the admission
    /// counts: state that changes together, so it sits behind one lock.
    state: Mutex<RunState>,
    /// Signalled when an execution slot frees or a flight registers or
    /// ends, so queued submissions re-evaluate their options.
    slots: Condvar,
    /// Materialized traces keyed by [`RunRequest::spec_key`]: every mode
    /// variant of a (workload, scale) point shares one spec build.
    specs: Mutex<SpecMemo>,
    /// Telemetry sink for progress events. Defaults to
    /// [`WarningsOnlyReporter`] so embedding code keeps a quiet stderr
    /// while degradation warnings still surface; the binaries swap in the
    /// user's `--progress` choice via [`Runner::set_reporter`].
    reporter: Mutex<Arc<dyn Reporter>>,
    /// Cooperative cancellation shared with every in-flight engine. The
    /// binaries hand it to [`slicc_common::install_sigint_cancel`] so the
    /// first Ctrl-C drains the pool gracefully.
    cancel: CancelToken,
    /// Deadline applied to requests that do not carry their own
    /// [`RunRequest::deadline`]; the per-request value wins.
    default_deadline: Mutex<Option<Duration>>,
    hits: AtomicU64,
    coalesced: AtomicU64,
    misses: AtomicU64,
    failures: AtomicU64,
    shed: AtomicU64,
    spec_builds: AtomicU64,
    simulated_instructions: AtomicU64,
    busy_nanos: AtomicU64,
}

/// Everything that decides how a request is served, guarded together so
/// the cache probe and the flight registration happen in one critical
/// section.
struct RunState {
    /// The memoized results: byte-weighted, LRU-evicting, bounded by
    /// [`Runner::set_cache_bytes`].
    cache: BoundedResultCache,
    /// Simulations in flight by stable key, owned by a submission or a
    /// batch; any other request for the key attaches here.
    flights: HashMap<u64, Arc<Flight>>,
    /// Submissions holding an execution slot.
    executing: usize,
    /// Submissions waiting for a slot.
    queued: usize,
    /// The admission policy [`Runner::submit`] applies.
    admission: ServiceConfig,
}

/// How one distinct key of a batch is served.
enum Source {
    /// Resident when the batch arrived; a clone, so the batch's own
    /// inserts can never evict a result it still owes the caller.
    Pinned(Box<RunResult>),
    /// Already in flight for another caller.
    Attached(Arc<Flight>),
    /// Simulated by this batch: an index into its owned flights. The
    /// first occurrence is served fresh, later ones are repeats.
    Owned { index: usize, served: bool },
}

impl Runner {
    /// A runner with `jobs` worker threads (clamped to at least 1).
    /// Submissions are admitted `jobs` at a time with a queue of twice
    /// that depth until a [`crate::SimService`] installs its own
    /// [`crate::ServiceConfig`].
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        Runner {
            jobs,
            state: Mutex::new(RunState {
                cache: BoundedResultCache::new(DEFAULT_CACHE_BYTES),
                flights: HashMap::new(),
                executing: 0,
                queued: 0,
                admission: ServiceConfig { max_inflight: jobs, queue_limit: 2 * jobs },
            }),
            slots: Condvar::new(),
            specs: Mutex::new(SpecMemo::default()),
            reporter: Mutex::new(Arc::new(WarningsOnlyReporter::stderr())),
            cancel: CancelToken::new(),
            default_deadline: Mutex::new(None),
            hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            spec_builds: AtomicU64::new(0),
            simulated_instructions: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// A runner sized to the host ([`Runner::default_parallelism`]).
    pub fn with_default_parallelism() -> Self {
        Runner::new(Runner::default_parallelism())
    }

    /// The host's available parallelism; 1 if it cannot be determined.
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// The worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Replaces the progress reporter (see [`slicc_obs::ProgressKind`]).
    pub fn set_reporter(&self, reporter: Arc<dyn Reporter>) {
        *lock_unpoisoned(&self.reporter) = reporter;
    }

    /// The current progress reporter.
    pub fn reporter(&self) -> Arc<dyn Reporter> {
        Arc::clone(&lock_unpoisoned(&self.reporter))
    }

    /// The runner's cancellation token. Cancelling it makes every
    /// in-flight simulation abort with [`SimError::Cancelled`] (wrapped in
    /// [`RunError::Sim`]) at its next control check, and every
    /// not-yet-started point fail fast without simulating. Completed
    /// points keep their cached results.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Sets the wall-clock deadline applied to every request that does
    /// not carry its own [`RunRequest::deadline`]. `None` disables it.
    /// The budget is per point, measured from the point's start.
    pub fn set_default_deadline(&self, budget: Option<Duration>) {
        *lock_unpoisoned(&self.default_deadline) = budget;
    }

    /// The default per-point deadline budget, if any.
    pub fn default_deadline(&self) -> Option<Duration> {
        *lock_unpoisoned(&self.default_deadline)
    }

    /// Rebudgets the run cache to `max_bytes` (the `--cache-bytes` flag),
    /// evicting least-recently-used entries if the resident set no longer
    /// fits. Governance only: changes what stays memoized, never what any
    /// simulation computes — the budget is not part of
    /// [`RunRequest::stable_key`].
    pub fn set_cache_bytes(&self, max_bytes: u64) {
        lock_unpoisoned(&self.state).cache.set_max_bytes(max_bytes);
    }

    /// The run cache's byte budget (default
    /// [`crate::service::DEFAULT_CACHE_BYTES`]).
    pub fn cache_budget(&self) -> u64 {
        lock_unpoisoned(&self.state).cache.max_bytes()
    }

    /// Installs the admission policy of [`Runner::submit`]: at most
    /// `max_inflight` fresh submissions simulate at once (clamped to at
    /// least 1) and at most `queue_limit` more wait for a slot; arrivals
    /// beyond that are shed. Batches ([`Runner::run_all`]) take no slot
    /// and are never shed.
    pub(crate) fn set_admission(&self, cfg: ServiceConfig) {
        let cfg = ServiceConfig { max_inflight: cfg.max_inflight.max(1), ..cfg };
        lock_unpoisoned(&self.state).admission = cfg;
        self.slots.notify_all();
    }

    /// How long a shed client should wait before resubmitting: the mean
    /// busy time of completed fresh points (clamped to 10 ms..10 s), or
    /// 50 ms before any point has completed. A hint, not a reservation —
    /// the runner makes no admission promise to returning clients.
    pub fn retry_after_hint(&self) -> Duration {
        let busy = self.busy_nanos.load(Ordering::Relaxed);
        let completed = self
            .misses
            .load(Ordering::Relaxed)
            .saturating_sub(self.failures.load(Ordering::Relaxed));
        if busy == 0 || completed == 0 {
            return Duration::from_millis(50);
        }
        Duration::from_nanos(busy / completed)
            .clamp(Duration::from_millis(10), Duration::from_secs(10))
    }

    /// The runner's current pressure: queued submissions, simulations in
    /// flight (submitted or batched), cache residency, and shed totals.
    pub fn pressure(&self) -> PressureSnapshot {
        let st = lock_unpoisoned(&self.state);
        PressureSnapshot {
            queue_depth: st.queued,
            inflight: st.flights.len(),
            cache_bytes: st.cache.bytes(),
            cache_budget: st.cache.max_bytes(),
            cache_entries: st.cache.len(),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }

    /// Runs one point as a one-point batch, serving it from the run cache
    /// when possible. Never shed.
    pub fn run(&self, req: &RunRequest) -> Result<RunResult, RunError> {
        self.run_all(std::slice::from_ref(req)).pop().expect("one request yields one result")
    }

    /// Submits one request, blocking until it resolves (served, simulated,
    /// failed, or shed). The resolution order:
    ///
    /// 1. **Memoized** — the run cache has the result: served at once, no
    ///    slot consumed (`cache_hits` in [`RunnerStats`]).
    /// 2. **Coalesced** — the point is already in flight, submitted or
    ///    batched: attach to the flight and wait (`coalesced_hits`).
    /// 3. **Admitted** — a free execution slot: simulate on the calling
    ///    thread and bank the result in the cache.
    /// 4. **Queued** — all slots busy but the wait queue has room: block
    ///    until a slot frees or the point takes flight, then start over.
    /// 5. **Shed** — slots and queue both full: fail fast with
    ///    [`RunError::Overloaded`] and a retry-after hint
    ///    ([`Runner::retry_after_hint`]). Nothing simulates.
    ///
    /// Steps 1–3 happen in one critical section, so there is no window
    /// in which a concurrent request for the same key can start a second
    /// simulation.
    pub fn submit(&self, req: &RunRequest) -> Result<RunResult, RunError> {
        let key = req.stable_key();
        loop {
            let mut st = lock_unpoisoned(&self.state);
            if let Some(result) = st.cache.get(key) {
                let mut hit = result.clone();
                drop(st);
                self.hits.fetch_add(1, Ordering::Relaxed);
                hit.from_cache = true;
                return Ok(hit);
            }
            if let Some(flight) = st.flights.get(&key).map(Arc::clone) {
                drop(st);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return flight.wait();
            }

            let ServiceConfig { max_inflight, queue_limit } = st.admission;
            if st.executing < max_inflight {
                st.executing += 1;
                let flight = Arc::new(Flight::new());
                st.flights.insert(key, Arc::clone(&flight));
                drop(st);
                self.slots.notify_all();
                // The guard owns the slot and the flight registration:
                // even if this thread unwinds, waiters get a typed
                // `RunError::Lost` and the slot is returned.
                let point = PointSummary::of(req);
                let guard = FlightGuard { runner: self, key, flight, point, slot: true };
                let reporter = self.reporter();
                reporter.report(ProgressEvent::BatchStarted { points: 1, fresh: 1 });
                let outcome = self.fly(req, 1, 1, &*reporter);
                guard.flight.fill(&outcome);
                self.bank([(key, &outcome)]);
                drop(guard);
                reporter.report(ProgressEvent::BatchFinished {
                    fresh: 1,
                    cached: 0,
                    failed: usize::from(outcome.is_err()),
                });
                reporter.report(self.pressure().event());
                return outcome;
            }

            // No free slot: queue if there is room, shed otherwise.
            if st.queued >= queue_limit {
                drop(st);
                self.shed.fetch_add(1, Ordering::Relaxed);
                self.reporter().report(self.pressure().event());
                return Err(RunError::Overloaded {
                    point: PointSummary::of(req),
                    retry_after: self.retry_after_hint(),
                    inflight: max_inflight,
                    limit: queue_limit,
                });
            }
            st.queued += 1;
            // The guard owns the queue position; it is released on every
            // exit from the wait, unwinding included.
            let queue_guard = QueueGuard { runner: self };
            let st = wait_unpoisoned(&self.slots, st, |s| {
                s.executing >= s.admission.max_inflight && !s.flights.contains_key(&key)
            });
            // Release the state lock *before* the guard re-takes it.
            drop(st);
            drop(queue_guard);
        }
    }

    /// Runs a batch, fanning its fresh points across the worker pool.
    ///
    /// Returns one result per request, in submission order. Duplicate
    /// points — within the batch, across earlier calls, or in flight for
    /// a concurrent caller — simulate once; their repeats are marked
    /// [`RunResult::from_cache`]. A batch takes no admission slot and is
    /// never shed.
    ///
    /// Failures are per point: a panicking, livelocking, or misconfigured
    /// point yields a [`RunError`] in its slot while the rest of the
    /// batch completes. Failed points are not cached, so a later batch
    /// attempts them again.
    pub fn run_all(&self, reqs: &[RunRequest]) -> Vec<Result<RunResult, RunError>> {
        let keys: Vec<u64> = reqs.iter().map(RunRequest::stable_key).collect();

        // One pass under the state lock resolves every distinct key, in
        // first-occurrence order (stable across runs, so scheduling is
        // reproducible): pin a resident result, attach to a flight
        // already in the air, or register a flight this batch owns.
        let mut sources: HashMap<u64, Source> = HashMap::new();
        let mut owned: Vec<(FlightGuard<'_>, &RunRequest)> = Vec::new();
        {
            let mut st = lock_unpoisoned(&self.state);
            for (&key, req) in keys.iter().zip(reqs) {
                let Entry::Vacant(slot) = sources.entry(key) else { continue };
                if let Some(result) = st.cache.get(key) {
                    slot.insert(Source::Pinned(Box::new(result.clone())));
                } else if let Some(flight) = st.flights.get(&key) {
                    slot.insert(Source::Attached(Arc::clone(flight)));
                } else {
                    let flight = Arc::new(Flight::new());
                    st.flights.insert(key, Arc::clone(&flight));
                    slot.insert(Source::Owned { index: owned.len(), served: false });
                    let point = PointSummary::of(req);
                    let guard = FlightGuard { runner: self, key, flight, point, slot: false };
                    owned.push((guard, req));
                }
            }
        }
        if !owned.is_empty() {
            self.slots.notify_all();
        }

        let reporter = self.reporter();
        reporter.report(ProgressEvent::BatchStarted { points: reqs.len(), fresh: owned.len() });
        self.fly_all(&owned, &*reporter);

        // Bank in submission order, whichever worker finished first, so
        // cache residency and eviction order are reproducible; only then
        // unregister the flights.
        let outcomes: Vec<Result<RunResult, RunError>> = owned
            .iter()
            .map(|(guard, _)| {
                let lost = || Err(RunError::Lost { point: guard.point.clone() });
                guard.flight.outcome().unwrap_or_else(lost)
            })
            .collect();
        self.bank(owned.iter().zip(&outcomes).map(|((guard, _), outcome)| (guard.key, outcome)));
        let fresh = owned.len();
        drop(owned);

        // Assemble results in submission order. The first occurrence of
        // an owned point reports from_cache = false; occurrences of
        // pinned results are cache hits, while repeats of owned points
        // and attached flights are coalesced hits — the split tells
        // memoization apart from stampede suppression. Failed points are
        // reported (cloned for duplicates) and counted neither as hits
        // nor as extra misses.
        let mut failed: Vec<u64> = Vec::new();
        let mut cached_served = 0usize;
        let results: Vec<Result<RunResult, RunError>> = keys
            .iter()
            .zip(reqs)
            .map(|(&key, req)| {
                // The counter a served occurrence bumps; none for the
                // fresh one.
                let source = sources.get_mut(&key).expect("every key was resolved");
                let (outcome, counter) = match source {
                    Source::Pinned(result) => (Ok(RunResult::clone(result)), Some(&self.hits)),
                    Source::Attached(flight) => (flight.wait(), Some(&self.coalesced)),
                    Source::Owned { index, served } => {
                        let repeat = std::mem::replace(served, true);
                        (outcomes[*index].clone(), repeat.then_some(&self.coalesced))
                    }
                };
                match outcome {
                    Ok(mut result) => {
                        result.from_cache = counter.is_some();
                        if let Some(counter) = counter {
                            counter.fetch_add(1, Ordering::Relaxed);
                            cached_served += 1;
                            reporter.report(ProgressEvent::PointCached { label: req.label() });
                        }
                        Ok(result)
                    }
                    Err(error) => {
                        if !failed.contains(&key) {
                            failed.push(key);
                        }
                        Err(error)
                    }
                }
            })
            .collect();
        let failed = failed.len();
        reporter.report(ProgressEvent::BatchFinished { fresh, cached: cached_served, failed });
        reporter.report(self.pressure().event());
        results
    }

    /// Convenience over [`Runner::run_all`] when only the metrics matter
    /// and failure should be fatal (the figure pipeline: a figure with a
    /// missing point is not a figure).
    ///
    /// # Panics
    ///
    /// Panics with the [`RunError`] report of the first failed point.
    pub fn run_metrics(&self, reqs: &[RunRequest]) -> Vec<RunMetrics> {
        self.run_all(reqs)
            .into_iter()
            .map(|r| match r {
                Ok(result) => result.metrics,
                Err(e) => panic!("simulation point failed: {e}"),
            })
            .collect()
    }

    /// Aggregate cache and throughput counters.
    pub fn stats(&self) -> RunnerStats {
        let (cache_evictions, cache_bytes) = {
            let st = lock_unpoisoned(&self.state);
            (st.cache.evictions(), st.cache.bytes())
        };
        RunnerStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            coalesced_hits: self.coalesced.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_evictions,
            cache_bytes,
            shed_points: self.shed.load(Ordering::Relaxed),
            failed_points: self.failures.load(Ordering::Relaxed),
            spec_builds: self.spec_builds.load(Ordering::Relaxed),
            simulated_instructions: self.simulated_instructions.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }

    /// Points currently memoized.
    pub fn cached_points(&self) -> usize {
        lock_unpoisoned(&self.state).cache.len()
    }

    /// The memoized spec for `req`, materializing it on first use. The
    /// lock is held across the build so concurrent workers asking for the
    /// same (workload, scale) wait for one build instead of racing their
    /// own; a build is milliseconds against simulations of seconds.
    fn spec_for(&self, req: &RunRequest) -> Arc<WorkloadSpec> {
        let mut memo = lock_unpoisoned(&self.specs);
        let key = req.spec_key();
        if let Some(spec) = memo.specs.get(&key) {
            return Arc::clone(spec);
        }
        self.spec_builds.fetch_add(1, Ordering::Relaxed);
        let spec = Arc::new(req.spec());
        if memo.order.len() == SPEC_MEMO_CAP {
            let oldest = memo.order.pop_front().expect("a full memo is non-empty");
            memo.specs.remove(&oldest);
        }
        memo.order.push_back(key);
        memo.specs.insert(key, Arc::clone(&spec));
        spec
    }

    /// Executes one point on the memoized spec, under the runner's
    /// cancellation token and the request's deadline (or the runner's
    /// default), with panic containment: a panic anywhere in the
    /// simulation (or an engine-level [`SimError`]) becomes a [`RunError`]
    /// carrying the point's identity, instead of unwinding into the pool.
    /// A point runs once: a deterministic simulation that failed would
    /// fail the same way again. A cancelled runner fails the point fast,
    /// before any simulation work.
    fn execute_point(&self, req: &RunRequest) -> Result<RunResult, RunError> {
        let point = PointSummary::of(req);
        if self.cancel.is_cancelled() {
            // heap_steps = 0 reads as "cancelled before it started".
            return Err(RunError::from_sim(point, SimError::Cancelled(Box::default())));
        }
        let spec = self.spec_for(req);
        let started = Instant::now();
        let budget = req.deadline.budget().or_else(|| self.default_deadline());
        let ctrl =
            RunControl { cancel: self.cancel.clone(), deadline: budget.map(|b| started + b) };
        let outcome = match panic::catch_unwind(AssertUnwindSafe(|| {
            let session = RunSession::new(&spec, &req.config)?.observe(req.obs).control(ctrl);
            Ok(RunResult::of(session.run()?, started))
        })) {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(sim_error)) => Err(RunError::from_sim(point, sim_error)),
            // `as_ref` matters: `&payload` would coerce the Box itself into
            // the `dyn Any`, and the downcasts below would never match.
            Err(payload) => {
                Err(RunError::Panicked { point, payload: panic_message(payload.as_ref()) })
            }
        };
        // SlowConsumer holds the finished result (and with it the flight
        // and any execution slot) before releasing it — the deterministic
        // way the chaos drills keep a slot occupied. The metrics are
        // already computed, so they stay byte-identical to the healthy run.
        if let Some(InjectedFault::SlowConsumer { delay_ms }) = req.config.fault_injection {
            if outcome.is_ok() {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
        }
        outcome
    }

    /// Simulates one owned point as number `index` of `total`, with its
    /// start and end reported.
    fn fly(
        &self,
        req: &RunRequest,
        index: usize,
        total: usize,
        reporter: &dyn Reporter,
    ) -> Result<RunResult, RunError> {
        reporter.report(ProgressEvent::PointStarted { index, total, label: req.label() });
        let outcome = self.execute_point(req);
        let label = req.label();
        reporter.report(match &outcome {
            Ok(result) => ProgressEvent::PointFinished {
                index,
                total,
                label,
                wall_ns: result.wall.as_nanos() as u64,
                sim_ips: result.sim_ips,
            },
            Err(error) if error.is_cancellation() => {
                ProgressEvent::PointCancelled { index, total, label }
            }
            Err(error) => {
                ProgressEvent::PointFailed { index, total, label, error: error.to_string() }
            }
        });
        outcome
    }

    /// Flies a batch's owned points on `min(jobs, points)` scoped
    /// workers, which claim points in submission order. One worker runs
    /// inline on the calling thread.
    fn fly_all(&self, owned: &[(FlightGuard<'_>, &RunRequest)], reporter: &dyn Reporter) {
        let total = owned.len();
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((guard, req)) = owned.get(i) else { return };
            guard.flight.fill(&self.fly(req, i + 1, total, reporter));
        };
        let workers = self.jobs.min(total);
        if workers <= 1 {
            worker();
            return;
        }
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }

    /// Counts fresh outcomes and banks the successes in the run cache,
    /// under one lock. A result too heavy for the budget is refused by
    /// the cache; its callers still get it.
    fn bank<'a>(&self, outcomes: impl IntoIterator<Item = (u64, &'a Result<RunResult, RunError>)>) {
        let mut st = lock_unpoisoned(&self.state);
        for (key, outcome) in outcomes {
            self.misses.fetch_add(1, Ordering::Relaxed);
            match outcome {
                Ok(result) => {
                    let instructions = result.metrics.instructions;
                    self.simulated_instructions.fetch_add(instructions, Ordering::Relaxed);
                    self.busy_nanos.fetch_add(result.wall.as_nanos() as u64, Ordering::Relaxed);
                    st.cache.insert(key, result.clone());
                }
                Err(_) => {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// One simulation in flight that other requests for its key attach to.
struct Flight {
    outcome: Mutex<Option<Result<RunResult, RunError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { outcome: Mutex::new(None), done: Condvar::new() }
    }

    /// Blocks until the owner fills the flight, then returns a clone of
    /// its outcome with `from_cache` set (the waiter did not simulate
    /// anything).
    fn wait(&self) -> Result<RunResult, RunError> {
        let guard = lock_unpoisoned(&self.outcome);
        let guard = wait_unpoisoned(&self.done, guard, |o| o.is_none());
        let mut outcome = guard.clone().expect("flight filled before notify");
        if let Ok(result) = &mut outcome {
            result.from_cache = true;
        }
        outcome
    }

    /// The outcome, if the owner has filled the flight.
    fn outcome(&self) -> Option<Result<RunResult, RunError>> {
        lock_unpoisoned(&self.outcome).clone()
    }

    fn fill(&self, outcome: &Result<RunResult, RunError>) {
        *lock_unpoisoned(&self.outcome) = Some(outcome.clone());
        self.done.notify_all();
    }

    /// Fills the flight with [`RunError::Lost`] *only if it is still
    /// empty* — the owner died (unwound) without reporting an outcome.
    /// Idempotent against a normal [`Flight::fill`] that already ran.
    fn fill_if_abandoned(&self, point: &PointSummary) {
        let mut outcome = lock_unpoisoned(&self.outcome);
        if outcome.is_none() {
            *outcome = Some(Err(RunError::Lost { point: point.clone() }));
        }
        drop(outcome);
        self.done.notify_all();
    }
}

/// `Condvar::wait_while` with the workspace's poison-recovery policy
/// (see [`slicc_common::lock_unpoisoned`]): a panicked peer must not
/// wedge every waiter behind a poisoned lock.
fn wait_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    mut while_: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    cv.wait_while(guard, &mut while_).unwrap_or_else(|e| {
        let mut guard = e.into_inner();
        while while_(&mut guard) {
            // The condvar itself is not poisoned, only the mutex; spin
            // through wait() manually. This path only runs after a peer
            // panicked while holding the lock — correctness over speed.
            guard = cv
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        guard
    })
}

/// Owns one registered flight — and, for a submission, its execution
/// slot — for the duration of a fresh simulation. Dropping the guard —
/// which also happens when the owning thread *unwinds* (a panicking
/// reporter, a server worker torn down by a dropped connection) —
/// always:
///
/// 1. fills the flight with [`RunError::Lost`] if the owner never
///    reported an outcome, so attached waiters wake with a typed error
///    instead of blocking on a Condvar wakeup that will never come;
/// 2. unregisters the flight and releases the slot, if it holds one;
/// 3. signals `slots` so queued submissions re-evaluate.
///
/// Without this, a dying owner stranded every attached waiter forever
/// and leaked its slot, silently shrinking `max_inflight` until the
/// runner shed every submission.
struct FlightGuard<'a> {
    runner: &'a Runner,
    key: u64,
    flight: Arc<Flight>,
    point: PointSummary,
    /// Whether the owner holds an execution slot (a submission does, a
    /// batch does not).
    slot: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        // Fill-if-abandoned must precede removal from the map: a waiter
        // that already holds the Arc must find an outcome when it wakes.
        self.flight.fill_if_abandoned(&self.point);
        let mut st = lock_unpoisoned(&self.runner.state);
        st.flights.remove(&self.key);
        if self.slot {
            st.executing -= 1;
        }
        drop(st);
        self.runner.slots.notify_all();
    }
}

/// Holds one position in the submission wait queue. Dropped on every exit
/// from the queued wait — including an unwinding waiter — so `queued` can
/// never leak upward and turn the queue-limit check into a permanent shed.
struct QueueGuard<'a> {
    runner: &'a Runner,
}

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        let mut st = lock_unpoisoned(&self.runner.state);
        st.queued -= 1;
        drop(st);
        self.runner.slots.notify_all();
    }
}

/// Renders a caught panic payload for [`RunError::Panicked`]. Panics
/// almost always carry `&str` or `String`; anything else is reported by
/// type only.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::with_default_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InjectedFault;

    fn tiny_request() -> RunRequest {
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
    }

    fn expect_ok(r: Result<RunResult, RunError>) -> RunResult {
        r.expect("point must complete")
    }

    #[test]
    fn stable_key_is_reproducible_and_field_sensitive() {
        let base = tiny_request();
        assert_eq!(base.stable_key(), tiny_request().stable_key());
        assert_ne!(base.stable_key(), base.clone().with_mode(SchedulerMode::Slicc).stable_key());
        assert_ne!(base.stable_key(), base.clone().with_seed(99).stable_key());
        assert_ne!(base.stable_key(), base.clone().with_tasks(3).stable_key());
        let other_workload =
            RunRequest::new(Workload::TpcE, TraceScale::tiny(), SimConfig::tiny_test());
        assert_ne!(base.stable_key(), other_workload.stable_key());
        let mut other_cfg = tiny_request();
        other_cfg.config.seed ^= 1;
        assert_ne!(base.stable_key(), other_cfg.stable_key());
    }

    #[test]
    fn overrides_change_the_spec_not_just_the_key() {
        let req = tiny_request().with_tasks(2).with_seed(7);
        let scale = req.effective_scale();
        assert_eq!(scale.tasks, 2);
        assert_eq!(scale.seed, 7);
        assert_eq!(req.spec().num_tasks, 2);
    }

    #[test]
    fn cache_hits_identical_request() {
        let runner = Runner::new(1);
        let req = tiny_request();
        let first = expect_ok(runner.run(&req));
        let second = expect_ok(runner.run(&req));
        assert!(!first.from_cache);
        assert!(second.from_cache);
        assert_eq!(format!("{:?}", first.metrics), format!("{:?}", second.metrics));
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1, "a cross-call repeat is a true memoized hit");
        assert_eq!(stats.coalesced_hits, 0);
        assert_eq!(stats.failed_points, 0);
        assert_eq!(runner.cached_points(), 1);
        assert!(stats.cache_bytes > 0, "the resident result must be charged");
        assert!(stats.cache_bytes <= runner.cache_budget());
    }

    #[test]
    fn cache_misses_when_any_field_differs() {
        let runner = Runner::new(1);
        let base = tiny_request();
        expect_ok(runner.run(&base));
        expect_ok(runner.run(&base.clone().with_mode(SchedulerMode::Slicc)));
        expect_ok(runner.run(&base.clone().with_seed(123)));
        let mut policy_seed = base.clone();
        policy_seed.config.seed ^= 1;
        expect_ok(runner.run(&policy_seed));
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 4, "each distinct request must simulate");
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn batch_deduplicates_repeated_points() {
        let runner = Runner::new(2);
        let base = tiny_request();
        let slicc = base.clone().with_mode(SchedulerMode::Slicc);
        let results: Vec<RunResult> = runner
            .run_all(&[base.clone(), slicc.clone(), base.clone(), slicc])
            .into_iter()
            .map(expect_ok)
            .collect();
        assert_eq!(results.len(), 4);
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 2, "two distinct points in the batch");
        assert_eq!(stats.coalesced_hits, 2, "intra-batch duplicates coalesce onto the fresh run");
        assert_eq!(stats.cache_hits, 0, "nothing was memoized before this batch");
        assert!(!results[0].from_cache);
        assert!(!results[1].from_cache);
        assert!(results[2].from_cache);
        assert!(results[3].from_cache);
        assert_eq!(format!("{:?}", results[0].metrics), format!("{:?}", results[2].metrics));
        assert_eq!(format!("{:?}", results[1].metrics), format!("{:?}", results[3].metrics));
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let runner = Runner::new(4);
        let reqs: Vec<RunRequest> = [
            SchedulerMode::Baseline,
            SchedulerMode::Slicc,
            SchedulerMode::SliccSw,
            SchedulerMode::Steps,
        ]
        .iter()
        .map(|&m| tiny_request().with_mode(m))
        .collect();
        let results = runner.run_all(&reqs);
        for (req, result) in reqs.iter().zip(&results) {
            let result = result.as_ref().expect("point must complete");
            assert_eq!(result.metrics.mode, req.mode().name(), "result out of submission order");
        }
    }

    #[test]
    fn observability_counters_accumulate() {
        let runner = Runner::new(1);
        let result = expect_ok(runner.run(&tiny_request()));
        let stats = runner.stats();
        assert_eq!(stats.simulated_instructions, result.metrics.instructions);
        assert!(stats.busy_nanos > 0);
        assert!(stats.sim_ips() > 0.0);
    }

    #[test]
    fn spec_memo_shares_one_build_across_modes() {
        let runner = Runner::new(2);
        let reqs: Vec<RunRequest> =
            SchedulerMode::WITH_STEPS.iter().map(|&m| tiny_request().with_mode(m)).collect();
        for r in runner.run_all(&reqs) {
            expect_ok(r);
        }
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, reqs.len() as u64, "every mode simulates");
        assert_eq!(stats.spec_builds, 1, "all modes share one materialized trace");
    }

    #[test]
    fn spec_memo_does_not_alias_distinct_traces() {
        let runner = Runner::new(1);
        let base = tiny_request();
        expect_ok(runner.run(&base));
        expect_ok(runner.run(&base.clone().with_seed(99)));
        expect_ok(runner.run(&base.clone().with_tasks(2)));
        // Same trace on a different machine: no new build.
        let mut other_cfg = tiny_request();
        other_cfg.config.seed ^= 1;
        expect_ok(runner.run(&other_cfg));
        assert_eq!(
            runner.stats().spec_builds,
            3,
            "seed/task overrides are distinct traces, a config change is not"
        );
    }

    #[test]
    fn spec_memo_keeps_the_newest_specs_and_rebuilds_the_dropped_ones() {
        let runner = Runner::new(1);
        let seeded = |seed: u64| tiny_request().with_seed(seed);
        let first = runner.spec_for(&seeded(0));
        for seed in 1..=SPEC_MEMO_CAP as u64 {
            runner.spec_for(&seeded(seed));
        }
        assert_eq!(lock_unpoisoned(&runner.specs).specs.len(), SPEC_MEMO_CAP);
        assert_eq!(runner.stats().spec_builds, SPEC_MEMO_CAP as u64 + 1);
        // The newest spec is still shared; the oldest was dropped, and its
        // rebuild is a new but equal spec.
        let newest = seeded(SPEC_MEMO_CAP as u64);
        assert!(Arc::ptr_eq(&runner.spec_for(&newest), &runner.spec_for(&newest)));
        let again = runner.spec_for(&seeded(0));
        assert!(!Arc::ptr_eq(&first, &again));
        for t in first.threads() {
            assert!(first.thread_trace(t).eq(again.thread_trace(t)), "thread {t:?}");
        }
        assert_eq!(runner.stats().spec_builds, SPEC_MEMO_CAP as u64 + 2);
    }

    #[test]
    fn spec_key_ignores_config_but_not_trace_inputs() {
        let base = tiny_request();
        let slicc = base.clone().with_mode(SchedulerMode::Slicc);
        assert_eq!(base.spec_key(), slicc.spec_key(), "mode must not split the spec memo");
        assert_ne!(base.stable_key(), slicc.stable_key(), "...but it does split the run cache");
        assert_ne!(base.spec_key(), base.clone().with_seed(9).spec_key());
        assert_ne!(base.spec_key(), base.clone().with_tasks(3).spec_key());
        let other_workload =
            RunRequest::new(Workload::TpcE, TraceScale::tiny(), SimConfig::tiny_test());
        assert_ne!(base.spec_key(), other_workload.spec_key());
    }

    #[test]
    fn memoized_spec_reproduces_direct_execution() {
        let runner = Runner::new(1);
        let req = tiny_request().with_mode(SchedulerMode::Slicc);
        let pooled = expect_ok(runner.run(&req));
        let direct = req.try_execute().expect("direct run completes");
        assert_eq!(format!("{:?}", pooled.metrics), format!("{:?}", direct.metrics));
    }

    fn panicking_request() -> RunRequest {
        let config =
            SimConfig { fault_injection: Some(InjectedFault::Panic), ..SimConfig::tiny_test() };
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), config)
    }

    #[test]
    fn a_panicking_point_is_contained_and_identified() {
        let runner = Runner::new(2);
        let bad = panicking_request();
        let err = runner.run(&bad).expect_err("injected panic must surface");
        match &err {
            RunError::Panicked { point, payload } => {
                assert_eq!(point.key, bad.stable_key());
                assert!(payload.contains("injected fault"), "got payload: {payload}");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        assert_eq!(runner.stats().failed_points, 1);
        // The runner is still fully usable after the panic.
        assert_eq!(runner.cached_points(), 0);
        expect_ok(runner.run(&tiny_request()));
    }

    #[test]
    fn failed_points_are_not_cached_and_retry() {
        let runner = Runner::new(1);
        let bad = panicking_request();
        assert!(runner.run(&bad).is_err());
        assert!(runner.run(&bad).is_err(), "failures are re-attempted, not cached");
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.failed_points, 2);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn duplicate_failed_points_in_one_batch_share_the_error() {
        let runner = Runner::new(2);
        let bad = panicking_request();
        let results = runner.run_all(&[bad.clone(), tiny_request(), bad.clone()]);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert!(results[2].is_err());
        assert_eq!(runner.stats().cache_misses, 2, "the duplicate failure simulates once");
        assert_eq!(runner.stats().failed_points, 1);
    }

    #[test]
    fn without_retries_a_starved_point_fails_on_the_first_attempt() {
        // A 1-step fuel budget livelocks. The point runs once: more fuel
        // is a watchdog setting, not something the runner retries.
        let mut config = SimConfig::tiny_test();
        config.watchdog.max_heap_steps = Some(1);
        let starved = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), config);
        let runner = Runner::new(1);
        let err = runner.run(&starved).expect_err("1 step of fuel must livelock");
        assert!(matches!(err, RunError::Sim { error: SimError::Livelock(_), .. }), "got {err}");
        let stats = runner.stats();
        assert_eq!(stats.cache_misses, 1, "one point, one attempt");
        assert_eq!(stats.failed_points, 1);
    }

    #[test]
    fn a_cancelled_runner_fails_points_fast_and_keeps_finished_work() {
        let runner = Runner::new(1);
        let done = expect_ok(runner.run(&tiny_request()));
        runner.cancel_token().cancel();
        let err = runner
            .run(&tiny_request().with_seed(99))
            .expect_err("a cancelled runner must not start new work");
        match &err {
            RunError::Sim { error: SimError::Cancelled(snapshot), .. } => {
                assert_eq!(snapshot.heap_steps, 0, "the point never started simulating");
            }
            other => panic!("expected Cancelled, got {other}"),
        }
        assert!(err.is_cancellation());
        // Completed work survives cancellation.
        let again = expect_ok(runner.run(&tiny_request()));
        assert!(again.from_cache);
        assert_eq!(again.metrics.digest(), done.metrics.digest());
        // The stored digest is the metrics' own, fresh and cached alike.
        assert_eq!(done.digest, done.metrics.digest());
        assert_eq!(again.digest, done.digest);
    }

    #[test]
    fn an_expired_deadline_fails_one_point_while_its_siblings_complete() {
        let runner = Runner::new(2);
        let doomed = tiny_request().with_deadline(DeadlineConfig::from_ms(0));
        let healthy = tiny_request().with_mode(SchedulerMode::Slicc);
        let results = runner.run_all(&[doomed.clone(), healthy]);
        match &results[0] {
            Err(RunError::Sim { point, error: SimError::DeadlineExceeded(snapshot) }) => {
                assert_eq!(point.key, doomed.stable_key());
                assert!(snapshot.heap_steps > 0, "the snapshot must show where it stopped");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        expect_ok(results[1].clone());
    }

    #[test]
    fn the_default_deadline_applies_only_to_requests_without_their_own() {
        let runner = Runner::new(1);
        runner.set_default_deadline(Some(Duration::ZERO));
        assert!(matches!(
            runner.run(&tiny_request()),
            Err(RunError::Sim { error: SimError::DeadlineExceeded(_), .. })
        ));
        // A generous per-request deadline overrides the impossible default.
        let roomy = tiny_request().with_deadline(DeadlineConfig::from_ms(60_000));
        expect_ok(runner.run(&roomy));
        runner.set_default_deadline(None);
        assert_eq!(runner.default_deadline(), None);
    }

    #[test]
    fn a_tiny_cache_budget_evicts_but_never_changes_results() {
        let runner = Runner::new(1);
        let first = tiny_request();
        let reference = expect_ok(runner.run(&first));
        // Rebudget below one entry's weight: the resident result is
        // evicted and nothing can become resident.
        runner.set_cache_bytes(8);
        let stats = runner.stats();
        assert_eq!(stats.cache_bytes, 0);
        assert!(stats.cache_evictions >= 1);
        assert_eq!(runner.cached_points(), 0);
        // The evicted point re-simulates — a miss, not a hit — and its
        // metrics are byte-identical: eviction is a cost, never a change.
        let again = expect_ok(runner.run(&first));
        assert!(!again.from_cache);
        assert_eq!(again.metrics.digest(), reference.metrics.digest());
        assert_eq!(runner.stats().cache_misses, 2);
        assert!(runner.stats().cache_bytes <= runner.cache_budget());
    }

    #[test]
    fn try_execute_honours_its_own_deadline_without_a_runner() {
        let doomed = tiny_request().with_deadline(DeadlineConfig::from_ms(0));
        match doomed.try_execute() {
            Err(SimError::DeadlineExceeded(snapshot)) => {
                assert_eq!(snapshot.heap_steps, 1, "first control check lands on step 1");
            }
            other => panic!("expected DeadlineExceeded, got {:?}", other.err()),
        }
    }

    #[test]
    fn pressure_reports_cache_residency_and_idle_slots() {
        let runner = Runner::new(2);
        expect_ok(runner.run(&tiny_request()));
        let p = runner.pressure();
        assert_eq!(p.queue_depth, 0);
        assert_eq!(p.inflight, 0, "no batch is running");
        assert_eq!(p.cache_entries, 1);
        assert!(p.cache_bytes > 0 && p.cache_bytes <= p.cache_budget);
        assert_eq!(p.shed, 0);
    }

    #[test]
    fn governance_knobs_are_excluded_from_the_stable_key() {
        // A cache budget changes when work is recomputed, never what any
        // simulation computes — so equal requests stay equal across
        // differently-governed runners.
        let runner_a = Runner::new(1);
        let runner_b = Runner::new(1);
        runner_b.set_cache_bytes(8);
        let a = expect_ok(runner_a.run(&tiny_request()));
        let b = expect_ok(runner_b.run(&tiny_request()));
        assert_eq!(a.metrics.digest(), b.metrics.digest());
    }

    #[test]
    fn deadline_is_excluded_from_the_stable_key() {
        let base = tiny_request();
        let dated = tiny_request().with_deadline(DeadlineConfig::from_ms(5));
        assert_eq!(
            base.stable_key(),
            dated.stable_key(),
            "a deadline changes when a run may be abandoned, never its metrics"
        );
    }
}
