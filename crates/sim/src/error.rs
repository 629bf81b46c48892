//! Typed simulation failures: engine-level [`SimError`] and point-level
//! [`RunError`].
//!
//! The layering mirrors the call stack. The engine reports *what went
//! wrong inside one simulation* ([`SimError`]: invalid configuration, a
//! stalled event loop, an exhausted watchdog fuel budget, a cancellation,
//! a blown deadline). The runner wraps that in [`RunError::Sim`], which
//! also identifies *which point* failed ([`PointSummary`]: workload,
//! scale, seed, and the stable run-cache key), so a failed point in a
//! hundred-point sweep can be reproduced with one `slicc` invocation.
//! The other [`RunError`] variants are the runner's own failures: a
//! caught panic, a lost worker, a shed submission.

use crate::config::ConfigError;
use crate::runner::RunRequest;
use slicc_common::Cycle;
use slicc_obs::{Epoch, TraceEvent};
use std::fmt;

/// A failure inside one simulation (engine/system/config level).
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The configuration violates an invariant.
    Config(ConfigError),
    /// The event loop ran out of runnable cores before every thread
    /// completed — a scheduling invariant was violated.
    Stalled {
        /// Threads that did complete.
        completed: u64,
        /// Threads the workload dispatched in total.
        total: u64,
        /// Threads dispatched but never finished.
        in_flight: u64,
    },
    /// The forward-progress watchdog exhausted its fuel budget (see
    /// [`crate::WatchdogConfig`]). Boxed: the snapshot is large and this
    /// variant is rare.
    Livelock(Box<LivelockSnapshot>),
    /// The run was cancelled cooperatively (Ctrl-C, a test harness, a
    /// sibling deadline sweep) via a [`slicc_common::CancelToken`]. The
    /// snapshot shows what the machine was doing when it stopped.
    Cancelled(Box<LivelockSnapshot>),
    /// The run's wall-clock budget (see [`crate::DeadlineConfig`]) ran
    /// out before the simulation finished.
    DeadlineExceeded(Box<LivelockSnapshot>),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Stalled { completed, total, in_flight } => write!(
                f,
                "engine stalled: {completed}/{total} threads complete, {in_flight} in flight"
            ),
            SimError::Livelock(snap) => write!(f, "watchdog fired: {snap}"),
            SimError::Cancelled(snap) => write!(f, "cancelled: {snap}"),
            SimError::DeadlineExceeded(snap) => write!(f, "deadline exceeded: {snap}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Diagnostic state captured when the watchdog aborts a run: enough to
/// tell a migration ping-pong (high migration count, hot thread bouncing)
/// from a starved queue (deep queues, low completion count) without
/// re-running the point under a debugger.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LivelockSnapshot {
    /// Event-loop heap steps executed before the abort.
    pub heap_steps: u64,
    /// Local time of the core that tripped the budget.
    pub cycles: Cycle,
    /// Threads completed before the abort.
    pub completed: u64,
    /// Threads the workload dispatched in total.
    pub total: u64,
    /// Threads dispatched and still unfinished.
    pub in_flight: u64,
    /// Migrations performed before the abort.
    pub migrations: u64,
    /// Migration attempts that had nowhere to go.
    pub blocked_migrations: u64,
    /// Waiting threads per core (excludes the running thread).
    pub queue_depths: Vec<usize>,
    /// The unfinished thread that has executed the most instructions.
    pub hottest_thread: Option<HotThread>,
    /// The last trace events before the abort — *what the machine was
    /// doing*, not just that it stopped. Empty unless the run was
    /// observed with event tracing on.
    pub recent_events: Vec<TraceEvent>,
    /// The tail of the interval series at abort time. Empty unless the
    /// run was observed with epoch sampling on.
    pub series_tail: Vec<Epoch>,
}

/// The busiest unfinished thread at watchdog time (see
/// [`LivelockSnapshot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotThread {
    /// Raw thread id.
    pub thread: u32,
    /// Instructions the thread had executed.
    pub instructions: u64,
    /// Distinct cores the thread had visited.
    pub cores_visited: usize,
}

impl fmt::Display for LivelockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no forward progress after {} heap steps / {} cycles; \
             {}/{} threads complete ({} in flight), {} migrations \
             ({} blocked), max queue depth {}",
            self.heap_steps,
            self.cycles,
            self.completed,
            self.total,
            self.in_flight,
            self.migrations,
            self.blocked_migrations,
            self.queue_depths.iter().copied().max().unwrap_or(0),
        )?;
        if let Some(hot) = &self.hottest_thread {
            write!(
                f,
                "; hottest thread {} ({} instructions over {} cores)",
                hot.thread, hot.instructions, hot.cores_visited
            )?;
        }
        if let Some(last) = self.recent_events.last() {
            write!(
                f,
                "; {} trace event(s) captured, latest {} on core {} at cycle {}",
                self.recent_events.len(),
                last.kind.name(),
                last.core.index(),
                last.cycle
            )?;
        }
        Ok(())
    }
}

/// Identifies one experiment point in error reports: everything needed to
/// reproduce it from the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointSummary {
    /// The stable run-cache key ([`RunRequest::stable_key`]).
    pub key: u64,
    /// Workload name.
    pub workload: String,
    /// Mode label (Base / SLICC / ...).
    pub mode: String,
    /// Effective transaction count (after overrides).
    pub tasks: u32,
    /// Effective trace seed (after overrides).
    pub seed: u64,
    /// Trace segment size in blocks.
    pub segment_blocks: u32,
}

impl PointSummary {
    /// Summarizes `req` for error reporting.
    pub fn of(req: &RunRequest) -> Self {
        let scale = req.effective_scale();
        PointSummary {
            key: req.stable_key(),
            workload: req.workload.name().to_string(),
            mode: req.mode().name().to_string(),
            tasks: scale.tasks,
            seed: scale.seed,
            segment_blocks: scale.segment_blocks,
        }
    }
}

impl fmt::Display for PointSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] tasks={} seg={} seed={} key={:#018x}",
            self.workload, self.mode, self.tasks, self.segment_blocks, self.seed, self.key
        )
    }
}

/// A failed experiment point, as reported by [`crate::Runner::run_all`].
/// Every variant carries the [`PointSummary`] of the point that failed.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The simulation itself failed: an invalid configuration, a stalled
    /// loop, the watchdog, a cancellation or a deadline. A point
    /// cancelled before it started carries an empty (all-zero) snapshot.
    Sim {
        /// The failed point.
        point: PointSummary,
        /// What went wrong inside the simulation.
        error: SimError,
    },
    /// The simulation panicked; the panic message is preserved.
    Panicked {
        /// The failed point.
        point: PointSummary,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// The worker executing the point died without reporting a result
    /// (a runner bug; never expected under panic containment).
    Lost {
        /// The failed point.
        point: PointSummary,
    },
    /// The submission was shed by admission control before any
    /// simulation work: every execution slot was busy and the wait queue
    /// was full (see [`crate::Runner::submit`] and
    /// [`crate::ServiceConfig`]). A typed, graceful rejection — the
    /// run never started, nothing was computed, and the client should
    /// resubmit after roughly [`retry_after`](RunError::Overloaded).
    Overloaded {
        /// The shed point.
        point: PointSummary,
        /// A hint for when resubmission is likely to be admitted, derived
        /// from the mean wall-clock cost of recent fresh points.
        retry_after: std::time::Duration,
        /// Fresh simulations in flight when the point was shed.
        inflight: usize,
        /// The admission limit that was hit.
        limit: usize,
    },
}

impl RunError {
    /// Wraps an engine-level error with the identity of the failed point.
    pub fn from_sim(point: PointSummary, error: SimError) -> Self {
        RunError::Sim { point, error }
    }

    /// The identity of the failed point.
    pub fn point(&self) -> &PointSummary {
        match self {
            RunError::Sim { point, .. }
            | RunError::Panicked { point, .. }
            | RunError::Lost { point }
            | RunError::Overloaded { point, .. } => point,
        }
    }

    /// True for admission-control rejections (the point was shed before
    /// any simulation work; resubmitting later is expected to succeed).
    pub fn is_overload(&self) -> bool {
        matches!(self, RunError::Overloaded { .. })
    }

    /// True for cancellation outcomes (the point did not fail on its own
    /// merits; it was asked to stop).
    pub fn is_cancellation(&self) -> bool {
        matches!(self, RunError::Sim { error: SimError::Cancelled(_), .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim { point, error } => match error {
                SimError::Livelock(snapshot) => write!(f, "point {point} livelocked: {snapshot}"),
                SimError::Stalled { completed, total, in_flight } => write!(
                    f,
                    "point {point} stalled: {completed}/{total} threads complete, {in_flight} in flight"
                ),
                SimError::Config(error) => write!(f, "point {point} rejected: {error}"),
                SimError::Cancelled(snapshot) if snapshot.heap_steps == 0 => {
                    write!(f, "point {point} cancelled before it started")
                }
                SimError::Cancelled(snapshot) => write!(f, "point {point} cancelled: {snapshot}"),
                SimError::DeadlineExceeded(snapshot) => {
                    write!(f, "point {point} exceeded its deadline: {snapshot}")
                }
            },
            RunError::Panicked { point, payload } => {
                write!(f, "point {point} panicked: {payload}")
            }
            RunError::Lost { point } => {
                write!(f, "point {point} lost: worker died without reporting a result")
            }
            RunError::Overloaded { point, retry_after, inflight, limit } => {
                write!(
                    f,
                    "point {point} shed: service overloaded ({inflight} in flight, \
                     limit {limit}); retry in ~{} ms",
                    retry_after.as_millis()
                )
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Sim { error, .. } => Some(error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use slicc_trace::{TraceScale, Workload};

    fn point() -> PointSummary {
        let req = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test());
        PointSummary::of(&req)
    }

    #[test]
    fn point_summary_names_the_point() {
        let req = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
            .with_tasks(3)
            .with_seed(42);
        let p = PointSummary::of(&req);
        assert_eq!(p.key, req.stable_key());
        assert_eq!(p.tasks, 3);
        assert_eq!(p.seed, 42);
        let rendered = p.to_string();
        assert!(rendered.contains("TPC-C-1"), "got: {rendered}");
        assert!(rendered.contains("seed=42"), "got: {rendered}");
        assert!(rendered.contains("key=0x"), "got: {rendered}");
    }

    #[test]
    fn sim_errors_wrap_into_run_errors() {
        let e =
            RunError::from_sim(point(), SimError::Stalled { completed: 1, total: 4, in_flight: 2 });
        assert!(matches!(
            e,
            RunError::Sim { error: SimError::Stalled { completed: 1, total: 4, in_flight: 2 }, .. }
        ));
        assert!(e.to_string().contains("stalled: 1/4 threads complete, 2 in flight"), "got: {e}");
        let snap = Box::new(LivelockSnapshot { heap_steps: 9, ..Default::default() });
        let e = RunError::from_sim(point(), SimError::Livelock(snap));
        assert!(matches!(e, RunError::Sim { error: SimError::Livelock(_), .. }));
        assert!(e.to_string().contains("livelocked"), "got: {e}");
        assert!(e.to_string().contains("9 heap steps"), "got: {e}");
        let config = SimError::Config(ConfigError::ZeroThreadQueue);
        let e = RunError::from_sim(point(), config.clone());
        assert!(e.to_string().contains("rejected: "), "got: {e}");
        let source = std::error::Error::source(&e).expect("a wrapped engine error is the source");
        assert_eq!(source.to_string(), config.to_string());
    }

    #[test]
    fn cancellation_and_deadline_wrap_with_their_snapshots() {
        let snap = Box::new(LivelockSnapshot { heap_steps: 5, ..Default::default() });
        let e = RunError::from_sim(point(), SimError::DeadlineExceeded(snap));
        assert!(matches!(e, RunError::Sim { error: SimError::DeadlineExceeded(_), .. }));
        assert!(e.to_string().contains("exceeded its deadline"), "got: {e}");
        assert!(e.to_string().contains("5 heap steps"), "got: {e}");
        assert!(!e.is_cancellation());

        let started = RunError::from_sim(
            point(),
            SimError::Cancelled(Box::new(LivelockSnapshot { heap_steps: 3, ..Default::default() })),
        );
        assert!(started.is_cancellation());
        assert!(started.to_string().contains("cancelled"), "got: {started}");
        let unstarted = RunError::from_sim(point(), SimError::Cancelled(Box::default()));
        assert!(unstarted.is_cancellation());
        assert!(unstarted.to_string().contains("before it started"), "got: {unstarted}");
    }

    #[test]
    fn overload_rejections_carry_a_retry_hint() {
        let e = RunError::Overloaded {
            point: point(),
            retry_after: std::time::Duration::from_millis(120),
            inflight: 4,
            limit: 4,
        };
        assert!(e.is_overload());
        assert!(!e.is_cancellation(), "a shed point was not cancelled mid-run");
        let rendered = e.to_string();
        assert!(rendered.contains("overloaded"), "got: {rendered}");
        assert!(rendered.contains("retry in ~120 ms"), "got: {rendered}");
        assert!(rendered.contains("key=0x"), "got: {rendered}");
    }

    #[test]
    fn displays_carry_the_reproduction_key() {
        let e = RunError::Panicked { point: point(), payload: "boom".into() };
        let rendered = e.to_string();
        assert!(rendered.contains("boom"), "got: {rendered}");
        assert!(rendered.contains("key=0x"), "got: {rendered}");
        assert_eq!(e.point().key, point().key);
    }
}
