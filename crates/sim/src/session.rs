//! The single engine entry point: [`RunSession`].
//!
//! PR 5 grew the engine a 2×2×2 matrix of free-function entry points
//! (run / try-run, observed, controlled — since removed), and the
//! cross-cutting concerns each axis bolted on — cancellation polling,
//! deadline clock reads, the observation seam — leaked into the per-step
//! hot path, costing ~3.4% aggregate sim-ips. The session collapses the
//! matrix into one builder:
//!
//! ```
//! use slicc_sim::{RunControl, RunSession, SimConfig};
//! use slicc_trace::{TraceScale, Workload};
//!
//! let spec = Workload::TpcC1.spec(TraceScale::tiny());
//! let cfg = SimConfig::tiny_test();
//! let outcome = RunSession::new(&spec, &cfg)
//!     .expect("valid config")
//!     .control(RunControl::unbounded())
//!     .run()
//!     .expect("tiny point completes");
//! assert!(outcome.metrics.instructions > 0);
//! ```
//!
//! Everything cross-cutting is configured **once at the boundary** and
//! lowered before the loop starts:
//!
//! - watchdog fuel and injected stalls lower into a precomputed epoch
//!   plan of plain integer bounds (no `Option` unwraps per step);
//! - cancellation and deadlines are polled only in a *controlled*
//!   session (`.control()` was called), together, every 64 heap steps —
//!   a quiescent session monomorphizes a loop body with no atomic loads
//!   and no clock reads at all, compiling to the pre-resilience hot
//!   path;
//! - observation (`.observe()`) attaches the event sink and interval
//!   sampler at engine construction and never enters the per-access
//!   path when disabled.
//!
//! Control and observation are deliberately *not* part of a point's
//! stable cache key: neither changes what a completed run simulates
//! (the golden equivalence tests pin this down byte-for-byte).

use crate::config::SimConfig;
use crate::engine::{Engine, RunControl};
use crate::error::SimError;
use crate::metrics::RunMetrics;
use slicc_obs::{ObsConfig, Observation};
use slicc_trace::WorkloadSpec;

/// One configured simulation run: workload + machine, with optional
/// external control and observation composed at the boundary. See the
/// [module docs](self) for the design.
pub struct RunSession<'a> {
    spec: &'a WorkloadSpec,
    cfg: &'a SimConfig,
    obs: ObsConfig,
    ctrl: Option<RunControl>,
}

/// What a finished [`RunSession`] produced: the metrics, plus the
/// observation artifacts when the session was observed.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The simulated results.
    pub metrics: RunMetrics,
    /// Event trace / interval series (`None` unless
    /// [`RunSession::observe`] requested any).
    pub obs: Option<Observation>,
}

impl<'a> RunSession<'a> {
    /// Stages a run of `spec` on the machine `cfg` describes, validating
    /// the configuration eagerly so misconfiguration surfaces here — at
    /// the boundary — rather than mid-sweep.
    pub fn new(spec: &'a WorkloadSpec, cfg: &'a SimConfig) -> Result<Self, SimError> {
        cfg.try_validate()?;
        Ok(RunSession { spec, cfg, obs: ObsConfig::disabled(), ctrl: None })
    }

    /// Arms external run control: the event loop polls `ctrl`'s
    /// cancellation token and wall-clock deadline every 64 heap steps.
    /// Control never changes the metrics of a run it does not abort;
    /// sessions that skip this call run the quiescent loop body, which
    /// performs no control polling at all.
    pub fn control(mut self, ctrl: RunControl) -> Self {
        self.ctrl = Some(ctrl);
        self
    }

    /// Requests observation artifacts (event trace and/or interval
    /// series; see [`ObsConfig`]). Observation never changes simulated
    /// results; a disabled config leaves the outcome's `obs` empty.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Builds the engine, runs the event loop to completion, and
    /// finalizes the outcome. Consumes the session: a run is executed
    /// exactly once.
    pub fn run(self) -> Result<RunOutcome, SimError> {
        let mut engine = Engine::try_new_with(self.spec, self.cfg, &self.obs)?;
        if let Some(ctrl) = self.ctrl {
            engine.attach_control(ctrl);
        }
        engine.try_execute()?;
        // Metrics capture happens outside the engine (the registry is
        // built from the finished metrics), so only events or an interval
        // series give the run an observation to attach.
        Ok(if self.obs.events || self.obs.epoch_cycles.is_some() {
            let (metrics, observation) = engine.into_outcome();
            RunOutcome { metrics, obs: Some(observation) }
        } else {
            RunOutcome { metrics: engine.into_metrics(), obs: None }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, SimConfigBuilder};
    use slicc_common::CancelToken;
    use slicc_trace::{TraceScale, Workload};
    use std::time::Instant;

    fn tiny() -> (WorkloadSpec, SimConfig) {
        (Workload::TpcC1.spec(TraceScale::tiny()), SimConfig::tiny_test())
    }

    #[test]
    fn a_quiescent_session_completes_and_attaches_no_observation() {
        let (spec, cfg) = tiny();
        let outcome = RunSession::new(&spec, &cfg).unwrap().run().unwrap();
        assert!(outcome.metrics.instructions > 0);
        assert!(outcome.obs.is_none(), "no .observe() call, no artifacts");
    }

    #[test]
    fn invalid_configurations_fail_at_the_boundary() {
        let (spec, _) = tiny();
        let mut cfg = SimConfig::tiny_test();
        cfg.thread_queue_capacity = 0;
        match RunSession::new(&spec, &cfg) {
            Err(SimError::Config(ConfigError::ZeroThreadQueue)) => {}
            other => panic!("expected a boundary config error, got {:?}", other.err()),
        }
    }

    #[test]
    fn control_that_never_fires_changes_nothing() {
        let (spec, cfg) = tiny();
        let quiescent = RunSession::new(&spec, &cfg).unwrap().run().unwrap();
        let controlled = RunSession::new(&spec, &cfg)
            .unwrap()
            .control(RunControl::unbounded())
            .run()
            .unwrap();
        assert_eq!(quiescent.metrics.digest(), controlled.metrics.digest());
        assert!(controlled.obs.is_none(), "control alone attaches no artifacts");
    }

    #[test]
    fn a_pre_cancelled_session_aborts_on_its_first_control_check() {
        let (spec, cfg) = tiny();
        let cancel = CancelToken::new();
        cancel.cancel();
        let ctrl = RunControl { cancel, deadline: None };
        match RunSession::new(&spec, &cfg).unwrap().control(ctrl).run() {
            Err(SimError::Cancelled(snap)) => {
                assert_eq!(snap.heap_steps, 1, "first control check lands on step 1");
            }
            other => panic!("expected Cancelled, got {:?}", other.err()),
        }
    }

    #[test]
    fn an_expired_deadline_aborts_on_its_first_control_check() {
        let (spec, cfg) = tiny();
        let ctrl = RunControl { cancel: CancelToken::new(), deadline: Some(Instant::now()) };
        match RunSession::new(&spec, &cfg).unwrap().control(ctrl).run() {
            Err(SimError::DeadlineExceeded(snap)) => {
                assert_eq!(snap.heap_steps, 1, "first control check lands on step 1");
            }
            other => panic!("expected DeadlineExceeded, got {:?}", other.err()),
        }
    }

    #[test]
    fn watchdog_fuel_lowers_into_the_epoch_plan_unchanged() {
        // A budget of N admits exactly N steps; zero trips immediately —
        // the same contract the pre-session loop enforced per step.
        let (spec, _) = tiny();
        let cfg = SimConfigBuilder::tiny_test().watchdog_steps(0).build().unwrap();
        match RunSession::new(&spec, &cfg).unwrap().run() {
            Err(SimError::Livelock(snap)) => assert_eq!(snap.heap_steps, 1),
            other => panic!("expected Livelock, got {:?}", other.err()),
        }
    }
}
