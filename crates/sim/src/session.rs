//! The single engine entry point: [`RunSession`].
//!
//! A session stages one simulation — a workload spec on a machine — and
//! composes the cross-cutting concerns at the boundary, before the event
//! loop starts:
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
//! - the configuration is validated in [`RunSession::new`];
//! - watchdog fuel and injected stalls lower into plain integer loop
//!   bounds;
//! - control (`.control()`) hands the engine a cancellation token and a
//!   deadline, which its one event loop polls every 64 heap steps; a
//!   session without control gets [`RunControl::default`], which never
//!   fires;
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
    ctrl: RunControl,
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
        Ok(RunSession { spec, cfg, obs: ObsConfig::disabled(), ctrl: RunControl::default() })
    }

    /// Arms external run control: the event loop polls `ctrl`'s
    /// cancellation token and wall-clock deadline every 64 heap steps.
    /// Control never changes the metrics of a run it does not abort.
    pub fn control(mut self, ctrl: RunControl) -> Self {
        self.ctrl = ctrl;
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
        let mut engine = Engine::try_new_with(self.spec, self.cfg, &self.obs, self.ctrl)?;
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
    use crate::config::{ConfigError, SchedulerMode};
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
        let uncontrolled = RunSession::new(&spec, &cfg).unwrap().run().unwrap();
        let controlled =
            RunSession::new(&spec, &cfg).unwrap().control(RunControl::unbounded()).run().unwrap();
        assert_eq!(uncontrolled.metrics.digest(), controlled.metrics.digest());
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
        let mut cfg = SimConfig::tiny_test();
        cfg.watchdog.max_heap_steps = Some(0);
        match RunSession::new(&spec, &cfg).unwrap().run() {
            Err(SimError::Livelock(snap)) => assert_eq!(snap.heap_steps, 1),
            other => panic!("expected Livelock, got {:?}", other.err()),
        }
    }

    /// A small random workload: one or two transaction types over 12-block
    /// segments with layout gaps, random loop lengths, shared segments,
    /// task count, data ratio and seed.
    fn random_builder_spec(rng: &mut slicc_common::SplitMix64) -> WorkloadSpec {
        use slicc_trace::{CodeParams, DataParams, DataPattern, WorkloadBuilder};
        let mut builder = WorkloadBuilder::new("random")
            .seed(rng.next_u64())
            .tasks(rng.next_below(4) as u32 + 1)
            .segment_blocks(12)
            .code_gap_prob(0.3)
            .shared_segments(rng.next_below(3) as usize)
            .code_params(CodeParams {
                instrs_per_block: 8,
                passes_per_visit: 2,
                skip_prob: 0.05,
                sequential_run_blocks: 2,
            })
            .data_params(DataParams {
                data_ratio: rng.next_f64() * 0.5,
                store_frac: 0.45,
                pattern: DataPattern::OltpMix { p_hot: 0.3, p_recent: 0.5, hot_store_frac: 0.01 },
                db_blocks: 10_000,
                hot_blocks: 16,
            });
        for i in 0..rng.next_below(2) + 1 {
            let specific = rng.next_below(2) as usize + 1;
            let loop_iters = rng.next_below(6) as u32 + 2;
            builder = builder.txn_type(format!("type{i}"), 1.0 + i as f64, specific, loop_iters);
        }
        builder.build()
    }

    /// Every mode, on random builder workloads: a rerun is digest-identical,
    /// every thread completes, every traced instruction retires once, and
    /// the miss and migration counters stay consistent.
    #[test]
    fn random_builder_workloads_are_deterministic_and_conserve_work() {
        let mut rng = slicc_common::SplitMix64::new(0x5e55);
        for case in 0..8 {
            let spec = random_builder_spec(&mut rng);
            let traced: u64 = spec.threads().map(|t| spec.thread_trace(t).count() as u64).sum();
            for mode in SchedulerMode::WITH_STEPS {
                let cfg = SimConfig::tiny_test().with_mode(mode);
                let m = RunSession::new(&spec, &cfg).unwrap().run().unwrap().metrics;
                let again = RunSession::new(&spec, &cfg).unwrap().run().unwrap().metrics;
                assert_eq!(m.digest(), again.digest(), "case {case} {mode}: rerun diverged");
                assert_eq!(m.completed_threads, u64::from(spec.num_tasks), "case {case} {mode}");
                assert_eq!(m.instructions, traced, "case {case} {mode}");
                assert!(m.cycles > 0, "case {case} {mode}");
                assert!(m.i_misses <= m.i_accesses, "case {case} {mode}");
                assert!(m.d_misses <= m.d_accesses, "case {case} {mode}");
                assert_eq!(
                    m.migrations,
                    m.matched_migrations + m.idle_migrations,
                    "case {case} {mode}"
                );
            }
        }
    }
}
