//! The full SLICC chip-multiprocessor simulator.
//!
//! This crate assembles every substrate of the workspace into the Table-2
//! machine — 16 out-of-order cores with private 32 KiB L1s, a 4×4 torus,
//! a 16-bank shared NUCA L2 with MESI-style coherence for the L1-Ds, and
//! DDR3-1600 memory — and executes synthetic workload traces under six
//! execution modes:
//!
//! | Mode | Meaning |
//! |---|---|
//! | `Baseline` | OS scheduling, one thread per core, no migration |
//! | `Baseline` + next-line | adds the §5.6 next-line L1-I prefetcher |
//! | `Baseline` + PIF model | 512 KiB L1-I at 32 KiB latency (§5.6's PIF upper bound) |
//! | `Slicc` | transaction-type-oblivious thread migration (§4.1) |
//! | `SliccSw` | software-provided types, team scheduling (§4.3) |
//! | `SliccPp` | scout-core type detection, team scheduling (§4.3.1) |
//! | `Steps` | STEPS-style time multiplexing on single cores (§6 comparison) |
//!
//! # Example
//!
//! Experiment points are described by [`RunRequest`]s and executed by a
//! [`Runner`], which fans independent points across host cores and
//! memoizes completed ones:
//!
//! ```no_run
//! use slicc_sim::{RunRequest, Runner, SchedulerMode, SimConfig};
//! use slicc_trace::{TraceScale, Workload};
//!
//! let runner = Runner::with_default_parallelism();
//! let base = RunRequest::new(Workload::TpcC1, TraceScale::small(), SimConfig::paper_baseline());
//! let slicc = base.clone().with_mode(SchedulerMode::SliccSw);
//! let results = runner.run_all(&[base, slicc]);
//! let (base, slicc) = (results[0].as_ref().unwrap(), results[1].as_ref().unwrap());
//! let speedup = base.metrics.cycles as f64 / slicc.metrics.cycles as f64;
//! println!("speedup: {speedup:.2}x");
//! ```
//!
//! Each point is fault-isolated: `run_all` returns one
//! `Result<RunResult, RunError>` per request, so a panicking or
//! livelocking point (see [`WatchdogConfig`]) reports a typed [`RunError`]
//! while the rest of the batch completes. A failed point runs once and is
//! never cached.
//!
//! Long-lived embeddings submit one request at a time through
//! [`Runner::submit`] (or a [`SimService`] handle): the run cache is
//! byte-bounded and LRU-evicting ([`Runner::set_cache_bytes`]), a
//! request for a point already in flight — submitted or batched —
//! attaches to that one simulation, and load beyond the admission
//! policy ([`ServiceConfig`]) is shed with a typed
//! [`RunError::Overloaded`] instead of queueing without bound (see
//! [`mod@service`]).
//!
//! A configuration is a [`SimConfig`] preset
//! ([`SimConfig::paper_baseline`], [`SimConfig::tiny_test`]) changed
//! through its `with_*` methods and public fields.
//! [`SimConfig::try_validate`] checks the cross-field invariants and
//! reports a violation as a typed [`ConfigError`]; every run checks them
//! before it simulates, and a caller that wants the error early calls it
//! directly. Custom [`slicc_trace::WorkloadSpec`]s that no preset
//! [`slicc_trace::Workload`] describes run through a [`RunSession`]
//! (`RunSession::new(&spec, &cfg)?.run()`), the single engine entry
//! point that composes control and observation at the boundary.

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod runner;
pub mod service;
pub mod session;
mod shard;
pub mod system;
pub mod telemetry;

pub use config::{
    ConfigError, DeadlineConfig, InjectedFault, SchedulerMode, SimConfig, WatchdogConfig,
};
pub use engine::{Engine, RunControl};
pub use error::{HotThread, LivelockSnapshot, PointSummary, RunError, SimError};
pub use metrics::RunMetrics;
pub use runner::{RunRequest, RunResult, Runner, RunnerStats};
pub use service::{
    BoundedResultCache, PressureSnapshot, ServiceConfig, SimService, DEFAULT_CACHE_BYTES,
};
pub use session::{RunOutcome, RunSession};
pub use system::System;
pub use telemetry::{export_run_metrics, export_runner_stats, export_service};

// The observability vocabulary, re-exported so binaries and tests reach
// everything through `slicc_sim` (see the `slicc-obs` crate docs).
pub use slicc_obs::{
    chrome_trace_json, Epoch, EventKind, IntervalSeries, JsonLinesReporter, MetricSample,
    MetricValue, MetricsRegistry, MetricsSnapshot, MigrationReason, MissKind, MissLevel, ObsConfig,
    Observation, PlainReporter, ProgressEvent, ProgressKind, QuietReporter, Reporter, ThreeC,
    TraceEvent, TraceMeta, WarningsOnlyReporter,
};
