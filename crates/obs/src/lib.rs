//! Observability layer for the SLICC simulator (`slicc-obs`).
//!
//! Three concerns, one crate, zero cost when unused:
//!
//! - **Sim-time event tracing** — typed [`TraceEvent`]s (migrations,
//!   misses with 3C class, segment boundaries, thread lifecycle, stalls,
//!   steals, watchdog aborts) recorded into per-core overwrite-oldest
//!   rings by an [`EventSink`]. The sink is gated at run time by
//!   construction (a [`EventSink::disabled`] sink costs one load+test
//!   per instrumentation site). High-frequency events pass a
//!   deterministic 1-in-N sampler.
//! - **Interval time-series** — an [`IntervalSampler`] snapshots
//!   cumulative counters ([`ObsCounters`]) every N simulated cycles into
//!   an [`IntervalSeries`] of per-epoch deltas (MPKI, IPC, migrations
//!   per epoch) whose sums reconcile exactly with end-of-run totals.
//! - **Exporters & telemetry** — Chrome `trace_event` JSON
//!   ([`chrome_trace_json`], loadable in Perfetto), CSV/JSON series
//!   rendering, and the [`Reporter`] trait with quiet / warnings-only /
//!   plain / JSON-lines implementations for runner progress.
//!
//! The crate depends only on `slicc-common`, so every layer of the
//! simulator can emit into it without dependency cycles.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod progress;
pub mod ring;
pub mod series;
pub mod sink;

pub use chrome::{chrome_trace_json, TraceMeta};
pub use event::{EventKind, MigrationReason, MissKind, MissLevel, ThreeC, TraceEvent};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Log2Hist, MetricSample, MetricValue,
    MetricsRegistry, MetricsSnapshot,
};
pub use progress::{
    JsonLinesReporter, PlainReporter, ProgressEvent, ProgressKind, QuietReporter, Reporter,
    WarningsOnlyReporter,
};
pub use ring::EventRing;
pub use series::{Epoch, IntervalSampler, IntervalSeries, ObsCounters};
pub use sink::EventSink;

use slicc_common::Cycle;

/// What a simulation should observe. The disabled default is free; see
/// the crate docs for the cost ladder.
///
/// Deliberately **not** part of the run-cache key: observation never
/// changes simulated results, so an observed run and its unobserved twin
/// share a cache slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record the event trace.
    pub events: bool,
    /// Per-core event-ring capacity.
    pub event_capacity: usize,
    /// Keep 1 in N high-frequency (miss) events.
    pub sample_every: u64,
    /// Sample the interval series every this many simulated cycles
    /// (`None`: no series).
    pub epoch_cycles: Option<Cycle>,
    /// Capture the run's metrics into a registry snapshot.
    pub metrics: bool,
}

impl ObsConfig {
    /// Default per-core ring capacity.
    pub const DEFAULT_EVENT_CAPACITY: usize = 16 * 1024;
    /// Default miss-sampling period.
    pub const DEFAULT_SAMPLE_EVERY: u64 = 64;
    /// Default epoch length when a series is requested without one.
    pub const DEFAULT_EPOCH_CYCLES: Cycle = 10_000;

    /// Observe nothing (the default).
    pub const fn disabled() -> Self {
        ObsConfig {
            events: false,
            event_capacity: Self::DEFAULT_EVENT_CAPACITY,
            sample_every: Self::DEFAULT_SAMPLE_EVERY,
            epoch_cycles: None,
            metrics: false,
        }
    }

    /// Returns a copy with event tracing on.
    pub fn with_events(mut self) -> Self {
        self.events = true;
        self
    }

    /// Returns a copy with the per-core ring capacity set.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.events = true;
        self.event_capacity = capacity.max(1);
        self
    }

    /// Returns a copy with the miss-sampling period set.
    pub fn with_sample_every(mut self, n: u64) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// Returns a copy with interval sampling on at `epoch_cycles`.
    pub fn with_epochs(mut self, epoch_cycles: Cycle) -> Self {
        self.epoch_cycles = Some(epoch_cycles.max(1));
        self
    }

    /// Returns a copy with metrics capture on: the run's counters are
    /// exported into a [`MetricsRegistry`] snapshot.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::disabled()
    }
}

/// What a simulation observed: the artifacts attached to a run result
/// when its [`ObsConfig`] asked for events or an interval series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Observation {
    /// The merged event timeline (cycle-ordered; empty unless
    /// [`ObsConfig::events`]).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrite (the trace kept the most recent
    /// window when this is non-zero).
    pub dropped_events: u64,
    /// The interval series, when [`ObsConfig::epoch_cycles`] was set.
    pub series: Option<IntervalSeries>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_default_and_inert() {
        let cfg = ObsConfig::default();
        assert_eq!(cfg, ObsConfig::disabled());
        assert!(!cfg.events && cfg.epoch_cycles.is_none() && !cfg.metrics);
    }

    #[test]
    fn builders_enable_and_clamp() {
        let cfg = ObsConfig::disabled().with_event_capacity(0).with_sample_every(0).with_epochs(0);
        assert!(cfg.events);
        assert_eq!(cfg.event_capacity, 1);
        assert_eq!(cfg.sample_every, 1);
        assert_eq!(cfg.epoch_cycles, Some(1));
    }

    #[test]
    fn metrics_flag_enables_observation_without_events() {
        let cfg = ObsConfig::disabled().with_metrics();
        assert!(cfg.metrics);
        assert!(!cfg.events);
        assert_eq!(cfg.epoch_cycles, None);
    }
}
