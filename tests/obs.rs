//! Integration gates for the observability layer (`slicc-obs`).
//!
//! Pins down the three contracts ISSUE-4 promises:
//!
//! 1. **Invariance** — observing a run never changes what it simulates:
//!    the observed point's `RunMetrics::digest()` equals its unobserved
//!    twin's (and therefore the golden capture).
//! 2. **Reconciliation** — the interval series is an exact decomposition
//!    of the run totals: summing epoch deltas reproduces `RunMetrics`
//!    instructions / misses / migrations with no drift.
//! 3. **Export stability** — the Chrome trace renders deterministically
//!    (byte-identical across runs of the same point) and well-formed.
//!
//! One ignored test bounds the host-time cost of full observation; it
//! is a timing check, so run it in release:
//! `cargo test --release -p slicc-sim --test obs -- --ignored`.

use slicc_sim::{
    chrome_trace_json, ObsConfig, RunError, RunRequest, RunSession, Runner, SchedulerMode,
    SimConfig, SimError, TraceMeta, WatchdogConfig,
};
use slicc_trace::{TraceScale, Workload};
use std::time::Instant;

fn observed_request(mode: SchedulerMode) -> RunRequest {
    RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test().with_mode(mode))
        .with_obs(ObsConfig::disabled().with_events().with_epochs(5_000))
}

#[test]
fn observation_never_changes_simulated_results() {
    for mode in [SchedulerMode::Baseline, SchedulerMode::Slicc, SchedulerMode::Steps] {
        let plain = RunRequest::new(
            Workload::TpcC1,
            TraceScale::tiny(),
            SimConfig::tiny_test().with_mode(mode),
        );
        let observed = observed_request(mode);
        assert_eq!(
            plain.stable_key(),
            observed.stable_key(),
            "obs config must not enter the cache key"
        );
        let plain = plain.try_execute().expect("plain point completes");
        let observed = observed.try_execute().expect("observed point completes");
        assert_eq!(
            plain.metrics.digest(),
            observed.metrics.digest(),
            "[{mode:?}] observing a run must not change what it simulates"
        );
        assert!(plain.obs.is_none(), "unobserved runs carry no observation");
        let obs = observed.obs.as_ref().expect("observed runs carry an observation");
        assert!(!obs.events.is_empty(), "[{mode:?}] the tiny run must record events");
        assert!(obs.series.is_some(), "[{mode:?}] epochs were requested");
    }
}

#[test]
fn interval_series_reconciles_exactly_with_run_metrics() {
    for mode in [SchedulerMode::Slicc, SchedulerMode::SliccSw] {
        let result = observed_request(mode).try_execute().expect("point completes");
        let series = result.obs.as_ref().and_then(|o| o.series.as_ref()).expect("series present");
        let totals = series.totals();
        let m = &result.metrics;
        assert_eq!(totals.instructions, m.instructions, "[{mode:?}] instructions");
        assert_eq!(totals.i_misses, m.i_misses, "[{mode:?}] L1-I misses");
        assert_eq!(totals.d_misses, m.d_misses, "[{mode:?}] L1-D misses");
        assert_eq!(totals.migrations, m.migrations, "[{mode:?}] migrations");
        // Epochs tile the run: contiguous, ending at the makespan.
        let mut prev = 0;
        for e in &series.epochs {
            assert_eq!(e.start_cycle, prev, "[{mode:?}] epochs must be contiguous");
            prev = e.end_cycle;
        }
        assert_eq!(prev, m.cycles, "[{mode:?}] the final epoch closes at the makespan");
    }
}

#[test]
fn chrome_trace_renders_deterministically_and_well_formed() {
    let render = || {
        let result = observed_request(SchedulerMode::Slicc).try_execute().expect("completes");
        let obs = result.obs.expect("observation present");
        let meta = TraceMeta {
            workload: result.metrics.workload.clone(),
            mode: result.metrics.mode.clone(),
            cores: SimConfig::tiny_test().cores,
        };
        chrome_trace_json(&obs.events, &meta)
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "the same point must render a byte-identical trace");
    // The writer never emits braces inside strings, so well-formedness
    // reduces to balance (the CLI smoke in ci.sh json-parses a real one).
    assert_eq!(a.matches('{').count(), a.matches('}').count(), "unbalanced braces");
    assert_eq!(a.matches('[').count(), a.matches(']').count(), "unbalanced brackets");
    assert!(a.contains("\"traceEvents\""));
    assert!(a.contains("\"thread_name\""));
    assert_eq!(
        a.matches("\"ph\": \"B\"").count(),
        a.matches("\"ph\": \"E\"").count(),
        "B/E slices must pair"
    );
}

#[test]
fn runner_attaches_observations_to_fresh_points_only() {
    let runner = Runner::new(2);
    let observed = observed_request(SchedulerMode::Slicc);
    let plain = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test());
    let results = runner.run_all(&[observed, plain]);
    let observed = results[0].as_ref().expect("observed point completes");
    let plain = results[1].as_ref().expect("plain point completes");
    assert!(observed.obs.is_some(), "runner must carry the observation through");
    assert!(plain.obs.is_none());
}

#[test]
fn livelock_snapshot_carries_recent_events_and_series_tail() {
    let req = RunRequest::new(
        Workload::TpcC1,
        TraceScale::tiny(),
        SimConfig {
            watchdog: WatchdogConfig { max_heap_steps: Some(200), max_cycles: None },
            ..SimConfig::tiny_test()
        },
    )
    .with_obs(ObsConfig::disabled().with_events().with_epochs(50));
    let runner = Runner::new(1);
    let results = runner.run_all(std::slice::from_ref(&req));
    match &results[0] {
        Err(RunError::Sim { error: SimError::Livelock(snapshot), .. }) => {
            assert!(
                !snapshot.recent_events.is_empty(),
                "an observed livelock must ship its recent event window"
            );
            assert!(
                !snapshot.series_tail.is_empty(),
                "an observed livelock must ship its series tail"
            );
        }
        other => panic!("expected Livelock, got {other:?}"),
    }
}

/// The obs-overhead rule: full observation (event trace, interval
/// series and metrics capture) costs at most 15 % over the same point
/// run bare. Bare and observed runs alternate, each pair in the other
/// order than the last, so the host's slow spells fall on both sides;
/// the check is on the median of the per-pair ratios.
#[test]
#[ignore = "host-timing check; run in release with --ignored"]
fn full_observation_costs_at_most_fifteen_percent_over_a_bare_run() {
    const PAIRS: usize = 5;
    let bare = RunRequest::new(
        Workload::TpcC1,
        TraceScale::small(),
        SimConfig::paper_baseline().with_mode(SchedulerMode::Slicc),
    );
    let observed = bare.clone().with_obs(
        ObsConfig::disabled()
            .with_events()
            .with_epochs(ObsConfig::DEFAULT_EPOCH_CYCLES)
            .with_metrics(),
    );
    let spec = bare.spec();
    let secs = |req: &RunRequest| {
        let start = Instant::now();
        let session = RunSession::new(&spec, &req.config).expect("valid config");
        session.observe(req.obs).run().expect("point completes");
        start.elapsed().as_secs_f64()
    };
    secs(&bare); // warm-up
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let b = secs(&bare);
                secs(&observed) / b
            } else {
                let o = secs(&observed);
                o / secs(&bare)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    assert!(
        median <= 1.15,
        "full observation costs {median:.3}x a bare run, over the 1.15x budget \
         (per-pair ratios {ratios:.3?})"
    );
}
