//! A literal reconstruction of the paper's Figure 4 scenario.
//!
//! "Threads T1-T5 are scheduled to run on an 8-core system, where T1-T3
//! and T4-T5 execute respectively transactions of the same type. The
//! transactions' footprints are divided into code segments, where each
//! segment fits in the L1-I cache of a single core, but two segments
//! would not fit together. T1 executes the following code segments in
//! order: A-B-C-A."
//!
//! These tests build hand-crafted workloads with exactly that structure
//! and verify the behaviours the figure illustrates: intra-thread reuse
//! (T1 returning to A hits the core that still caches A), inter-thread
//! reuse (T2 reuses the blocks T1 loaded), and collective assembly.

use slicc_sim::{Engine, RunMetrics, RunSession, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, WorkloadBuilder, WorkloadSpec};

/// Runs one point through the session API, panicking on any error (these
/// scenarios are hand-crafted and must always complete).
fn run(spec: &WorkloadSpec, cfg: &SimConfig) -> RunMetrics {
    RunSession::new(spec, cfg).expect("valid config").run().expect("scenario completes").metrics
}

/// Segment size in blocks: fits the 4 KiB (64-block) test L1-I; two do
/// not fit together.
const SEG_BLOCKS: u32 = 48;

/// Builds a workload of `tasks` identical-type threads whose plan loops
/// over `n_segments` segments (A, B, C, ... A, B, C ...), with no data
/// accesses (pure instruction behaviour, as in Figure 4).
fn figure4_workload(tasks: u32, n_segments: usize, loop_iters: u32) -> WorkloadSpec {
    WorkloadBuilder::new("figure4")
        .seed(7)
        .tasks(tasks)
        .segment_blocks(SEG_BLOCKS)
        .txn_type("T", 1.0, n_segments, loop_iters)
        .no_data()
        .build()
}

fn cfg(mode: SchedulerMode) -> SimConfig {
    SimConfig::tiny_test().with_mode(mode)
}

#[test]
fn single_thread_baseline_thrashes_on_abca() {
    // One thread looping A-B-C on one core: every segment revisit misses
    // (the conventional-system half of Figure 4).
    let spec = figure4_workload(1, 3, 4);
    let m = run(&spec, &cfg(SchedulerMode::Baseline));
    assert_eq!(m.completed_threads, 1);
    // With ~3 segments x 24 blocks cycling through a 32-block cache, LRU
    // retains almost nothing across revisits: misses approach one per
    // block visit (2 passes share one fill).
    let visits_blocks = m.i_misses as f64;
    assert!(visits_blocks > 200.0, "expected heavy thrash, got {} misses", m.i_misses);
}

#[test]
fn single_thread_slicc_spreads_footprint_and_reuses_it() {
    // The same thread under SLICC on 16 cores: it spreads A, B, C over
    // idle cores and its revisits hit (intra-thread reuse, t3 in
    // Figure 4).
    let spec = figure4_workload(1, 3, 4);
    let base = run(&spec, &cfg(SchedulerMode::Baseline));
    let slicc = run(&spec, &cfg(SchedulerMode::Slicc));
    assert_eq!(slicc.completed_threads, 1);
    assert!(slicc.migrations > 0, "the thread must migrate");
    // A lone thread is SLICC's weakest case: every core it vacates gets
    // its MC reset (§4.2.1), so returning visits may overwrite useful
    // segments. The benefit is real but modest.
    assert!(
        (slicc.i_misses as f64) < 0.85 * base.i_misses as f64,
        "SLICC should still cut misses: base {} vs slicc {}",
        base.i_misses,
        slicc.i_misses
    );
    // The footprint did spread over several caches.
    assert!(slicc.mean_cores_per_thread > 2.0);
}

#[test]
fn followers_reuse_leader_footprint() {
    // T1-T3 of the same type: once T1 has distributed A-B-C over the
    // collective, T2 and T3 should miss far less than 3x the single
    // thread's misses (inter-thread reuse, t1 in Figure 4).
    let spec1 = figure4_workload(1, 3, 4);
    let spec3 = figure4_workload(3, 3, 4);
    let one = run(&spec1, &cfg(SchedulerMode::Slicc));
    let three = run(&spec3, &cfg(SchedulerMode::Slicc));
    assert_eq!(three.completed_threads, 3);
    // Followers reuse what the leader loaded: per-thread misses must
    // drop below the lone thread's.
    assert!(
        (three.i_misses as f64) / 3.0 < 0.9 * one.i_misses as f64,
        "followers should reuse the leader's blocks: 1 thread {} misses, 3 threads {}",
        one.i_misses,
        three.i_misses
    );
}

#[test]
fn slicc_beats_baseline_on_figure4_pipeline() {
    // The full Figure 4 payoff: many same-type threads, footprint 3x the
    // L1. SLICC must deliver both fewer misses and better performance.
    let spec = figure4_workload(32, 3, 4);
    let base = run(&spec, &cfg(SchedulerMode::Baseline));
    let slicc = run(&spec, &cfg(SchedulerMode::Slicc));
    assert!(
        (slicc.i_misses as f64) < 0.65 * base.i_misses as f64,
        "expected >35% miss reduction: base {} slicc {}",
        base.i_misses,
        slicc.i_misses
    );
    assert!(
        slicc.speedup_over(&base) > 1.0,
        "expected speedup, got {:.3}",
        slicc.speedup_over(&base)
    );
}

#[test]
fn different_type_teams_use_disjoint_cores() {
    // T4-T5 of a second type "benefit as well if they get assigned to a
    // different set of cores". Under SLICC-SW, two medium teams must be
    // placed on different halves.
    let spec = WorkloadBuilder::new("figure4-two-types")
        .seed(7)
        .tasks(20)
        .segment_blocks(SEG_BLOCKS)
        .txn_type("A", 1.0, 3, 4)
        .txn_type("B", 1.0, 3, 4)
        .no_data()
        .build();
    let m = run(&spec, &cfg(SchedulerMode::SliccSw));
    assert_eq!(m.completed_threads, 20);
    // Both types present in a 20-thread mix at ~10 threads each: medium
    // teams on a 16-core machine.
    assert!(m.stray_fraction < 0.5, "most threads should be in teams");
}

#[test]
fn engine_is_deterministic() {
    let spec = figure4_workload(6, 3, 4);
    let a = run(&spec, &cfg(SchedulerMode::Slicc));
    let b = run(&spec, &cfg(SchedulerMode::Slicc));
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.i_misses, b.i_misses);
    assert_eq!(a.migrations, b.migrations);
}

#[test]
fn engine_exposes_progress() {
    let spec = figure4_workload(2, 3, 4);
    let config = cfg(SchedulerMode::Slicc);
    let mut engine = Engine::try_new(&spec, &config).expect("valid config");
    engine.try_execute().expect("run completes");
    assert_eq!(engine.completed(), 2);
    let m = engine.into_metrics();
    assert_eq!(m.completed_threads, 2);
}

#[test]
fn mapreduce_like_small_footprint_is_unaffected() {
    // A footprint that fits one L1 must neither migrate much nor slow
    // down (the paper's MapReduce robustness result, §5.6). Like the
    // paper's 300-task MapReduce, the machine is fully loaded: with no
    // idle cores, threads load the kernel locally and never migrate.
    let spec = figure4_workload(32, 1, 60);
    let base = run(&spec, &cfg(SchedulerMode::Baseline));
    let slicc = run(&spec, &cfg(SchedulerMode::Slicc));
    let ratio = slicc.speedup_over(&base);
    assert!(ratio > 0.95, "small footprint must not regress: {ratio:.3}");
}

#[test]
fn trace_scale_tiny_matches_tiny_config_property() {
    // The tiny preset used across the test suite keeps the fits/doesn't
    // fit property against the tiny machine.
    let geom = SimConfig::tiny_test().l1i_geometry();
    let seg = TraceScale::tiny().segment_blocks as u64;
    assert!(seg <= geom.num_blocks());
    assert!(2 * seg > geom.num_blocks());
}
