//! Golden-determinism gate for simulator performance work.
//!
//! The digests below were captured on the *pre-optimization* hot path
//! (before the allocation-free memory system, bitmask cache lookup, spec
//! memoization, and idle-set engine landed). Every scheduler mode's full
//! [`slicc_sim::RunMetrics`] must reproduce them exactly: optimizing the
//! simulator must never change what it simulates. If a *deliberate* model
//! change lands, re-capture with `cargo test --test golden -- --nocapture`
//! and update the table in the same commit that changes the model.

use slicc_cache::PolicyKind;
use slicc_sim::{ObsConfig, RunControl, RunRequest, RunSession, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

/// Golden digests of the full metrics struct, one per mode, on the tiny
/// TPC-C-1 workload under `SimConfig::tiny_test()`. Re-captured once for
/// the split-step engine (DESIGN.md §13): deferring cross-core coherence
/// effects to step barriers is a deliberate, uniformly-applied model
/// change, so the digests moved exactly once.
const GOLDEN: [(SchedulerMode, u64); 5] = [
    (SchedulerMode::Baseline, 0xbd28ed3fc9c55726),
    (SchedulerMode::Slicc, 0x33c3295a1792268b),
    (SchedulerMode::SliccSw, 0x6e9bc22167b0a6a7),
    (SchedulerMode::SliccPp, 0xc8ff72fac95fc811),
    (SchedulerMode::Steps, 0xe8e91436bdd53261),
];

fn digest_of(mode: SchedulerMode) -> u64 {
    let req = RunRequest::new(
        Workload::TpcC1,
        TraceScale::tiny(),
        SimConfig::tiny_test().with_mode(mode),
    );
    req.try_execute().expect("tiny point completes").metrics.digest()
}

#[test]
fn metrics_are_byte_identical_to_pre_optimization_capture() {
    let mut drifted = Vec::new();
    for (mode, want) in GOLDEN {
        let got = digest_of(mode);
        println!("    (SchedulerMode::{mode:?}, 0x{got:016x}),");
        if got != want {
            drifted.push((mode, want, got));
        }
    }
    assert!(drifted.is_empty(), "simulated results drifted from the golden capture: {drifted:x?}");
}

#[test]
fn digest_is_stable_across_runs_and_sensitive_to_results() {
    let a = digest_of(SchedulerMode::Slicc);
    let b = digest_of(SchedulerMode::Slicc);
    assert_eq!(a, b, "same point must digest identically");
    assert_ne!(a, digest_of(SchedulerMode::Baseline), "different runs must differ");
}

/// Every [`RunSession`] composition — uncontrolled, observed,
/// controlled-but-never-fired — must simulate the same machine: each
/// reproduces the golden digest in every mode. Neither observation nor
/// control may change what a completed run simulates.
#[test]
fn run_session_compositions_all_match_the_golden_digest_in_every_mode() {
    for (mode, want) in GOLDEN {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        let cfg = SimConfig::tiny_test().with_mode(mode);

        let uncontrolled = RunSession::new(&spec, &cfg).unwrap().run().unwrap().metrics.digest();
        let observed = RunSession::new(&spec, &cfg)
            .unwrap()
            .observe(ObsConfig::disabled().with_events().with_epochs(1_000))
            .run()
            .unwrap()
            .metrics
            .digest();
        let controlled = RunSession::new(&spec, &cfg)
            .unwrap()
            .control(RunControl::unbounded())
            .run()
            .unwrap()
            .metrics
            .digest();

        for (what, got) in [
            ("uncontrolled session", uncontrolled),
            ("observed session", observed),
            ("controlled session", controlled),
        ] {
            assert_eq!(got, want, "{mode:?}: {what} drifted from the golden digest");
        }
    }
}

/// Resource governance — a bounded cache, admission limits, a service
/// front door — must never change what a finished run computes: the
/// golden digests reproduce under a thrashing byte budget and through
/// [`slicc_sim::SimService`] submission alike (DESIGN.md §12).
#[test]
fn governed_runners_reproduce_the_golden_digests() {
    use slicc_sim::{Runner, ServiceConfig, SimService};
    use std::sync::Arc;

    let runner = Arc::new(Runner::new(2));
    runner.set_cache_bytes(64); // far below one entry: every insert evicts
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 2, queue_limit: 8 });
    for (mode, want) in GOLDEN {
        let req = RunRequest::new(
            Workload::TpcC1,
            TraceScale::tiny(),
            SimConfig::tiny_test().with_mode(mode),
        );
        let got = service.submit(&req).expect("governed submission completes").metrics.digest();
        assert_eq!(got, want, "{mode:?}: governance changed a simulated result");
    }
    assert!(runner.stats().cache_bytes <= 64, "the byte budget must hold");
}

/// Metrics capture (the registry snapshot) observes a run's counters; it
/// must never touch what is simulated. Every mode with capture on lands
/// on the golden digest byte-for-byte. The registry is built from the
/// finished metrics, so a metrics-only run attaches no observation.
#[test]
fn metrics_capture_never_changes_simulated_results() {
    for (mode, want) in GOLDEN {
        let spec = Workload::TpcC1.spec(TraceScale::tiny());
        let cfg = SimConfig::tiny_test().with_mode(mode);
        let outcome = RunSession::new(&spec, &cfg)
            .unwrap()
            .observe(ObsConfig::disabled().with_metrics())
            .run()
            .unwrap();
        assert_eq!(
            outcome.metrics.digest(),
            want,
            "{mode:?}: metrics capture drifted from the golden digest"
        );
        assert!(
            outcome.obs.is_none(),
            "{mode:?}: metrics capture alone must attach no observation"
        );
    }
}

const MODES: [SchedulerMode; 5] = [
    SchedulerMode::Baseline,
    SchedulerMode::Slicc,
    SchedulerMode::SliccSw,
    SchedulerMode::SliccPp,
    SchedulerMode::Steps,
];

/// Tiny MapReduce under `SimConfig::tiny_test()`, one digest per mode in
/// [`MODES`] order: the streaming data pattern's scan cursor.
const GOLDEN_MAPREDUCE: [u64; 5] = [
    0xb64e35a44e1bccef,
    0x7917f0e029aaac33,
    0xe2833d384059266b,
    0xac249babe207dfa5,
    0x51f56e31b922001b,
];

/// Tiny TPC-E under `SimConfig::tiny_test()`, per mode in [`MODES`] order.
const GOLDEN_TPCE: [u64; 5] = [
    0x0f7ca9a97b25e9ab,
    0xa00b3e266caefad3,
    0xd08ff6bc0a6ae270,
    0x6683f46c49d766ba,
    0xc9375fdc98b99130,
];

/// Tiny TPC-C-1 with a degree-1 next-line prefetcher, per mode in
/// [`MODES`] order. A prefetcher sends every fetch-block transition down
/// the blocking path, which private segments otherwise skip.
const GOLDEN_NEXT_LINE: [u64; 5] = [
    0xb5af4a20d8592b76,
    0xea80f1bcfba16f3f,
    0x5e04ba71bea523b2,
    0xa15772c5ad636c9e,
    0xfb05d8ec0beffcba,
];

fn tiny_digest(workload: Workload, cfg: SimConfig) -> u64 {
    RunRequest::new(workload, TraceScale::tiny(), cfg)
        .try_execute()
        .expect("tiny point completes")
        .metrics
        .digest()
}

/// The workloads and prefetch configurations beyond tiny TPC-C-1 that
/// the per-record fast path serves, pinned to their captured digests.
#[test]
fn other_workloads_and_prefetchers_match_their_golden_digests() {
    let mut drifted = Vec::new();
    let cases = [
        ("MapReduce", Workload::MapReduce, SimConfig::tiny_test(), GOLDEN_MAPREDUCE),
        ("TPC-E", Workload::TpcE, SimConfig::tiny_test(), GOLDEN_TPCE),
        (
            "next-line 1",
            Workload::TpcC1,
            SimConfig::tiny_test().with_next_line(1),
            GOLDEN_NEXT_LINE,
        ),
    ];
    for (what, workload, cfg, golden) in cases {
        for (mode, want) in MODES.into_iter().zip(golden) {
            let got = tiny_digest(workload, cfg.clone().with_mode(mode));
            println!("    {what} {mode:?} 0x{got:016x}");
            if got != want {
                drifted.push((what, mode, want, got));
            }
        }
    }
    // Both PIF configurations run baseline scheduling only: the paper's
    // upper-bound model (a 512 KiB L1-I) and the real history-buffer
    // prefetcher, whose fills take the blocking path like next-line's.
    for (what, cfg, want) in [
        ("PIF model", SimConfig::tiny_test().with_pif_model(), 0x480c30d97886fdb6),
        ("real PIF", SimConfig::tiny_test().with_real_pif(), 0x1c30892ffd027f46),
    ] {
        let got = tiny_digest(Workload::TpcC1, cfg);
        println!("    {what} 0x{got:016x}");
        if got != want {
            drifted.push((what, SchedulerMode::Baseline, want, got));
        }
    }
    assert!(drifted.is_empty(), "simulated results drifted from the golden capture: {drifted:x?}");
}

/// Tiny TPC-C-1 with 3C classification, per mode in [`MODES`] order:
/// private L1-I and L1-D hits feed both classifiers.
const GOLDEN_CLASSIFIED: [u64; 5] = [
    0xc018e9b2113d65d1,
    0x1dbc5247cd08e241,
    0x46fc09b099df1201,
    0xe84397928e241e6f,
    0xc6675f266d520d50,
];

/// Tiny TPC-C-10 under `SimConfig::tiny_test()`, per mode in [`MODES`]
/// order: the larger private region and its lower hot-set share.
const GOLDEN_TPCC10: [u64; 5] = [
    0x8aa7c61e01f1d38b,
    0x2b8de585a8e620aa,
    0x58ce7bb9b31dc97d,
    0x99da6091a947b63c,
    0x9f69c90de748e869,
];

/// Tiny TPC-C-1 under the insertion and RRIP policies whose hit and
/// insert paths LRU does not take: the stack promote and demote (LIP,
/// BIP, DIP) and the RRIP hit update (SRRIP). Baseline, then SLICC-SW.
const GOLDEN_POLICIES: [(PolicyKind, [u64; 2]); 4] = [
    (PolicyKind::Lip, [0x984861061aae6722, 0x2d0e26c15ffa1ca9]),
    (PolicyKind::Bip, [0x8c1ea56f8d40a08a, 0x3a5160ad959ec0c1]),
    (PolicyKind::Dip, [0x14fb173966f3daae, 0xd2b79f5b294194f5]),
    (PolicyKind::Srrip, [0x3d1ad6c00413226c, 0xeff69165d6bf6f63]),
];

/// Classification, TPC-C-10 and the replacement policies, pinned to
/// digests captured before the fused record path landed.
#[test]
fn classification_tpcc10_and_policies_match_their_golden_digests() {
    let mut drifted = Vec::new();
    let mut check = |what: String, cfg: SimConfig, workload: Workload, want: u64| {
        let got = tiny_digest(workload, cfg);
        println!("    {what} 0x{got:016x}");
        if got != want {
            drifted.push((what, want, got));
        }
    };
    for (mode, want) in MODES.into_iter().zip(GOLDEN_CLASSIFIED) {
        let cfg = SimConfig::tiny_test().with_classification().with_mode(mode);
        check(format!("classified {mode:?}"), cfg, Workload::TpcC1, want);
    }
    for (mode, want) in MODES.into_iter().zip(GOLDEN_TPCC10) {
        check(
            format!("TPC-C-10 {mode:?}"),
            SimConfig::tiny_test().with_mode(mode),
            Workload::TpcC10,
            want,
        );
    }
    for (policy, wants) in GOLDEN_POLICIES {
        for (mode, want) in [SchedulerMode::Baseline, SchedulerMode::SliccSw].into_iter().zip(wants)
        {
            let cfg = SimConfig::tiny_test().with_policy(policy).with_mode(mode);
            check(format!("{policy} {mode:?}"), cfg, Workload::TpcC1, want);
        }
    }
    assert!(drifted.is_empty(), "simulated results drifted from the golden capture: {drifted:x?}");
}
