//! Chaos drills: every deterministic [`InjectedFault`] must be contained
//! to its own point, must never lose or re-simulate a completed sibling,
//! and must never change the metrics a healthy run produces. The CLI half
//! of the matrix pins the documented exit codes.

use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use slicc_sim::{
    DeadlineConfig, InjectedFault, RunError, RunRequest, Runner, SchedulerMode, SimConfig, SimError,
};
use slicc_trace::{TraceScale, Workload};

fn healthy_request() -> RunRequest {
    RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
        .with_mode(SchedulerMode::Slicc)
}

/// A request carrying `fault`, armed so every fault kind terminates:
/// `StallAt` spins the event loop forever, which only the watchdog (or a
/// deadline) can turn into a typed error.
fn faulty_request(fault: InjectedFault) -> RunRequest {
    let mut config = SimConfig { fault_injection: Some(fault), ..SimConfig::tiny_test() };
    if matches!(fault, InjectedFault::StallAt { .. }) {
        config.watchdog.max_heap_steps = Some(500);
    }
    RunRequest::new(Workload::TpcE, TraceScale::tiny(), config)
}

/// Whether the engine itself fails under `fault` (a slow consumer only
/// holds a finished result; the simulation completes untouched).
fn fails_in_engine(fault: InjectedFault) -> bool {
    matches!(fault, InjectedFault::Panic | InjectedFault::StallAt { .. })
}

/// The tentpole matrix: every fault kind. The faulty point is contained,
/// the healthy sibling always completes with the digest an uninjected run
/// produces, and a rerun of the batch serves the sibling from the cache
/// while only a failed point simulates again.
#[test]
fn every_injected_fault_is_contained_and_healthy_digests_are_unchanged() {
    let reference = Runner::new(1)
        .run(&healthy_request())
        .expect("uninjected reference run completes")
        .metrics
        .digest();

    for fault in InjectedFault::ALL {
        let what = format!("fault {fault:?}");
        let runner = Runner::new(1);
        let faulty = faulty_request(fault);
        let batch = [faulty.clone(), healthy_request()];
        let results = runner.run_all(&batch);

        // The healthy sibling must survive every fault kind, with
        // byte-identical metrics.
        let healthy = results[1]
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: healthy sibling must complete, got {e}"));
        assert_eq!(healthy.metrics.digest(), reference, "{what}: digest drifted");

        let failed = fails_in_engine(fault);
        if failed {
            let err = results[0].as_ref().expect_err("engine fault must surface");
            assert_eq!(err.point().key, faulty.stable_key(), "{what}: wrong point blamed");
            assert_eq!(runner.stats().failed_points, 1, "{what}");
        } else {
            // A slow consumer never touches the simulation.
            let ok = results[0].as_ref().unwrap_or_else(|e| {
                panic!("{what}: a slow consumer must not fail the simulation, got {e}")
            });
            assert!(ok.metrics.instructions > 0, "{what}");
        }

        // Rerun the batch: nothing completed is re-simulated, and only a
        // failed point (never cached) simulates again.
        let again = runner.run_all(&batch);
        let sibling = again[1].as_ref().expect("cached sibling");
        assert!(sibling.from_cache, "{what}: the completed sibling must not re-simulate");
        assert_eq!(sibling.metrics.digest(), reference, "{what}");
        assert_eq!(again[0].is_err(), failed, "{what}: the faulty point must fail the same way");
        assert_eq!(runner.stats().cache_misses, 2 + u64::from(failed), "{what}");
    }
}

#[test]
fn an_expired_deadline_is_not_banked_and_the_point_recovers_on_resume() {
    let runner = Runner::new(2);
    let doomed = healthy_request().with_deadline(DeadlineConfig::from_ms(0));
    let sibling = healthy_request().with_seed(9);
    let results = runner.run_all(&[doomed.clone(), sibling.clone()]);
    match &results[0] {
        Err(RunError::Sim { error: SimError::DeadlineExceeded(snapshot), .. }) => {
            assert!(snapshot.heap_steps > 0, "the snapshot must show where it stopped");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(results[1].is_ok(), "the sibling must complete while its neighbour times out");
    assert_eq!(runner.cached_points(), 1, "a timed-out point must not be cached");

    // Only the completed sibling was cached; the deadline is not part of
    // the point's identity, so a rerun re-simulates exactly the timed-out
    // point — now without a deadline — and succeeds.
    let recovered = runner.run(&healthy_request()).expect("undeadlined run completes");
    assert!(!recovered.from_cache, "the timed-out point must re-simulate");
    let cached = runner.run(&sibling).expect("cached sibling");
    assert!(cached.from_cache, "the completed sibling must not re-simulate");
}

#[test]
fn cancellation_stops_new_work_but_keeps_everything_banked() {
    let runner = Runner::new(1);
    let done = runner.run(&healthy_request()).expect("pre-cancel point completes");

    runner.cancel_token().cancel();
    let results = runner.run_all(&[healthy_request().with_seed(5), healthy_request().with_seed(6)]);
    for r in &results {
        let err = r.as_ref().expect_err("a cancelled runner must not simulate");
        assert!(err.is_cancellation(), "got {err}");
    }

    // The cancelled runner still serves what completed before the stop.
    assert_eq!(runner.cached_points(), 1, "exactly the pre-cancel point is cached");
    let again = runner.run(&healthy_request()).expect("cached point");
    assert!(again.from_cache);
    assert_eq!(again.metrics.digest(), done.metrics.digest());
}

/// Session-level drill: cancellation and deadlines delivered straight
/// through [`slicc_sim::RunSession::control`] abort with diagnostic
/// snapshots, and the abort is contained — the same spec re-runs
/// without control afterwards with byte-identical healthy metrics.
#[test]
fn run_session_cancel_and_deadline_drills_abort_cleanly_and_are_contained() {
    use slicc_common::CancelToken;
    use slicc_sim::{RunControl, RunSession};
    use std::time::Instant;

    let spec = Workload::TpcC1.spec(TraceScale::tiny());
    let cfg = SimConfig::tiny_test();
    let reference = RunSession::new(&spec, &cfg)
        .expect("valid config")
        .run()
        .expect("healthy run completes")
        .metrics
        .digest();

    // Cancel drill: a token cancelled before the run starts must trip on
    // the session's very first control check, with a usable snapshot.
    let cancel = CancelToken::new();
    cancel.cancel();
    let ctrl = RunControl { cancel, deadline: None };
    match RunSession::new(&spec, &cfg).unwrap().control(ctrl).run() {
        Err(SimError::Cancelled(snap)) => {
            assert!(snap.heap_steps > 0, "the snapshot must show where it stopped");
        }
        other => panic!("expected Cancelled, got {:?}", other.err()),
    }

    // Deadline drill: an already-expired deadline aborts the same way.
    let ctrl = RunControl { cancel: CancelToken::new(), deadline: Some(Instant::now()) };
    match RunSession::new(&spec, &cfg).unwrap().control(ctrl).run() {
        Err(SimError::DeadlineExceeded(snap)) => {
            assert!(snap.heap_steps > 0, "the snapshot must show where it stopped");
        }
        other => panic!("expected DeadlineExceeded, got {:?}", other.err()),
    }

    // Containment: the aborted runs leave no residue — a fresh
    // uncontrolled session still produces the healthy digest.
    let again = RunSession::new(&spec, &cfg).unwrap().run().unwrap().metrics.digest();
    assert_eq!(again, reference, "an aborted session must not change later runs");
}

// ---------------------------------------------------------------------
// Service drills: cache thrash, stampede storms, overload shedding —
// the ISSUE-7 resource-governance half of the matrix. The invariant
// throughout: governance changes when work is refused or recomputed,
// never what a finished run computes.
// ---------------------------------------------------------------------

use slicc_sim::service::result_weight;
use slicc_sim::{ServiceConfig, SimService};

/// Thrash drill: a byte budget of ~1.5 entries forces every batch to
/// evict. Results must stay digest-identical across passes, the budget
/// must hold after every pass, and evicted points must simply
/// re-simulate as misses.
#[test]
fn cache_thrash_under_a_tiny_byte_budget_is_bounded_and_digest_stable() {
    let points: Vec<RunRequest> = (0..6u64).map(|seed| healthy_request().with_seed(seed)).collect();
    let runner = Runner::new(2);
    let reference: Vec<u64> =
        points.iter().map(|p| p.try_execute().expect("reference run").metrics.digest()).collect();

    // Size the budget off a real entry so the drill survives codec
    // changes: room for one resident result, never two.
    let probe = points[0].try_execute().expect("probe run");
    let budget = result_weight(&probe) * 3 / 2;
    runner.set_cache_bytes(budget);

    for pass in 0..3 {
        let results = runner.run_all(&points);
        for (i, r) in results.iter().enumerate() {
            let result = r.as_ref().expect("thrashing must not fail points");
            assert_eq!(
                result.metrics.digest(),
                reference[i],
                "pass {pass}: eviction changed point {i}'s result"
            );
        }
        let stats = runner.stats();
        assert!(
            stats.cache_bytes <= budget,
            "pass {pass}: {} resident bytes exceed the {budget} budget",
            stats.cache_bytes
        );
    }
    let stats = runner.stats();
    assert!(stats.cache_evictions > 0, "a 1.5-entry budget must evict: {stats:?}");
    assert!(
        stats.cache_misses > points.len() as u64,
        "evicted points re-simulate on later passes: {stats:?}"
    );
}

/// Stampede drill: N clients storm one identical point while M more
/// submit distinct points, all concurrently. Exactly one simulation per
/// distinct key may run; every client gets the right digest.
#[test]
fn stampede_storm_of_identical_and_distinct_clients_coalesces_to_one_flight() {
    const IDENTICAL_CLIENTS: usize = 6;
    const DISTINCT_CLIENTS: usize = 3;

    let runner = Arc::new(Runner::new(4));
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 4, queue_limit: 32 });
    let hot = healthy_request().with_seed(1000);
    let hot_digest = hot.try_execute().expect("reference").metrics.digest();
    let cold: Vec<RunRequest> =
        (0..DISTINCT_CLIENTS as u64).map(|s| healthy_request().with_seed(s)).collect();
    let cold_digests: Vec<u64> =
        cold.iter().map(|p| p.try_execute().expect("reference").metrics.digest()).collect();

    let (service, hot, cold) = (&service, &hot, &cold);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..IDENTICAL_CLIENTS {
            handles.push(scope.spawn(move || {
                service.submit(hot).expect("hot submission completes").metrics.digest()
            }));
        }
        let cold_handles: Vec<_> = (0..DISTINCT_CLIENTS)
            .map(|i| {
                scope.spawn(move || {
                    service.submit(&cold[i]).expect("cold submission completes").metrics.digest()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("hot client"), hot_digest);
        }
        for (i, h) in cold_handles.into_iter().enumerate() {
            assert_eq!(h.join().expect("cold client"), cold_digests[i]);
        }
    });

    let stats = runner.stats();
    assert_eq!(
        stats.cache_misses,
        1 + DISTINCT_CLIENTS as u64,
        "one flight per distinct key, no matter how many clients: {stats:?}"
    );
    assert_eq!(
        stats.cache_hits + stats.coalesced_hits,
        (IDENTICAL_CLIENTS - 1) as u64,
        "every duplicate hot client is served without simulating: {stats:?}"
    );
}

/// Overload drill: one slot, no queue, and a slow consumer holding the
/// slot. Concurrent arrivals must shed with typed rejections and usable
/// retry hints — and once the slot drains, the same submissions succeed.
#[test]
fn overload_shedding_rejects_typed_and_recovers_after_the_drain() {
    let runner = Arc::new(Runner::new(1));
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 0 });
    let slow = faulty_request(InjectedFault::SlowConsumer { delay_ms: 400 });

    let (service, slow) = (&service, &slow);
    std::thread::scope(|scope| {
        let occupant = scope.spawn(move || service.submit(slow));
        while service.pressure().inflight == 0 {
            std::thread::yield_now();
        }
        // Three arrivals while the slot is held: all shed, none simulate.
        for seed in 0..3 {
            let err = service
                .submit(&healthy_request().with_seed(seed))
                .expect_err("no slot and no queue must shed");
            assert!(err.is_overload(), "got {err}");
            match &err {
                RunError::Overloaded { retry_after, .. } => {
                    assert!(*retry_after > Duration::ZERO, "the hint must be usable")
                }
                other => panic!("expected Overloaded, got {other}"),
            }
        }
        occupant.join().expect("occupant thread").expect("the slow point itself completes");
    });

    assert_eq!(runner.stats().shed_points, 3);
    assert_eq!(service.pressure().shed, 3);
    // Recovery: the shed submissions are admitted once the slot frees.
    for seed in 0..3 {
        service
            .submit(&healthy_request().with_seed(seed))
            .expect("post-overload submission completes");
    }
    assert_eq!(runner.stats().failed_points, 0, "shed points never simulated, so never failed");
}

/// Eviction-race drill: the budget is smaller than one entry, so the
/// result a stampede coalesces on can never become resident — waiters
/// must still be served from the flight itself, digest-identical.
#[test]
fn eviction_racing_coalesced_waiters_still_serves_identical_results() {
    let runner = Arc::new(Runner::new(2));
    runner.set_cache_bytes(16); // below any entry's weight: nothing is ever resident
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 2, queue_limit: 16 });
    // A slow consumer holds the flight open long enough that every
    // waiter deterministically attaches to it instead of racing a new
    // simulation after the (impossible) cache insert.
    let req = faulty_request(InjectedFault::SlowConsumer { delay_ms: 400 }).with_seed(77);
    let reference = req.try_execute().expect("reference").metrics.digest();

    let (service, req) = (&service, &req);
    std::thread::scope(|scope| {
        let owner = scope.spawn(move || {
            service.submit(req).expect("owner submission completes").metrics.digest()
        });
        while service.pressure().inflight == 0 {
            std::thread::yield_now();
        }
        let waiters: Vec<_> = (0..5)
            .map(|_| {
                scope.spawn(move || {
                    service.submit(req).expect("waiter submission completes").metrics.digest()
                })
            })
            .collect();
        assert_eq!(owner.join().expect("owner"), reference);
        for h in waiters {
            assert_eq!(
                h.join().expect("waiter"),
                reference,
                "a waiter raced an eviction and got a wrong result"
            );
        }
    });

    let stats = runner.stats();
    assert_eq!(stats.cache_bytes, 0, "nothing can be resident under a 16-byte budget");
    assert!(stats.cache_evictions > 0, "the refused insert counts as an eviction: {stats:?}");
    assert_eq!(
        stats.cache_misses,
        1, // the uncached reference run is not counted
        "every waiter must coalesce onto the one flight: {stats:?}"
    );
    assert_eq!(stats.coalesced_hits, 5, "{stats:?}");
}

// ---------------------------------------------------------------------
// CLI half of the matrix: documented exit codes, end to end.
// ---------------------------------------------------------------------

fn slicc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slicc"))
}

#[test]
fn cli_engine_faults_exit_one_and_name_the_failure() {
    let out = slicc()
        .args(["--scale", "tiny", "--inject", "panic", "--progress", "quiet"])
        .output()
        .expect("slicc runs");
    assert_eq!(out.status.code(), Some(1), "an injected panic must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("panicked"), "got: {stderr}");

    let out = slicc()
        .args([
            "--scale",
            "tiny",
            "--inject",
            "stall:10",
            "--fuel-steps",
            "500",
            "--progress",
            "quiet",
        ])
        .output()
        .expect("slicc runs");
    assert_eq!(out.status.code(), Some(1), "a stalled event loop must trip the watchdog");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("livelocked"), "got: {stderr}");
}

#[test]
fn cli_expired_deadline_exits_one_with_a_snapshot() {
    let out = slicc()
        .args(["--scale", "tiny", "--deadline-ms", "0", "--progress", "quiet"])
        .output()
        .expect("slicc runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeded its deadline"), "got: {stderr}");
    assert!(stderr.contains("heap steps"), "the snapshot must be printed, got: {stderr}");
}

/// SIGINT drill: interrupt a two-point sweep once its first point has
/// finished; the process must exit 130 and say it was interrupted.
#[cfg(unix)]
#[test]
fn cli_sigint_cancels_the_sweep_and_exits_130() {
    use std::io::{BufRead as _, BufReader, Read as _};

    // A sweep long enough to interrupt: small scale, baseline compare
    // gives two points run one after the other.
    let mut child = slicc()
        .args(["--scale", "small", "--baseline-compare", "--progress", "json"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("slicc spawns");

    // Wait for the first point to finish, then interrupt.
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut seen = String::new();
    let finished = loop {
        let mut line = String::new();
        if stderr.read_line(&mut line).expect("stderr readable") == 0 {
            break false;
        }
        seen.push_str(&line);
        if line.contains("\"event\": \"point_finished\"") {
            break true;
        }
    };
    assert!(finished, "the first point must finish before stderr closes, got: {seen}");
    unsafe {
        assert_eq!(libc_kill(child.id() as i32, 2), 0, "SIGINT delivery failed");
    }
    let status = child.wait().expect("child exits");
    let _ = stderr.read_to_string(&mut seen);
    // The child may legitimately finish the sweep before the signal lands
    // (exit 0) on a fast machine; the interesting case is the interrupt.
    if status.code() == Some(130) {
        assert!(seen.contains("interrupted"), "got: {seen}");
        assert!(!seen.contains("--checkpoint"), "got: {seen}");
    } else {
        assert_eq!(status.code(), Some(0), "unexpected exit, stderr: {seen}");
    }
}

#[cfg(unix)]
extern "C" {
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}
