//! Parallel-runner determinism and fault isolation: fanning a figure's
//! point set across worker threads must not change a single metric, the
//! run cache must deduplicate repeated points, and a faulty point —
//! panicking or livelocking — must not take the batch down with it.

use slicc_sim::{
    InjectedFault, RunError, RunRequest, RunResult, Runner, SchedulerMode, ServiceConfig,
    SimConfig, SimError, SimService, WatchdogConfig,
};
use slicc_trace::{TraceScale, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn expect_ok(result: &Result<RunResult, RunError>) -> &RunResult {
    result.as_ref().unwrap_or_else(|e| panic!("point failed: {e}"))
}

/// A Figure-11-shaped point set at tiny scale: every workload under the
/// baseline and the SLICC variants, plus a repeated baseline point per
/// workload (figures re-use baselines, which is what the cache dedupes).
fn fig11_like_points() -> Vec<RunRequest> {
    let mut reqs = Vec::new();
    for w in [Workload::TpcC1, Workload::TpcE, Workload::MapReduce] {
        let base = RunRequest::new(w, TraceScale::tiny(), SimConfig::tiny_test());
        for mode in [
            SchedulerMode::Baseline,
            SchedulerMode::Slicc,
            SchedulerMode::SliccSw,
            SchedulerMode::SliccPp,
        ] {
            reqs.push(base.clone().with_mode(mode));
        }
        // The duplicated baseline every figure re-requests.
        reqs.push(base.clone().with_mode(SchedulerMode::Baseline));
    }
    reqs
}

#[test]
fn parallel_metrics_are_byte_identical_to_serial() {
    let points = fig11_like_points();
    let serial = Runner::new(1).run_all(&points);
    let parallel = Runner::new(4).run_all(&points);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // RunMetrics has no PartialEq (it carries floats); the Debug
        // rendering covers every field, so byte-identical output means
        // byte-identical metrics.
        assert_eq!(
            format!("{:?}", expect_ok(s).metrics),
            format!("{:?}", expect_ok(p).metrics),
            "point {i} diverged between jobs=1 and jobs=4"
        );
    }
}

#[test]
fn run_cache_deduplicates_shared_points_across_figures() {
    let runner = Runner::new(4);
    let points = fig11_like_points();
    let distinct = 3 * 4; // 3 workloads x 4 modes; the 5th point per workload repeats Baseline
    runner.run_all(&points);
    let after_first = runner.stats();
    assert_eq!(after_first.cache_misses, distinct as u64);
    // The repeated baselines ride along with the fresh simulations in the
    // same batch: they are coalesced duplicates, not memoized hits —
    // nothing was resident when the batch arrived.
    assert_eq!(after_first.coalesced_hits, (points.len() - distinct) as u64);
    assert_eq!(after_first.cache_hits, 0);

    // A second figure re-requesting the same points simulates nothing:
    // now every point is a true memoized hit.
    runner.run_all(&points);
    let after_second = runner.stats();
    assert_eq!(after_second.cache_misses, distinct as u64, "second pass must be fully cached");
    assert_eq!(after_second.cache_hits, points.len() as u64);
    assert_eq!(
        after_second.coalesced_hits, after_first.coalesced_hits,
        "a fully-resident pass coalesces nothing"
    );
    assert_eq!(runner.cached_points(), distinct);
}

#[test]
fn cached_results_match_fresh_ones() {
    let req = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
        .with_mode(SchedulerMode::Slicc);
    let runner = Runner::new(2);
    let fresh = runner.run(&req).expect("fresh run succeeds");
    let cached = runner.run(&req).expect("cached run succeeds");
    assert!(!fresh.from_cache);
    assert!(cached.from_cache);
    assert_eq!(format!("{:?}", fresh.metrics), format!("{:?}", cached.metrics));
}

/// A batch containing one panicking and one livelocking point completes
/// the remaining points and reports two typed `RunError`s; running the
/// batch again on the same runner re-simulates only those two points,
/// verified by the cache-hit counters.
#[test]
fn faulty_points_are_isolated_and_a_rerun_skips_completed_ones() {
    let ok1 = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test());
    let ok2 = ok1.clone().with_mode(SchedulerMode::Slicc);
    let panicking = RunRequest::new(
        Workload::TpcE,
        TraceScale::tiny(),
        SimConfig { fault_injection: Some(InjectedFault::Panic), ..SimConfig::tiny_test() },
    );
    let livelocking = RunRequest::new(
        Workload::MapReduce,
        TraceScale::tiny(),
        SimConfig {
            watchdog: WatchdogConfig { max_heap_steps: Some(1), max_cycles: None },
            ..SimConfig::tiny_test()
        },
    );
    let batch = vec![ok1, ok2, panicking, livelocking];

    let runner = Runner::new(2);
    let results = runner.run_all(&batch);
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok(), "healthy point 0 must survive the faulty neighbours");
    assert!(results[1].is_ok(), "healthy point 1 must survive the faulty neighbours");
    match &results[2] {
        Err(RunError::Panicked { point, payload }) => {
            assert_eq!(point.key, batch[2].stable_key());
            assert!(
                payload.contains("injected fault"),
                "panic payload must carry the message, got: {payload}"
            );
        }
        other => panic!("expected Panicked for point 2, got {other:?}"),
    }
    match &results[3] {
        Err(RunError::Sim { point, error: SimError::Livelock(snapshot) }) => {
            assert_eq!(point.key, batch[3].stable_key());
            assert!(snapshot.heap_steps > 0, "snapshot must record the consumed fuel");
        }
        other => panic!("expected Livelock for point 3, got {other:?}"),
    }
    let stats = runner.stats();
    assert_eq!(stats.failed_points, 2);
    assert_eq!(stats.cache_misses, 4, "all four points were fresh attempts");

    // The same batch again: the two completed points come back as cache
    // hits, only the two failed points are re-simulated (and fail the
    // same way — failures are never cached, and nothing already banked
    // is re-run).
    let results = runner.run_all(&batch);
    assert!(results[0].is_ok() && results[1].is_ok());
    assert!(results[2].is_err() && results[3].is_err());
    assert!(results[0].as_ref().unwrap().from_cache, "point 0 must come from the cache");
    assert!(results[1].as_ref().unwrap().from_cache, "point 1 must come from the cache");
    let stats = runner.stats();
    assert_eq!(stats.cache_hits, 2, "the completed points are served from cache");
    assert_eq!(stats.cache_misses, 6, "only the two failed points are re-simulated");
    assert_eq!(stats.failed_points, 4);
}

/// The ISSUE-7 acceptance stress: thousands of submissions through the
/// service front door — duplicates must coalesce to exactly one
/// simulation per distinct point, every response must carry the right
/// result, and the bounded cache must never exceed its byte budget.
#[test]
fn a_submission_storm_coalesces_to_one_simulation_per_distinct_point() {
    const DISTINCT: usize = 8;
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 250; // 8 x 250 = 2000 submissions

    let runner = Arc::new(Runner::new(4));
    let service = SimService::new(
        Arc::clone(&runner),
        ServiceConfig { max_inflight: 4, queue_limit: CLIENTS * PER_CLIENT },
    );
    let points: Vec<RunRequest> = (0..DISTINCT as u64)
        .map(|seed| {
            RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
                .with_seed(seed)
        })
        .collect();
    let reference: Vec<u64> =
        points.iter().map(|p| p.try_execute().expect("reference run").metrics.digest()).collect();

    let (service, points, reference) = (&service, &points, &reference);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    for i in 0..PER_CLIENT {
                        // Interleave so every point sees concurrent
                        // duplicate submissions from several clients.
                        let which = (i + client) % DISTINCT;
                        let result =
                            service.submit(&points[which]).expect("storm submission completes");
                        assert_eq!(
                            result.metrics.digest(),
                            reference[which],
                            "client {client} got the wrong result for point {which}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("storm client panicked");
        }
    });

    let stats = runner.stats();
    assert_eq!(
        stats.cache_misses, DISTINCT as u64,
        "duplicate in-flight requests must coalesce to exactly one simulation: {stats:?}"
    );
    assert_eq!(
        stats.cache_hits + stats.coalesced_hits,
        (CLIENTS * PER_CLIENT - DISTINCT) as u64,
        "every other submission is served without simulating: {stats:?}"
    );
    assert_eq!(stats.shed_points, 0, "a roomy queue sheds nothing");
    assert!(stats.cache_bytes <= runner.cache_budget(), "the byte budget must hold");
    let pressure = service.pressure();
    assert_eq!((pressure.queue_depth, pressure.inflight), (0, 0), "the storm fully drained");
}

/// Panics on the thread that reports the first `BatchStarted`, once —
/// the runner emits that outside its per-point panic containment, so
/// this models any owner death mid-flight (a reporter bug, a server
/// worker torn down by a dropped connection). `release` lets a test hold
/// the owner inside the flight window until waiters attach.
struct Grenade {
    armed: AtomicBool,
    release: Arc<AtomicBool>,
}

impl Grenade {
    fn armed(release: &Arc<AtomicBool>) -> Arc<Grenade> {
        Arc::new(Grenade { armed: AtomicBool::new(true), release: Arc::clone(release) })
    }
}

impl slicc_sim::Reporter for Grenade {
    fn report(&self, event: slicc_sim::ProgressEvent) {
        if matches!(event, slicc_sim::ProgressEvent::BatchStarted { .. })
            && self.armed.swap(false, Ordering::SeqCst)
        {
            while !self.release.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            panic!("owner dies mid-flight (injected)");
        }
    }
}

/// Spins until `ready` holds, failing the test after 30 s.
fn await_or_die(what: &str, ready: &dyn Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// A submission owner that unwinds between flight registration and
/// fill must not strand coalesced waiters on the flight's Condvar or leak
/// its execution slot: waiters wake with the typed [`RunError::Lost`],
/// the slot frees, and the service keeps serving (the failed point is not
/// cached, so a resubmission re-executes).
#[test]
fn a_dying_flight_owner_wakes_waiters_with_a_typed_error_and_frees_its_slot() {
    const WAITERS: usize = 3;
    let release = Arc::new(AtomicBool::new(false));
    let runner = Arc::new(Runner::new(1));
    runner.set_reporter(Grenade::armed(&release));
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 8 });
    let req =
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test()).with_seed(7);

    let (service, req) = (&service, &req);
    std::thread::scope(|scope| {
        let owner = scope.spawn(move || service.submit(req));
        // `executing` and the flight registration happen under one lock
        // section, so observing inflight == 1 means the flight is up and
        // the owner is parked in the grenade.
        await_or_die("the owner to register its flight", &|| service.pressure().inflight == 1);

        let waiters: Vec<_> =
            (0..WAITERS).map(|_| scope.spawn(move || service.submit(req))).collect();
        await_or_die("the waiters to attach to the flight", &|| {
            runner.stats().coalesced_hits >= WAITERS as u64
        });

        // Kill the owner. Before the fix, the waiters hung here forever.
        release.store(true, Ordering::SeqCst);
        assert!(owner.join().is_err(), "the owner must die by panic");
        for waiter in waiters {
            let outcome = waiter.join().expect("waiters must not panic");
            assert!(
                matches!(outcome, Err(RunError::Lost { .. })),
                "an abandoned flight must fail typed, got {outcome:?}"
            );
        }
    });

    // Full recovery: the slot and queue position are back, the dead
    // flight is unregistered, and — because a Lost outcome is never
    // cached — the same point re-executes and now succeeds.
    let pressure = service.pressure();
    assert_eq!((pressure.inflight, pressure.queue_depth), (0, 0), "the dead owner leaked state");
    let retried = service.submit(req).expect("the point must re-execute after the owner died");
    assert!(!retried.from_cache, "a Lost outcome must never be served from the cache");
}

// ---------------------------------------------------------------------
// Cross-path drills: a submission and a batch share one resolution
// state, so a point in flight on either path is simulated once.
// ---------------------------------------------------------------------

/// A tiny point whose finished result is held for `delay_ms` before its
/// flight is filled, so a test can observe the flight in the air.
fn slow_request(delay_ms: u64) -> RunRequest {
    let config = SimConfig {
        fault_injection: Some(InjectedFault::SlowConsumer { delay_ms }),
        ..SimConfig::tiny_test()
    };
    RunRequest::new(Workload::TpcC1, TraceScale::tiny(), config).with_seed(31)
}

/// A batch naming a point that a submission is simulating attaches to
/// the submission's flight instead of simulating it again.
#[test]
fn cross_path_a_batch_attaches_to_a_submitted_flight() {
    let runner = Arc::new(Runner::new(2));
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 0 });
    let slow = slow_request(400);
    let other =
        RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test()).with_seed(32);
    let reference = slow.try_execute().expect("reference run").metrics.digest();

    let (service, slow, runner_ref) = (&service, &slow, &runner);
    let batch = std::thread::scope(|scope| {
        let owner = scope.spawn(move || service.submit(slow));
        await_or_die("the submission to take its flight", &|| runner_ref.pressure().inflight == 1);
        let batch = runner_ref.run_all(&[slow.clone(), other.clone()]);
        owner.join().expect("owner thread").expect("the submitted point completes");
        batch
    });

    let attached = batch[0].as_ref().expect("the attached point completes");
    assert!(attached.from_cache, "the batch did not simulate the submitted point");
    assert_eq!(attached.metrics.digest(), reference);
    assert!(!batch[1].as_ref().expect("the batch's own point completes").from_cache);
    let stats = runner.stats();
    assert_eq!(stats.cache_misses, 2, "one simulation per distinct key: {stats:?}");
    assert_eq!(stats.coalesced_hits, 1, "the batch attached to the flight: {stats:?}");
    assert_eq!(stats.cache_hits, 0, "{stats:?}");
}

/// A submission naming a point that a batch is simulating attaches to
/// the batch's flight instead of simulating it again.
#[test]
fn cross_path_a_submit_attaches_to_a_batch_flight() {
    let runner = Arc::new(Runner::new(1));
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 0 });
    let slow = slow_request(400);
    let reference = slow.try_execute().expect("reference run").metrics.digest();

    let (service, slow, runner_ref) = (&service, &slow, &runner);
    let submitted = std::thread::scope(|scope| {
        let batch = scope.spawn(move || runner_ref.run_all(std::slice::from_ref(slow)));
        await_or_die("the batch to take its flight", &|| runner_ref.pressure().inflight == 1);
        let submitted = service.submit(slow);
        let batch = batch.join().expect("batch thread");
        assert!(!expect_ok(&batch[0]).from_cache, "the batch owned the flight");
        submitted
    });

    let submitted = submitted.expect("the attached submission completes");
    assert!(submitted.from_cache, "the submission did not simulate the batch's point");
    assert_eq!(submitted.metrics.digest(), reference);
    let stats = runner.stats();
    assert_eq!(stats.cache_misses, 1, "one simulation for the one key: {stats:?}");
    assert_eq!(stats.coalesced_hits, 1, "the submission attached to the flight: {stats:?}");
    assert_eq!(stats.shed_points, 0, "an attached submission takes no slot: {stats:?}");
}

/// A batch that dies between registering its flights and simulating them
/// wakes a submission attached to one of them with the typed
/// [`RunError::Lost`], and leaves nothing in flight or queued.
#[test]
fn cross_path_a_dying_batch_wakes_submit_waiters_with_lost() {
    /// Releases the grenade on every exit, so a failed assertion cannot
    /// leave the batch thread spinning and the scope unjoinable.
    struct Release(Arc<AtomicBool>);
    impl Drop for Release {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    let release = Arc::new(AtomicBool::new(false));
    let runner = Arc::new(Runner::new(2));
    runner.set_reporter(Grenade::armed(&release));
    let service =
        SimService::new(Arc::clone(&runner), ServiceConfig { max_inflight: 1, queue_limit: 8 });
    let points: Vec<RunRequest> = (40..42)
        .map(|seed| {
            RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test())
                .with_seed(seed)
        })
        .collect();

    let (service, points, runner_ref) = (&service, &points, &runner);
    std::thread::scope(|scope| {
        let release_on_exit = Release(Arc::clone(&release));
        let batch = scope.spawn(move || runner_ref.run_all(points));
        await_or_die("the batch to register its flights", &|| runner_ref.pressure().inflight == 2);
        let waiter = scope.spawn(move || service.submit(&points[1]));
        await_or_die("the submission to attach or finish", &|| {
            runner_ref.stats().coalesced_hits >= 1 || waiter.is_finished()
        });
        assert_eq!(runner_ref.stats().coalesced_hits, 1, "the submission must attach");

        drop(release_on_exit);
        assert!(batch.join().is_err(), "the batch must die by panic");
        let outcome = waiter.join().expect("the waiter must not panic");
        assert!(
            matches!(outcome, Err(RunError::Lost { .. })),
            "an abandoned batch flight must fail typed, got {outcome:?}"
        );
    });

    let pressure = runner.pressure();
    assert_eq!((pressure.inflight, pressure.queue_depth), (0, 0), "the dead batch leaked state");
    let retried = service.submit(&points[1]).expect("the point re-executes after the batch died");
    assert!(!retried.from_cache, "a Lost outcome must never be served from the cache");
}
