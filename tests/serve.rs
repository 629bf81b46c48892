//! The server chaos matrix: hostile clients — garbage bytes, torn
//! frames, oversized frames, slow-loris stalls, mid-flight disconnects —
//! must produce typed outcomes, never panics, never leaked execution
//! slots, and never perturb sibling results; and the full TCP path must
//! round-trip, drain gracefully, and survive a stampede drill.

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use slicc_common::{lock_unpoisoned, SplitMix64};
use slicc_serve::{
    loadgen, ChaosTransport, Client, Exhausted, LoadgenConfig, MemTransport, Scenario, Server,
    ServerConfig, Submitted, TransportFault, MAX_FRAME,
};
use slicc_sim::{
    DeadlineConfig, ProgressEvent, Reporter, RunRequest, Runner, ServiceConfig, SimConfig,
    SimService,
};
use slicc_trace::{TraceScale, Workload};

fn tiny_request(seed: u64) -> RunRequest {
    RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test()).with_seed(seed)
}

fn tiny_submit_body(seed: u64) -> String {
    format!(r#"{{"workload":"tpcc1","scale":"tiny","machine":"tiny","seed":{seed}}}"#)
}

fn tiny_server(max_inflight: usize, queue_limit: usize, cfg: ServerConfig) -> Server {
    let runner = Arc::new(Runner::new(2));
    let service = Arc::new(SimService::new(runner, ServiceConfig { max_inflight, queue_limit }));
    Server::new(service, cfg)
}

/// The digest an *unserved* run of `seed` computes — the invariance
/// reference every served sibling must match byte-for-byte.
fn reference_digest(seed: u64) -> String {
    let result = tiny_request(seed).try_execute().expect("reference run");
    format!("{:016x}", result.metrics.digest())
}

/// Collects `ServerState` transitions.
struct StateCapture(Mutex<Vec<(String, usize)>>);

impl Reporter for StateCapture {
    fn report(&self, event: ProgressEvent) {
        if let ProgressEvent::ServerState { state, connections, .. } = event {
            lock_unpoisoned(&self.0).push((state, connections));
        }
    }
}

/// Spawns `server.serve` on a listener bound to an ephemeral loopback
/// port; returns the address and the join handle.
fn spawn_server(server: Arc<Server>) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve(listener));
    (addr, handle)
}

#[test]
fn tcp_round_trip_serves_results_memoizes_and_drains_cleanly() {
    let states = Arc::new(StateCapture(Mutex::new(Vec::new())));
    let mut server = tiny_server(2, 8, ServerConfig::default());
    server.set_reporter(Arc::clone(&states) as Arc<dyn Reporter>);
    let server = Arc::new(server);
    let cancel = server.cancel_token();
    let counters = server.counters();
    let (addr, handle) = spawn_server(Arc::clone(&server));

    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping answers pong");

    let first = match client.submit(&tiny_submit_body(1)).expect("submit runs") {
        Submitted::Result { key, digest, from_cache } => {
            assert!(!from_cache, "first submission simulates fresh");
            assert_eq!(digest, reference_digest(1), "served digest matches the unserved run");
            (key, digest)
        }
        other => panic!("expected a result, got {other:?}"),
    };
    match client.submit(&tiny_submit_body(1)).expect("resubmit") {
        Submitted::Result { key, digest, from_cache } => {
            assert!(from_cache, "second submission is memoized");
            assert_eq!((key, digest), first, "memoized result is byte-identical");
        }
        other => panic!("expected a cached result, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("cache_misses").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(stats.get("cache_hits").and_then(|v| v.as_u64()), Some(1));
    client.quit().expect("orderly goodbye");

    cancel.cancel();
    handle.join().expect("server thread").expect("serve returns cleanly");

    assert_eq!(counters.drains.load(Ordering::Relaxed), 1);
    assert_eq!(counters.results.load(Ordering::Relaxed), 2);
    assert_eq!(counters.protocol_errors.load(Ordering::Relaxed), 0);
    let states = lock_unpoisoned(&states.0);
    let sequence: Vec<&str> = states.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(sequence, ["listening", "draining", "drained"]);

    // The exported snapshot carries server, runner, and service series.
    let snapshot = slicc_serve::metrics_snapshot(&server);
    assert_eq!(snapshot.value("srv_results_total"), Some(2));
    assert_eq!(snapshot.value("srv_drains_total"), Some(1));
    assert_eq!(snapshot.value("runner_cache_misses_total"), Some(1));
    assert_eq!(snapshot.value("service_queue_depth"), Some(0));
}

#[test]
fn hostile_frames_get_typed_errors_and_the_server_keeps_serving() {
    let server = tiny_server(2, 8, ServerConfig::default());
    let counters = server.counters();

    // One connection sends, in order: garbage UTF-8, an unknown verb, a
    // bad submission, blank lines, then a valid PING. Every rejection is
    // typed; the connection survives them all.
    let mut hostile = MemTransport::script(
        vec![
            b"\xff\xfe\xfd\n".to_vec(),
            b"EXECUTE ORDER 66\n".to_vec(),
            b"SUBMIT {\"workload\":\"tpcx\"}\n".to_vec(),
            b"\n\r\n".to_vec(),
            b"PING\n".to_vec(),
        ],
        Exhausted::Eof,
    );
    server.handle_connection(&mut hostile);
    let frames: Vec<String> =
        hostile.outbound_frames().iter().map(|f| String::from_utf8_lossy(f).into_owned()).collect();
    assert!(frames[0].starts_with("ERROR bad-utf8"), "got {frames:?}");
    assert!(frames[1].starts_with("ERROR unknown-verb"), "got {frames:?}");
    assert!(frames[2].starts_with("ERROR bad-payload"), "got {frames:?}");
    assert_eq!(frames[3], "PONG", "the connection survives resyncable errors: {frames:?}");
    assert_eq!(counters.protocol_errors.load(Ordering::Relaxed), 3);

    // An unterminated flood breaches the frame bound: one fatal typed
    // error, connection closed.
    let mut flood = MemTransport::script(vec![vec![b'a'; MAX_FRAME + 7]], Exhausted::Stall);
    server.handle_connection(&mut flood);
    let frames = flood.outbound_frames();
    let last = String::from_utf8_lossy(frames.last().expect("an error frame")).into_owned();
    assert!(last.starts_with("ERROR frame-too-long"), "got {last:?}");

    // After all of that the server still serves: same-process sanity
    // submit straight through a fresh transport.
    let mut polite = MemTransport::script(
        vec![format!("SUBMIT {}\nQUIT\n", tiny_submit_body(3)).into_bytes()],
        Exhausted::Stall,
    );
    server.handle_connection(&mut polite);
    let frames: Vec<String> =
        polite.outbound_frames().iter().map(|f| String::from_utf8_lossy(f).into_owned()).collect();
    let result = frames.iter().find(|f| f.starts_with("RESULT")).expect("a RESULT frame");
    assert!(
        result.contains(&reference_digest(3)),
        "served digest must match the unserved run: {result}"
    );
    let pressure = server.service().pressure();
    assert_eq!((pressure.inflight, pressure.queue_depth), (0, 0), "nothing leaked");
}

/// Always-on smoke fuzz: random byte blobs — raw, and mutated
/// valid requests — driven through a full connection handler. Nothing
/// may panic, and the service must end every conversation with zero
/// in-flight slots and zero queue depth.
#[test]
fn smoke_fuzz_arbitrary_connections_never_panic_or_leak() {
    let server = tiny_server(2, 4, ServerConfig::default());
    let mut rng = SplitMix64::new(0x5e8b_adc1_1e47);
    let valid = format!("SUBMIT {}\n", tiny_submit_body(1));

    for round in 0..400 {
        let mut bytes: Vec<u8> = if round % 4 == 0 {
            // Mutated valid request: flip a few bytes.
            let mut b = valid.clone().into_bytes();
            for _ in 0..(rng.next_u64() % 4 + 1) {
                let i = (rng.next_u64() as usize) % b.len();
                b[i] = (rng.next_u64() & 0xff) as u8;
            }
            b
        } else {
            (0..(rng.next_u64() % 200)).map(|_| (rng.next_u64() & 0xff) as u8).collect()
        };
        // Sprinkle terminators so frames actually complete.
        if !bytes.is_empty() {
            for _ in 0..(rng.next_u64() % 3) {
                let i = (rng.next_u64() as usize) % bytes.len();
                bytes[i] = b'\n';
            }
        }
        bytes.push(b'\n');
        let mut t = MemTransport::script(vec![bytes], Exhausted::Eof);
        server.handle_connection(&mut t);
        let pressure = server.service().pressure();
        assert_eq!(
            (pressure.inflight, pressure.queue_depth),
            (0, 0),
            "round {round} leaked service state"
        );
    }
}

#[test]
fn torn_frames_and_mid_frame_disconnects_leak_nothing() {
    let server = tiny_server(2, 8, ServerConfig::default());
    let counters = server.counters();
    let body = format!("SUBMIT {}\n", tiny_submit_body(5));

    // Worst-case torn delivery: one byte per read. The request must
    // still decode and serve.
    let mut torn = MemTransport::torn(body.as_bytes(), Exhausted::Eof);
    server.handle_connection(&mut torn);
    let frames: Vec<String> =
        torn.outbound_frames().iter().map(|f| String::from_utf8_lossy(f).into_owned()).collect();
    assert!(
        frames.iter().any(|f| f.starts_with("RESULT") && f.contains(&reference_digest(5))),
        "torn frames must reassemble to a served result: {frames:?}"
    );

    // Mid-frame disconnect: the client dies halfway through a SUBMIT.
    let half = &body.as_bytes()[..body.len() / 2];
    let mut dead = MemTransport::script(vec![half.to_vec()], Exhausted::Eof);
    server.handle_connection(&mut dead);
    assert!(counters.disconnects.load(Ordering::Relaxed) >= 1);

    // Disconnect *after* the request is in flight (the client stops
    // reading; the EVENT/RESULT writes hit a broken pipe): the flight
    // must complete server-side and nothing may leak.
    let inner = MemTransport::script(vec![body.clone().into_bytes()], Exhausted::Stall);
    let mut vanishing = ChaosTransport::new(inner, TransportFault::FailWriteAfter { bytes: 0 });
    server.handle_connection(&mut vanishing);

    let pressure = server.service().pressure();
    assert_eq!((pressure.inflight, pressure.queue_depth), (0, 0), "a dead client leaked a slot");

    // Sibling invariance: the same key served to a healthy client is
    // byte-identical to the unserved reference — the dead clients above
    // changed nothing.
    let mut healthy = MemTransport::script(vec![body.into_bytes()], Exhausted::Eof);
    server.handle_connection(&mut healthy);
    let frames: Vec<String> =
        healthy.outbound_frames().iter().map(|f| String::from_utf8_lossy(f).into_owned()).collect();
    assert!(
        frames.iter().any(|f| f.starts_with("RESULT") && f.contains(&reference_digest(5))),
        "sibling digest diverged after chaos: {frames:?}"
    );
}

#[test]
fn slow_loris_and_idle_clients_are_cut_by_their_deadlines() {
    let cfg = ServerConfig {
        max_connections: 4,
        read_deadline: DeadlineConfig { wall_ms: Some(150) },
        idle_deadline: DeadlineConfig { wall_ms: Some(300) },
    };
    let server = tiny_server(2, 4, cfg);
    let counters = server.counters();

    // Slow loris: opens a frame, never finishes it, never hangs up.
    let started = Instant::now();
    let mut loris = MemTransport::script(vec![b"SUBMIT {\"work".to_vec()], Exhausted::Stall);
    server.handle_connection(&mut loris);
    assert!(started.elapsed() < Duration::from_secs(10), "the deadline must cut the stall");
    let frames = loris.outbound_frames();
    let last = String::from_utf8_lossy(frames.last().expect("a timeout frame")).into_owned();
    assert!(last.starts_with("ERROR timeout"), "got {last:?}");
    assert_eq!(counters.timeouts.load(Ordering::Relaxed), 1);

    // Idle: connects, sends nothing at all.
    let mut idle = MemTransport::script(vec![], Exhausted::Stall);
    server.handle_connection(&mut idle);
    let frames = idle.outbound_frames();
    let last = String::from_utf8_lossy(frames.last().expect("a timeout frame")).into_owned();
    assert!(last.starts_with("ERROR timeout"), "got {last:?}");
    assert_eq!(counters.timeouts.load(Ordering::Relaxed), 2);
}

/// Overload surfaces on the wire as `RETRY-AFTER`, deterministically:
/// the single execution slot is held open by a reporter gate, the wire
/// submission is shed (queue limit 0), and after release the same
/// submission succeeds.
#[test]
fn overload_maps_to_retry_after_and_recovers() {
    struct Gate {
        held: Mutex<bool>,
        open: Condvar,
    }
    impl Reporter for Gate {
        fn report(&self, event: ProgressEvent) {
            if matches!(event, ProgressEvent::BatchStarted { .. }) {
                let mut held = lock_unpoisoned(&self.held);
                while *held {
                    held = self
                        .open
                        .wait_timeout(held, Duration::from_millis(10))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }

    let gate = Arc::new(Gate { held: Mutex::new(true), open: Condvar::new() });
    let runner = Arc::new(Runner::new(1));
    runner.set_reporter(Arc::clone(&gate) as Arc<dyn Reporter>);
    let service = Arc::new(SimService::new(
        Arc::clone(&runner),
        ServiceConfig { max_inflight: 1, queue_limit: 0 },
    ));
    let server = Arc::new(Server::new(Arc::clone(&service), ServerConfig::default()));
    let counters = server.counters();
    let (addr, handle) = spawn_server(Arc::clone(&server));

    // Occupy the only slot: this submission blocks inside the gate.
    let occupant = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.submit(&tiny_request(100)))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.pressure().inflight == 0 {
        assert!(Instant::now() < deadline, "occupant never took the slot");
        std::thread::yield_now();
    }

    let mut client = Client::connect(&addr).expect("connect");
    match client.submit(&tiny_submit_body(101)).expect("exchange completes") {
        Submitted::RetryAfter { .. } => {}
        other => panic!("a full server must answer RETRY-AFTER, got {other:?}"),
    }
    assert_eq!(counters.retry_after.load(Ordering::Relaxed), 1);

    // Release the slot; the shed submission now succeeds on retry.
    *lock_unpoisoned(&gate.held) = false;
    gate.open.notify_all();
    occupant.join().expect("occupant thread").expect("occupant run succeeds");

    let recovered = (0..100).find_map(|_| match client.submit(&tiny_submit_body(101)) {
        Ok(Submitted::Result { digest, .. }) => Some(digest),
        Ok(Submitted::RetryAfter { millis }) => {
            std::thread::sleep(Duration::from_millis(millis.clamp(5, 100)));
            None
        }
        other => panic!("unexpected outcome {other:?}"),
    });
    assert_eq!(
        recovered.expect("the server recovers after the burst"),
        reference_digest(101),
        "post-overload digest matches the unserved run"
    );

    server.cancel_token().cancel();
    handle.join().expect("server thread").expect("clean drain");
}

/// Memoized loopback round trips stay far below delayed-ACK latency.
///
/// The server answers a `SUBMIT` with two writes (`EVENT accepted`, then
/// `RESULT`). With Nagle's algorithm on the server's socket, the second
/// write waits for the client's delayed ACK of the first, about 40 ms
/// per round trip; with `TCP_NODELAY` a memoized round trip is tens of
/// microseconds. The 5 ms bound sits between the two. This guards the
/// server-side option only: the client sends each `SUBMIT` in one write,
/// so Nagle on the client alone does not add the delay, and this test
/// would not notice it.
#[test]
fn memoized_round_trips_do_not_wait_on_delayed_ack() {
    const TRIPS: usize = 40;
    let server = Arc::new(tiny_server(2, 8, ServerConfig::default()));
    let (addr, handle) = spawn_server(Arc::clone(&server));

    let mut client = Client::connect(&addr).expect("connect");
    let body = tiny_submit_body(11);
    client.submit(&body).expect("warm-up simulates the key");
    let mut rtts: Vec<Duration> = (0..TRIPS)
        .map(|_| {
            let start = Instant::now();
            match client.submit(&body).expect("memoized submit") {
                Submitted::Result { from_cache: true, .. } => start.elapsed(),
                other => panic!("expected a memoized result, got {other:?}"),
            }
        })
        .collect();
    client.quit().expect("orderly goodbye");
    server.cancel_token().cancel();
    handle.join().expect("server thread").expect("clean drain");

    rtts.sort_unstable();
    let p50 = rtts[TRIPS / 2];
    assert!(
        p50 < Duration::from_millis(5),
        "memoized round-trip p50 is {p50:?}: the server's replies wait on delayed ACK"
    );
}

/// The in-process stampede drill: a miniature of the CI smoke lane.
/// Duplicate submissions across concurrent connections must coalesce to
/// exactly one flight per distinct key.
#[test]
fn loadgen_stampede_drill_passes() {
    let server = Arc::new(tiny_server(2, 64, ServerConfig::default()));
    let (addr, handle) = spawn_server(Arc::clone(&server));

    let mut cfg = LoadgenConfig::new(addr, Scenario::Stampede);
    cfg.connections = 4;
    cfg.per_connection = 25;
    cfg.distinct = 4;
    let report = loadgen::run(&cfg).expect("drill runs");
    report.check().unwrap_or_else(|violation| panic!("stampede violated: {violation}"));
    assert_eq!(report.ok, 100);
    assert_eq!(report.delta_cache_misses, 4, "each unique key executed exactly once");

    server.cancel_token().cancel();
    handle.join().expect("server thread").expect("clean drain");
}
