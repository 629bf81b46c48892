//! The server: an accept loop, per-connection worker threads, deadline
//! enforcement, and a two-stage graceful drain — all over the
//! [`Transport`] seam so the chaos tests can drive every failure mode
//! deterministically.
//!
//! ## Connection lifecycle
//!
//! Each accepted connection gets its own thread running
//! [`Server::handle_connection`]. The handler reads bytes through a
//! [`FrameBuffer`], decodes requests, and resolves `SUBMIT`s by calling
//! [`SimService::submit`] **on the connection thread** — so coalescing,
//! queueing, and shedding behave exactly as they do for in-process
//! callers, and a dying connection thread is covered by the runner's
//! flight guards (waiters get a typed error, the slot frees).
//!
//! ## Deadlines
//!
//! Two per-connection deadlines reuse [`DeadlineConfig`] semantics
//! (`None` disables):
//!
//! - **read deadline** — wall-clock budget to *finish a frame* counted
//!   from its first byte. A slow-loris client trickling one byte per
//!   second trips this no matter how steadily it sends.
//! - **idle deadline** — budget *between* frames. A client that holds
//!   the connection open silently is cut loose.
//!
//! ## Drain
//!
//! Cancelling the server's [`CancelToken`] (the `slicc-serve` binary
//! routes SIGINT and SIGTERM into it via
//! [`slicc_common::install_shutdown_cancel`]) stops the accept loop,
//! tells every connection to finish its current frame and say `BYE`,
//! joins the workers, and returns cleanly — the second signal delivery
//! hard-exits from the handler itself. State transitions surface as
//! [`ProgressEvent::ServerState`] (`listening` → `draining` → `drained`).
//!
//! ## Per-hop latency
//!
//! Each `SUBMIT`'s time on the server is split into back-to-back laps,
//! one per hop (decode, queue, simulate, encode, write), recorded into a
//! per-connection [`Log2Hist`] each, folded into the server's
//! [`ServerCounters`] when the connection ends and exported by
//! [`export_server`] as the `srv_hop_*_nanos` histograms.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slicc_common::{lock_unpoisoned, CancelToken, JsonValue};
use slicc_obs::{Log2Hist, MetricsRegistry, ProgressEvent, QuietReporter, Reporter};
use slicc_sim::{DeadlineConfig, RunError, RunRequest, RunResult, SimService};

use crate::protocol::{
    decode_request, encode_response, submission_from_json, FrameBuffer, ProtocolError, Request,
    Response,
};
use crate::transport::{TcpTransport, Transport};

/// How often a blocked read wakes to check deadlines and the drain flag.
const POLL: Duration = Duration::from_millis(25);

/// Sizing and deadline policy for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Concurrent connections admitted; further accepts are turned away
    /// with `ERROR busy` (clamped to at least 1).
    pub max_connections: usize,
    /// Wall-clock budget to complete one frame, from its first byte.
    pub read_deadline: DeadlineConfig,
    /// Wall-clock budget between frames.
    pub idle_deadline: DeadlineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_deadline: DeadlineConfig { wall_ms: Some(10_000) },
            idle_deadline: DeadlineConfig { wall_ms: Some(60_000) },
        }
    }
}

/// Monotonic counters covering everything the server does, exported
/// through the metrics registry as `srv_*` series.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted (admitted or rejected).
    pub connections: AtomicU64,
    /// Connections turned away at the cap.
    pub rejected: AtomicU64,
    /// Complete frames received.
    pub frames: AtomicU64,
    /// Frames (or framing violations) that produced a typed
    /// [`ProtocolError`].
    pub protocol_errors: AtomicU64,
    /// Connections closed by a read or idle deadline.
    pub timeouts: AtomicU64,
    /// `SUBMIT` requests decoded and handed to the service.
    pub submits: AtomicU64,
    /// Successful `RESULT` frames sent.
    pub results: AtomicU64,
    /// Overloaded submissions answered with `RETRY-AFTER`.
    pub retry_after: AtomicU64,
    /// Connections that ended without `QUIT` (EOF, I/O error, write to a
    /// vanished client).
    pub disconnects: AtomicU64,
    /// Graceful drains completed.
    pub drains: AtomicU64,
    /// Per-hop `SUBMIT` latency, exported by [`export_server`]. Each
    /// connection records into its own copy and folds it in here when it
    /// ends.
    pub(crate) hops: Mutex<SubmitHops>,
}

/// The hops a served `SUBMIT` spends its time in, in order. Their laps
/// are back to back, so per `SUBMIT` they add up to the handler's time
/// from the frame's decode to its last reply write.
#[derive(Clone, Copy)]
pub(crate) enum Hop {
    /// The frame decoded into a request.
    Decode,
    /// Inside the service but not simulating: the cache lookup, a
    /// coalesced flight, or a wait for a slot.
    Queue,
    /// A fresh simulation ([`RunResult::wall`]); 0 when the result came
    /// from the cache or another submission's flight.
    Simulate,
    /// The `EVENT` and final reply frames built and encoded.
    Encode,
    /// The reply frames written to the transport.
    Write,
}

/// Number of [`Hop`]s.
const HOPS: usize = 5;

/// One plain histogram per [`Hop`], in nanoseconds.
pub(crate) type SubmitHops = [Log2Hist; HOPS];

/// The `srv_*` histogram each [`Hop`] is exported as, with its help.
const HOP_SERIES: [(&str, &str); HOPS] = [
    ("srv_hop_decode_nanos", "SUBMIT hop: frame decoded into a request"),
    ("srv_hop_queue_nanos", "SUBMIT hop: cache lookup, coalesced flight or slot wait"),
    ("srv_hop_simulate_nanos", "SUBMIT hop: fresh simulation (0 when served from cache or a flight)"),
    ("srv_hop_encode_nanos", "SUBMIT hop: reply frames built and encoded"),
    ("srv_hop_write_nanos", "SUBMIT hop: reply frames written to the transport"),
];

/// Registers every server counter (plus the live-connection gauge) on
/// `reg` under the `srv_` prefix.
pub fn export_server(reg: &MetricsRegistry, counters: &ServerCounters, active: usize) {
    let pairs: &[(&str, &str, &AtomicU64)] = &[
        ("srv_connections_total", "connections accepted", &counters.connections),
        ("srv_connections_rejected_total", "connections turned away at the cap", &counters.rejected),
        ("srv_frames_total", "complete frames received", &counters.frames),
        ("srv_protocol_errors_total", "frames rejected with a typed protocol error", &counters.protocol_errors),
        ("srv_timeouts_total", "connections closed by a read or idle deadline", &counters.timeouts),
        ("srv_submits_total", "SUBMIT requests handed to the service", &counters.submits),
        ("srv_results_total", "successful RESULT frames sent", &counters.results),
        ("srv_retry_after_total", "overloaded submissions answered with RETRY-AFTER", &counters.retry_after),
        ("srv_disconnects_total", "connections that ended without QUIT", &counters.disconnects),
        ("srv_drains_total", "graceful drains completed", &counters.drains),
    ];
    for (name, help, counter) in pairs {
        reg.counter(name, help).add(counter.load(Ordering::Relaxed));
    }
    let hops = lock_unpoisoned(&counters.hops);
    for ((name, help), hist) in HOP_SERIES.iter().zip(hops.iter()) {
        reg.histogram(name, help).absorb(hist);
    }
    reg.gauge("srv_connections_active", "connections currently admitted").set(active as u64);
}

/// The fault-hardened front end over one [`SimService`].
pub struct Server {
    service: Arc<SimService>,
    cfg: ServerConfig,
    counters: Arc<ServerCounters>,
    active: Arc<AtomicUsize>,
    cancel: CancelToken,
    reporter: Arc<dyn Reporter>,
}

impl Server {
    pub fn new(service: Arc<SimService>, cfg: ServerConfig) -> Self {
        let cfg = ServerConfig { max_connections: cfg.max_connections.max(1), ..cfg };
        Server {
            service,
            cfg,
            counters: Arc::new(ServerCounters::default()),
            active: Arc::new(AtomicUsize::new(0)),
            cancel: CancelToken::new(),
            reporter: Arc::new(QuietReporter),
        }
    }

    /// Routes server lifecycle events ([`ProgressEvent::ServerState`],
    /// notes) to `reporter`.
    pub fn set_reporter(&mut self, reporter: Arc<dyn Reporter>) {
        self.reporter = reporter;
    }

    /// The token that stops the accept loop and drains the server.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The server's counters (shared; live while connections run).
    pub fn counters(&self) -> Arc<ServerCounters> {
        Arc::clone(&self.counters)
    }

    /// Connections currently admitted.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<SimService> {
        &self.service
    }

    /// Accepts connections on `listener` until the cancel token fires,
    /// then drains: stops accepting, lets every connection finish its
    /// current frame (they answer `BYE draining`), joins the workers,
    /// and returns. Returns the listener error if accepting itself
    /// breaks.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let addr =
            listener.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());
        self.reporter.report(ProgressEvent::ServerState {
            state: "listening".into(),
            connections: 0,
            detail: addr.clone(),
        });

        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.cancel.is_cancelled() {
            // Reap finished workers so a long-lived server does not
            // accumulate handles.
            workers.retain(|w| !w.is_finished());
            match listener.accept() {
                Ok((stream, _)) => {
                    self.counters.connections.fetch_add(1, Ordering::Relaxed);
                    let mut transport = TcpTransport::new(stream);
                    if self.active.load(Ordering::Relaxed) >= self.cfg.max_connections {
                        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                        let busy = Response::Error {
                            kind: "busy".into(),
                            message: format!(
                                "connection cap {} reached; retry later",
                                self.cfg.max_connections
                            ),
                        };
                        // Best effort: the client may already be gone.
                        let _ = transport.write_frame(&encode_response(&busy));
                        continue;
                    }
                    self.active.fetch_add(1, Ordering::Relaxed);
                    let service = Arc::clone(&self.service);
                    let counters = Arc::clone(&self.counters);
                    let active = Arc::clone(&self.active);
                    let cancel = self.cancel.clone();
                    let cfg = self.cfg;
                    workers.push(std::thread::spawn(move || {
                        // The guard keeps the admission count honest even
                        // if the handler unwinds.
                        struct Slot(Arc<AtomicUsize>);
                        impl Drop for Slot {
                            fn drop(&mut self) {
                                self.0.fetch_sub(1, Ordering::Relaxed);
                            }
                        }
                        let _slot = Slot(active);
                        handle_connection(&mut transport, &service, &counters, &cancel, &cfg);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        self.reporter.report(ProgressEvent::ServerState {
            state: "draining".into(),
            connections: self.active.load(Ordering::Relaxed),
            detail: "accept loop stopped; finishing in-flight requests".into(),
        });
        for worker in workers {
            // A worker that panicked already released its slot and its
            // flight (service guards); the drain keeps going.
            let _ = worker.join();
        }
        self.counters.drains.fetch_add(1, Ordering::Relaxed);
        self.reporter.report(ProgressEvent::ServerState {
            state: "drained".into(),
            connections: 0,
            detail: addr,
        });
        Ok(())
    }

    /// Runs one connection to completion over any [`Transport`] — public
    /// so the chaos tests drive hostile transports straight into the
    /// handler without a socket.
    pub fn handle_connection(&self, transport: &mut dyn Transport) {
        self.counters.connections.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
        handle_connection(transport, &self.service, &self.counters, &self.cancel, &self.cfg);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Why the connection loop ended (internal; counters summarize it).
enum ConnectionEnd {
    Quit,
    Eof,
    Gone,
    Timeout,
    Fatal,
    Drained,
}

fn handle_connection(
    transport: &mut dyn Transport,
    service: &SimService,
    counters: &ServerCounters,
    cancel: &CancelToken,
    cfg: &ServerConfig,
) {
    let _ = transport.set_read_timeout(Some(POLL));
    let deadline = |d: &DeadlineConfig| d.wall_ms.map(Duration::from_millis);
    let read_deadline = deadline(&cfg.read_deadline);
    let idle_deadline = deadline(&cfg.idle_deadline);

    let mut fb = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut hops = SubmitHops::default();
    let mut frame_started: Option<Instant> = None;
    let mut last_frame = Instant::now();

    let end = 'conn: loop {
        if cancel.is_cancelled() && !fb.has_partial() {
            let bye = Response::Bye { reason: "draining".into() };
            let _ = transport.write_frame(&encode_response(&bye));
            break ConnectionEnd::Drained;
        }
        match transport.read_some(&mut chunk) {
            Ok(0) => break ConnectionEnd::Eof,
            Ok(n) => {
                if frame_started.is_none() {
                    frame_started = Some(Instant::now());
                }
                fb.push(&chunk[..n]);
                loop {
                    match fb.next_frame() {
                        Ok(Some(frame)) => {
                            counters.frames.fetch_add(1, Ordering::Relaxed);
                            frame_started = if fb.has_partial() { Some(Instant::now()) } else { None };
                            last_frame = Instant::now();
                            match serve_frame(&frame, transport, service, counters, &mut hops) {
                                Ok(true) => {}
                                Ok(false) => break 'conn ConnectionEnd::Quit,
                                Err(FrameFailure::ClientGone) => break 'conn ConnectionEnd::Gone,
                                Err(FrameFailure::Fatal) => break 'conn ConnectionEnd::Fatal,
                            }
                        }
                        Ok(None) => break,
                        Err(err) => {
                            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            let resp = Response::Error {
                                kind: err.kind().into(),
                                message: err.to_string(),
                            };
                            if transport.write_frame(&encode_response(&resp)).is_err() {
                                break 'conn ConnectionEnd::Gone;
                            }
                            // FrameTooLong is the only framing error that
                            // reaches here, and it is fatal by design.
                            debug_assert!(err.is_fatal());
                            break 'conn ConnectionEnd::Fatal;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                let now = Instant::now();
                if let (Some(budget), Some(started)) = (read_deadline, frame_started) {
                    if now.duration_since(started) > budget {
                        counters.timeouts.fetch_add(1, Ordering::Relaxed);
                        let resp = Response::Error {
                            kind: "timeout".into(),
                            message: format!(
                                "frame not completed within {} ms",
                                budget.as_millis()
                            ),
                        };
                        let _ = transport.write_frame(&encode_response(&resp));
                        break ConnectionEnd::Timeout;
                    }
                }
                if let Some(budget) = idle_deadline {
                    if frame_started.is_none() && now.duration_since(last_frame) > budget {
                        counters.timeouts.fetch_add(1, Ordering::Relaxed);
                        let resp = Response::Error {
                            kind: "timeout".into(),
                            message: format!("idle for more than {} ms", budget.as_millis()),
                        };
                        let _ = transport.write_frame(&encode_response(&resp));
                        break ConnectionEnd::Timeout;
                    }
                }
            }
            Err(_) => break ConnectionEnd::Gone,
        }
    };

    match end {
        ConnectionEnd::Quit | ConnectionEnd::Drained => {}
        ConnectionEnd::Eof | ConnectionEnd::Gone => {
            counters.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        // Timeouts and fatal protocol errors are already counted where
        // they were detected.
        ConnectionEnd::Timeout | ConnectionEnd::Fatal => {}
    }
    if !hops[Hop::Decode as usize].is_empty() {
        let mut total = lock_unpoisoned(&counters.hops);
        for (into, hist) in total.iter_mut().zip(hops.iter()) {
            into.merge(hist);
        }
    }
}

/// Charges a `SUBMIT`'s handling to its [`Hop`]s as back-to-back laps.
struct HopClock {
    last: Instant,
    nanos: [u64; HOPS],
}

impl HopClock {
    fn start() -> Self {
        HopClock { last: Instant::now(), nanos: [0; HOPS] }
    }

    /// Charges the time since the previous lap to `hop`; returns it.
    fn lap(&mut self, hop: Hop) -> Duration {
        let now = Instant::now();
        let lap = now - self.last;
        self.last = now;
        self.nanos[hop as usize] += lap.as_nanos() as u64;
        lap
    }

    /// Charges the time since the previous lap to `hop`, except for
    /// `part` of it (capped at the lap), which goes to `part_hop`.
    fn lap_split(&mut self, hop: Hop, part_hop: Hop, part: Duration) {
        let moved = self.lap(hop).min(part).as_nanos() as u64;
        self.nanos[hop as usize] -= moved;
        self.nanos[part_hop as usize] += moved;
    }

    /// Records one value per hop, zeros included.
    fn record(&self, into: &mut SubmitHops) {
        for (hist, &nanos) in into.iter_mut().zip(self.nanos.iter()) {
            hist.record(nanos);
        }
    }
}

enum FrameFailure {
    /// A response write failed: the client vanished.
    ClientGone,
    /// The frame carried a fatal protocol error.
    Fatal,
}

/// Serves one complete frame. `Ok(true)` keeps the connection, `Ok(false)`
/// is an orderly `QUIT`.
fn serve_frame(
    frame: &[u8],
    transport: &mut dyn Transport,
    service: &SimService,
    counters: &ServerCounters,
    hops: &mut SubmitHops,
) -> Result<bool, FrameFailure> {
    let mut clock = HopClock::start();
    let send = |transport: &mut dyn Transport, resp: &Response| {
        transport.write_frame(&encode_response(resp)).map_err(|_| FrameFailure::ClientGone)
    };
    let request = match decode_request(frame) {
        Ok(req) => req,
        Err(ProtocolError::EmptyFrame) => return Ok(true), // blank line: tolerated
        Err(err) => {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let resp = Response::Error { kind: err.kind().into(), message: err.to_string() };
            send(transport, &resp)?;
            return if err.is_fatal() { Err(FrameFailure::Fatal) } else { Ok(true) };
        }
    };
    match request {
        Request::Ping => send(transport, &Response::Pong).map(|()| true),
        Request::Quit => {
            send(transport, &Response::Bye { reason: "goodbye".into() })?;
            Ok(false)
        }
        Request::Stats => {
            send(transport, &Response::Stats(stats_json(service))).map(|()| true)
        }
        Request::Submit(payload) => {
            let req = match submission_from_json(&payload) {
                Ok(req) => req,
                Err(err) => {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let resp =
                        Response::Error { kind: err.kind().into(), message: err.to_string() };
                    return send(transport, &resp).map(|()| true);
                }
            };
            counters.submits.fetch_add(1, Ordering::Relaxed);
            let key = req.stable_key();
            clock.lap(Hop::Decode);
            let served = serve_submit(&req, key, transport, service, counters, &mut clock);
            clock.record(hops);
            served
        }
    }
}

/// Encodes and writes one reply frame, charging each half to its hop.
fn send_timed(
    transport: &mut dyn Transport,
    resp: &Response,
    clock: &mut HopClock,
) -> Result<(), FrameFailure> {
    let bytes = encode_response(resp);
    clock.lap(Hop::Encode);
    let written = transport.write_frame(&bytes).map_err(|_| FrameFailure::ClientGone);
    clock.lap(Hop::Write);
    written
}

/// Answers one decoded `SUBMIT`: the early `accepted` event, then the
/// service's outcome.
fn serve_submit(
    req: &RunRequest,
    key: u64,
    transport: &mut dyn Transport,
    service: &SimService,
    counters: &ServerCounters,
    clock: &mut HopClock,
) -> Result<bool, FrameFailure> {
    let accepted = json_object(vec![
        ("state", JsonValue::String("accepted".into())),
        ("key", JsonValue::String(format!("{key:016x}"))),
    ]);
    send_timed(transport, &Response::Event(accepted), clock)?;

    // The simulation runs on this connection's thread: the service's
    // coalescing/queueing/shedding applies unchanged.
    let outcome = service.submit(req);
    let simulated = match &outcome {
        Ok(result) if !result.from_cache => result.wall,
        _ => Duration::ZERO,
    };
    clock.lap_split(Hop::Queue, Hop::Simulate, simulated);
    let resp = match outcome {
        Ok(result) => {
            counters.results.fetch_add(1, Ordering::Relaxed);
            Response::Result(result_json(key, req, &result))
        }
        Err(RunError::Overloaded { retry_after, inflight, limit, .. }) => {
            counters.retry_after.fetch_add(1, Ordering::Relaxed);
            let detail = json_object(vec![
                ("key", JsonValue::String(format!("{key:016x}"))),
                ("inflight", JsonValue::Number(inflight as f64)),
                ("limit", JsonValue::Number(limit as f64)),
            ]);
            Response::RetryAfter {
                millis: retry_after.as_millis().min(u128::from(u64::MAX)) as u64,
                detail,
            }
        }
        Err(other) => Response::Error { kind: "run".into(), message: other.to_string() },
    };
    send_timed(transport, &resp, clock).map(|()| true)
}

fn json_object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn result_json(key: u64, req: &RunRequest, result: &RunResult) -> JsonValue {
    json_object(vec![
        ("key", JsonValue::String(format!("{key:016x}"))),
        // Digests exceed 2^53; hex strings survive every JSON consumer.
        ("digest", JsonValue::String(format!("{:016x}", result.metrics.digest()))),
        ("from_cache", JsonValue::Bool(result.from_cache)),
        ("workload", JsonValue::String(req.workload.to_string())),
        ("mode", JsonValue::String(req.config.mode.to_string())),
        ("sim_ips", JsonValue::Number(result.sim_ips)),
        ("wall_ms", JsonValue::Number(result.wall.as_secs_f64() * 1e3)),
    ])
}

fn stats_json(service: &SimService) -> JsonValue {
    let pressure = service.pressure();
    let stats = service.runner().stats();
    json_object(vec![
        ("queue_depth", JsonValue::Number(pressure.queue_depth as f64)),
        ("inflight", JsonValue::Number(pressure.inflight as f64)),
        ("cache_entries", JsonValue::Number(pressure.cache_entries as f64)),
        ("cache_hits", JsonValue::Number(stats.cache_hits as f64)),
        ("coalesced_hits", JsonValue::Number(stats.coalesced_hits as f64)),
        ("cache_misses", JsonValue::Number(stats.cache_misses as f64)),
        ("shed_points", JsonValue::Number(stats.shed_points as f64)),
    ])
}

/// Builds the full metrics registry for this server — `srv_*` counters
/// plus the shared runner/service series — and snapshots it.
pub fn metrics_snapshot(server: &Server) -> slicc_obs::MetricsSnapshot {
    let reg = MetricsRegistry::new();
    export_server(&reg, &server.counters(), server.active_connections());
    slicc_sim::export_runner_stats(&reg, &server.service().runner().stats());
    slicc_sim::export_service(&reg, &server.service().pressure());
    reg.snapshot()
}

/// Writes `PREFIX.metrics.prom` and `PREFIX.metrics.json` atomically —
/// the same artifact pair the `slicc` CLI emits.
pub fn write_metrics_artifacts(server: &Server, prefix: &str) -> io::Result<()> {
    let snapshot = metrics_snapshot(server);
    slicc_common::atomic_write(
        std::path::Path::new(&format!("{prefix}.metrics.prom")),
        snapshot.to_prometheus().as_bytes(),
    )?;
    slicc_common::atomic_write(
        std::path::Path::new(&format!("{prefix}.metrics.json")),
        snapshot.to_json().as_bytes(),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Exhausted, MemTransport};
    use slicc_obs::MetricValue;
    use slicc_sim::{Runner, ServiceConfig};

    fn submit(seed: u64) -> Vec<u8> {
        format!(
            "SUBMIT {{\"workload\":\"tpcc1\",\"scale\":\"tiny\",\"machine\":\"tiny\",\"seed\":{seed}}}\n"
        )
        .into_bytes()
    }

    #[test]
    fn hop_histograms_count_every_submit_and_tile_the_handler_time() {
        const HITS: u64 = 2_000;
        let runner = Arc::new(Runner::new(1));
        let service = Arc::new(SimService::new(
            runner,
            ServiceConfig { max_inflight: 1, queue_limit: 0 },
        ));
        let server = Server::new(service, ServerConfig::default());
        let hist = |snapshot: &slicc_obs::MetricsSnapshot, name: &str| match snapshot.get(name) {
            Some(MetricValue::Histogram(h)) => h.clone(),
            other => panic!("{name} should be a histogram, got {other:?}"),
        };
        let hop_sum = |snapshot: &slicc_obs::MetricsSnapshot| -> u64 {
            HOP_SERIES.iter().map(|(name, _)| hist(snapshot, name).sum).sum()
        };

        // A fresh point, with a PING and an invalid SUBMIT beside it:
        // frames that are not served SUBMITs take no hop.
        let mut fresh = MemTransport::script(
            vec![submit(7), b"PING\n".to_vec(), b"SUBMIT {}\n".to_vec()],
            Exhausted::Eof,
        );
        server.handle_connection(&mut fresh);
        let first = metrics_snapshot(&server);
        assert_eq!(first.value("srv_submits_total"), Some(1));
        let simulate = hist(&first, "srv_hop_simulate_nanos");
        assert_eq!((simulate.count, simulate.buckets[0]), (1, 0), "the fresh point simulates");

        // Memoized repeats on a second connection: simulate is 0 each.
        let mut script: Vec<Vec<u8>> = (0..HITS).map(|_| submit(7)).collect();
        script.push(b"QUIT\n".to_vec());
        let mut hits = MemTransport::script(script, Exhausted::Eof);
        let started = Instant::now();
        server.handle_connection(&mut hits);
        let handler = started.elapsed().as_nanos() as u64;

        let snapshot = metrics_snapshot(&server);
        let submits = snapshot.value("srv_submits_total").expect("submits exported");
        assert_eq!(submits, HITS + 1);
        for (name, _) in HOP_SERIES {
            assert_eq!(hist(&snapshot, name).count, submits, "{name} must count every SUBMIT");
        }
        assert_eq!(hist(&snapshot, "srv_hop_simulate_nanos").buckets[0], HITS);

        // The laps are back to back inside the handler, so they can only
        // fall short of its time by what lies between SUBMITs: reads and
        // framing, about 8 % of a memoized SUBMIT on a 2-CPU x86 host.
        // Allow 25 %, so one scheduler preemption cannot fail the test.
        let hops = hop_sum(&snapshot) - hop_sum(&first);
        assert!(hops <= handler, "hops {hops} ns exceed the handler's {handler} ns");
        assert!(
            hops as f64 >= 0.75 * handler as f64,
            "hops {hops} ns cover under 75 % of the handler's {handler} ns"
        );
    }
}
