//! `serve-mixed`: an in-process `slicc-serve` on loopback, driven by two
//! closed-loop clients (one thread each, one connection each). 80 % of
//! the submissions repeat a key set warmed during set-up (reads of the
//! run cache); 20 % are fresh tiny-scale seeds (writes), half of them
//! from one sequence both clients follow, so some coalesce, and half
//! each client's own. The serving stack and `SimService` do most of the
//! work, the engine little.

use crate::spans::{SpanId, Tracer};
use crate::stats;
use crate::{Args, Outcome};
use slicc_common::{parse_json, SplitMix64};
use slicc_serve::{
    decode_request, decode_response, encode_request, encode_response, submission_from_json, Client,
    Exhausted, FrameBuffer, MemTransport, Request, Response, Server, ServerConfig, Submitted,
};
use slicc_sim::{
    Engine, RunMetrics, RunRequest, Runner, RunnerStats, SchedulerMode, ServiceConfig, SimConfig,
    SimService,
};
use slicc_trace::{TraceScale, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
/// Submissions per second of `--seconds`, about today's closed-loop rate.
const SUBMITS_PER_SEC: u64 = 50;
/// At least this many, so the median round trip has plenty of samples
/// beyond it.
const MIN_SUBMITS: u64 = 100;
const FRESH_SHARE: f64 = 0.2;
const WARM_WORKLOADS: [&str; 4] = ["tpcc1", "tpcc10", "tpce", "mapreduce"];
const MODES: [&str; 4] = ["base", "slicc", "slicc-pp", "slicc-sw"];
/// The warm key set's trace seed. It is the same for every `--seed`, so
/// the served results, and the `paper_err_pct` taken over them, repeat
/// exactly.
const WARM_TRACE_SEED: u64 = 0x5eed;
/// Round trips of the loopback probe that the batch workloads' traced
/// runs make for `serve.rtt_p50_ms`.
const PROBE_SUBMITS: usize = 60;

fn body(workload: &str, mode: &str, seed: u64) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"scale\":\"tiny\",\"seed\":{seed}}}"
    )
}

/// JSON numbers are doubles: keep trace seeds well inside 2^53.
fn trace_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_below(1 << 40)
}

/// The warm key set: every workload × mode at one fixed seed.
fn warm_keys() -> Vec<String> {
    WARM_WORKLOADS
        .iter()
        .flat_map(|w| MODES.map(|m| body(w, m, WARM_TRACE_SEED)))
        .collect()
}

/// The `j`-th fresh key of sequence `stream`: 0 is the sequence both
/// clients walk, `1 + c` client `c`'s own.
fn fresh_key(seed: u64, stream: u64, j: u64) -> String {
    let s = trace_seed(&mut SplitMix64::new(seed ^ 0xf7e5).split(stream << 32 | j));
    body(
        ["tpcc1", "tpce"][(j % 2) as usize],
        MODES[(j / 2 % MODES.len() as u64) as usize],
        s,
    )
}

fn parse_request(body: &str) -> Result<RunRequest, String> {
    let json = parse_json(body).map_err(|e| format!("bad key {body}: {e}"))?;
    submission_from_json(&json).map_err(|e| format!("bad key {body}: {e}"))
}

/// A server with a warmed cache, ready to accept.
struct Rig {
    server: Arc<Server>,
    listener: TcpListener,
}

fn build_rig(warm: &[String], tracer: &mut Tracer, parent: SpanId) -> Result<Rig, String> {
    let service = tracer.time("serve.build", parent, || {
        let runner = Arc::new(Runner::new(1));
        Arc::new(SimService::new(
            runner,
            ServiceConfig {
                max_inflight: 1,
                queue_limit: CLIENTS as usize,
            },
        ))
    });
    let server = Arc::new(Server::new(Arc::clone(&service), ServerConfig::default()));
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let span = tracer.begin("serve.warm", parent, 0);
    for key in warm {
        service
            .submit(&parse_request(key)?)
            .map_err(|e| format!("warm-up {key}: {e}"))?;
    }
    tracer.end(span);
    Ok(Rig { server, listener })
}

/// One client's view of one submission.
struct Sample {
    key: String,
    rtt: Duration,
    reply: Result<Submitted, String>,
}

struct Phase {
    wall: Duration,
    samples: Vec<Sample>,
    /// The runner's statistics before and after the phase.
    before: RunnerStats,
    after: RunnerStats,
    protocol_errors: u64,
    timeouts: u64,
    server: Arc<Server>,
}

fn client_loop(
    addr: &str,
    c: u64,
    ops: u64,
    seed: u64,
    warm: &[String],
    tracer: &mut Tracer,
) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr)?;
    // Both clients follow one schedule with exactly FRESH_SHARE of the
    // submissions fresh: every run simulates the same number of keys.
    // Every other fresh key is shared: the j-th reaches the server from
    // both clients at about the same time, so the second submission often
    // coalesces onto the first. The clients run in lock-step with each
    // other, so one connection can win every shared key for a whole run;
    // the private keys make both connections simulate in every run, so
    // that both connection threads' heaps (glibc gives each thread an
    // arena of its own) grow, and the peak RSS does not flip between two
    // values from run to run.
    let fresh_ops = (ops as f64 * FRESH_SHARE).round() as u64;
    let mut schedule: Vec<bool> = (0..ops).map(|op| op < fresh_ops).collect();
    crate::shuffle(&mut schedule, &mut SplitMix64::new(seed).split(0x5c4e));
    let mut pick = SplitMix64::new(seed).split(0xc1 + c);
    let mut fresh = 0;
    let mut samples = Vec::with_capacity(ops as usize);
    for (op, is_fresh) in (0..ops).zip(schedule) {
        let key = if is_fresh {
            fresh += 1;
            let j = fresh - 1;
            fresh_key(seed, if j % 2 == 0 { 0 } else { 1 + c }, j / 2)
        } else {
            warm[pick.next_below(warm.len() as u64) as usize].clone()
        };
        let span = tracer.begin("serve.submit", SpanId::NONE, c << 32 | op);
        let start = Instant::now();
        let reply = client.submit(&key);
        let rtt = start.elapsed();
        tracer.end(span);
        samples.push(Sample { key, rtt, reply });
    }
    client.quit()?;
    Ok(samples)
}

fn timed_phase(
    rig: Rig,
    args: &Args,
    warm: &[String],
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let Rig { server, listener } = rig;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let before = server.service().runner().stats();
    let per_client = MIN_SUBMITS
        .max(SUBMITS_PER_SEC * args.seconds)
        .div_ceil(CLIENTS);
    let origin = tracer.origin();
    let traced = tracer.enabled();

    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };
    let start = Instant::now();
    let outcomes: Vec<Result<(Vec<Sample>, Tracer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || {
                    let mut t = Tracer::with_origin(origin, traced);
                    client_loop(addr, c, per_client, args.seed, warm, &mut t).map(|v| (v, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed();
    server.cancel_token().cancel();
    acceptor
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server accept loop failed: {e}"))?;

    let mut samples = Vec::new();
    for o in outcomes {
        let (s, t) = o?;
        samples.extend(s);
        tracer.absorb(t, SpanId::NONE);
    }
    let after = server.service().runner().stats();
    let counters = server.counters();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    Ok(Phase {
        wall,
        samples,
        before,
        after,
        protocol_errors: load(&counters.protocol_errors),
        timeouts: load(&counters.timeouts),
        server,
    })
}

/// Digests of `RunRequest::execute` for every key, on two threads.
fn reference_digests(keys: &BTreeSet<String>) -> Result<BTreeMap<String, String>, String> {
    let keys: Vec<&String> = keys.iter().collect();
    let halves: Vec<Result<Vec<(String, String)>, String>> = std::thread::scope(|s| {
        keys.chunks(keys.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|k| {
                            let d = parse_request(k)?.execute().metrics.digest();
                            Ok(((*k).clone(), format!("{d:016x}")))
                        })
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reference thread panicked".into()))
            })
            .collect()
    });
    let mut out = BTreeMap::new();
    for h in halves {
        out.extend(h?);
    }
    Ok(out)
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let warm = warm_keys();
    let mut setup = |t: &mut Tracer, parent| build_rig(&warm, t, parent);
    let (setup_before, rig) = crate::timed_setup(tracer, &mut setup);
    let mut rig = Some(rig?);

    let untraced = if args.trace {
        let phase = timed_phase(
            rig.take().expect("rig"),
            args,
            &warm,
            &mut Tracer::new(false),
        )?;
        rig = Some(build_rig(&warm, &mut Tracer::new(false), SpanId::NONE)?);
        Some(phase.wall)
    } else {
        None
    };
    let phase = timed_phase(rig.take().expect("rig"), args, &warm, tracer)?;

    let peak_rss = crate::host::peak_rss_mib();
    let (setup_after, rig) = crate::timed_setup(tracer, &mut setup);
    rig?;
    let keys: BTreeSet<String> = phase.samples.iter().map(|s| s.key.clone()).collect();
    let reference = reference_digests(&keys)?;
    let mut rtts_ms = Vec::new();
    for s in &phase.samples {
        let problem = match &s.reply {
            Ok(Submitted::Result { digest, .. }) if Some(digest) == reference.get(&s.key) => {
                rtts_ms.push(s.rtt.as_secs_f64() * 1e3);
                None
            }
            Ok(Submitted::Result { digest, .. }) => {
                Some(format!("{}: served digest {digest} != in-process", s.key))
            }
            Ok(Submitted::RetryAfter { millis }) => {
                Some(format!("{}: RETRY-AFTER {millis}", s.key))
            }
            Ok(Submitted::RunError { message }) => Some(format!("{}: ERROR run {message}", s.key)),
            Err(e) => Some(format!("{}: {e}", s.key)),
        };
        out.op(problem);
    }
    for (name, n) in [
        ("protocol error", phase.protocol_errors),
        ("timeout", phase.timeouts),
    ] {
        for _ in 0..n {
            out.op(Some(format!("server counted a {name}")));
        }
    }
    let p50 = stats::percentile(&rtts_ms, 50.0);
    let ms = |p: Option<f64>| {
        p.map_or("n/a (needs 10 samples beyond it)".into(), |v| {
            format!("{v:.3} ms")
        })
    };
    let (before, after) = (&phase.before, &phase.after);
    eprintln!(
        "perfbench: rtt p50 {}, p99 {} over {} correct round trips, {:.2} per s; \
         runner misses {} memo hits {} coalesced {}",
        ms(p50),
        ms(stats::percentile(&rtts_ms, 99.0)),
        rtts_ms.len(),
        rtts_ms.len() as f64 / phase.wall.as_secs_f64(),
        after.cache_misses - before.cache_misses,
        after.cache_hits - before.cache_hits,
        after.coalesced_hits - before.coalesced_hits,
    );
    let busy = Duration::from_nanos(after.busy_nanos - before.busy_nanos);
    let runner = phase.server.service().runner();

    if !args.trace {
        // Served results of the warm key set, as memo hits.
        let warm_reqs = requests(&warm)?;
        let served: Vec<(&str, &str, RunMetrics)> = warm_reqs
            .iter()
            .zip(runner.run_all(&warm_reqs))
            .map(|(req, res)| {
                res.map(|r| (req.workload.name(), req.mode().name(), r.metrics))
                    .map_err(|e| format!("warm key {:016x}: {e}", req.stable_key()))
            })
            .collect::<Result<_, _>>()?;
        let metrics_of = |w: &str, column: &str| {
            served
                .iter()
                .find(|(sw, sc, _)| *sw == w && *sc == column)
                .map(|(_, _, m)| m)
        };
        let speedup = |w: &str, column: &str| {
            let base = metrics_of(w, SchedulerMode::Baseline.name())?;
            Some(metrics_of(w, column)?.speedup_over(base))
        };
        let claims = stats::covered(&stats::parse_claims(crate::figures::CLAIMS)?, speedup);
        return crate::EndToEnd {
            wall_s: phase.wall.as_secs_f64(),
            setup: [&setup_before, &setup_after],
            peak_rss_mib: peak_rss,
            sim_mips: stats::sim_mips(&[stats::PointTime {
                instructions: after.simulated_instructions - before.simulated_instructions,
                busy,
            }])
            .ok_or("no submission simulated")?,
            paper_err_pct: stats::paper_err_pct(&claims, speedup)?,
        }
        .report(&mut out)
        .map(|()| out);
    }

    // The points the phase simulated, as memo hits with their walls.
    let fresh_keys: Vec<String> = keys.into_iter().filter(|k| !warm.contains(k)).collect();
    let fresh = requests(&fresh_keys)?;
    let points = fresh
        .iter()
        .zip(runner.run_all(&fresh))
        .map(|(req, res)| {
            res.map(|r| (req.mode(), r.metrics.instructions, r.wall))
                .map_err(|e| format!("fresh key {}: {e}", req.stable_key()))
        })
        .collect::<Result<_, _>>()?;
    let headline = parse_request(&body("tpcc1", "slicc-sw", WARM_TRACE_SEED))?;
    let model = runner
        .run_all(std::slice::from_ref(&headline))
        .remove(0)
        .map_err(|e| format!("headline point: {e}"))?
        .metrics;
    spec_build(&mut out, tracer);
    engine_build(&mut out, tracer)?;
    let spec = Workload::TpcC1.spec(TraceScale::tiny());
    crate::Layers {
        traced: phase.wall,
        untraced: untraced.expect("traced runs time an untraced phase"),
        // One job: `Runner::new(1)`.
        busy_share: busy.as_secs_f64() / phase.wall.as_secs_f64(),
        points,
        model: &model,
        stream: &spec,
    }
    .report(&mut out, tracer)?;
    let p50 = p50.ok_or_else(|| {
        format!(
            "only {} correct results, too few for a median round trip",
            rtts_ms.len()
        )
    })?;
    serving_layers(&mut out, &phase.server, &warm, args.seed, p50, tracer).map(|()| out)
}

fn requests(keys: &[String]) -> Result<Vec<RunRequest>, String> {
    keys.iter().map(|k| parse_request(k)).collect()
}

/// The serving layers for a batch workload's traced run: a fresh rig
/// with the warm key set, a short loopback burst of warm `SUBMIT`s from
/// one client for the round trip, then the in-process probes.
pub fn probe_serving(out: &mut Outcome, seed: u64, tracer: &mut Tracer) -> Result<(), String> {
    let warm = warm_keys();
    let Rig { server, listener } = build_rig(&warm, tracer, SpanId::NONE)?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };
    let burst = (|| {
        let mut client = Client::connect(&addr)?;
        let mut rtts_ms = Vec::with_capacity(PROBE_SUBMITS);
        for i in 0..PROBE_SUBMITS {
            let key = &warm[i % warm.len()];
            let start = Instant::now();
            let reply = tracer.time("serve.submit", SpanId::NONE, || client.submit(key));
            rtts_ms.push(start.elapsed().as_secs_f64() * 1e3);
            match reply {
                Ok(Submitted::Result { .. }) => {}
                Ok(other) => return Err(format!("probe SUBMIT {key}: {other:?}")),
                Err(e) => return Err(format!("probe SUBMIT {key}: {e}")),
            }
        }
        client.quit()?;
        Ok(rtts_ms)
    })();
    server.cancel_token().cancel();
    acceptor
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("server accept loop failed: {e}"))?;
    let p50 = stats::percentile(&burst?, 50.0).expect("enough probe round trips");
    serving_layers(out, &server, &warm, seed, p50, tracer)
}

/// `serve.rtt_p50_ms`, `serve.socket_ms` and the in-process probes.
fn serving_layers(
    out: &mut Outcome,
    server: &Server,
    warm: &[String],
    seed: u64,
    rtt_p50_ms: f64,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let handle_us = probes(out, server, warm, seed, tracer)?;
    out.metric("serve.rtt_p50_ms", rtt_p50_ms, "ms");
    out.metric("serve.socket_ms", rtt_p50_ms - handle_us / 1e3, "ms");
    Ok(())
}

/// `engine.build_ms`: median `Engine::try_new` of the headline tiny
/// point, which the server's runner otherwise builds inside each miss.
fn engine_build(out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let spec = Workload::TpcC1.spec(TraceScale::tiny());
    let cfg = SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw);
    let (secs, built) = crate::repeat_median(|| {
        tracer.time("engine.build", SpanId::NONE, || {
            Engine::try_new(&spec, &cfg).map(drop)
        })
    });
    built.map_err(|e| format!("engine build: {e}"))?;
    out.metric("engine.build_ms", secs * 1e3, "ms");
    Ok(())
}

/// `trace.spec_ms`: median build of the warm workloads' tiny specs.
fn spec_build(out: &mut Outcome, tracer: &mut Tracer) {
    let (secs, _) = crate::repeat_median(|| {
        tracer.time("trace.spec", SpanId::NONE, || {
            Workload::ALL.map(|w| w.spec(TraceScale::tiny()))
        })
    });
    out.metric("trace.spec_ms", secs * 1e3, "ms");
}

/// In-process probes of the service, the connection handler and the
/// codec. Returns the handler's time per `SUBMIT`, in microseconds.
fn probes(
    out: &mut Outcome,
    server: &Server,
    warm: &[String],
    seed: u64,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    const HITS: usize = 400;
    let service = server.service();
    let warm_reqs = requests(warm)?;

    let mut hit = Vec::new();
    for i in 0..HITS {
        let start = Instant::now();
        let r = tracer.time("service.hit", SpanId::NONE, || {
            service.submit(&warm_reqs[i % warm_reqs.len()])
        });
        hit.push(start.elapsed());
        out.op(r.err().map(|e| format!("in-process hit failed: {e}")));
    }
    out.metric(
        "service.hit_us",
        stats::median_secs(&hit).expect("ran") * 1e6,
        "us",
    );

    let mut miss = Vec::new();
    for j in 0..5 {
        let req = parse_request(&fresh_key(seed ^ 0x9b0be, 0, j))?;
        let start = Instant::now();
        let r = tracer.time("service.miss", SpanId::NONE, || service.submit(&req));
        miss.push(start.elapsed());
        out.op(r.err().map(|e| format!("in-process miss failed: {e}")));
    }
    out.metric(
        "service.miss_ms",
        stats::median_secs(&miss).expect("ran") * 1e3,
        "ms",
    );

    // The same SUBMIT frames through the connection handler, no socket.
    let frames: Vec<Vec<u8>> = (0..HITS)
        .map(|i| format!("SUBMIT {}\n", warm[i % warm.len()]).into_bytes())
        .chain([b"QUIT\n".to_vec()])
        .collect();
    let mut transport = MemTransport::script(frames, Exhausted::Eof);
    let start = Instant::now();
    // The timed phase drained `server`; a fresh front end shares its service.
    let handler = Server::new(Arc::clone(service), ServerConfig::default());
    tracer.time("serve.handle", SpanId::NONE, || {
        handler.handle_connection(&mut transport)
    });
    let handle_us = start.elapsed().as_secs_f64() * 1e6 / HITS as f64;
    let results = transport
        .outbound_frames()
        .iter()
        .filter(|f| matches!(decode_response(f), Ok(Response::Result(_))))
        .count();
    out.op((results != HITS).then(|| format!("handler answered {results} of {HITS} SUBMITs")));
    out.metric("serve.handle_us", handle_us, "us");

    // Codec: one SUBMIT through encode, framing and decode, and one
    // RESULT back through encode and decode.
    let payload = parse_json(&warm[0]).map_err(|e| e.to_string())?;
    let result = parse_json(
        "{\"key\":\"00000000deadbeef\",\"digest\":\"0123456789abcdef\",\"from_cache\":true}",
    )
    .map_err(|e| e.to_string())?;
    const ROUNDS: usize = 20_000;
    let mut fb = FrameBuffer::new();
    let span = tracer.begin("serve.codec", SpanId::NONE, 0);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        fb.push(&encode_request(&Request::Submit(payload.clone())));
        let frame = fb
            .next_frame()
            .map_err(|e| e.to_string())?
            .ok_or("no frame")?;
        std::hint::black_box(decode_request(&frame).map_err(|e| e.to_string())?);
        let resp = encode_response(&Response::Result(result.clone()));
        std::hint::black_box(decode_response(&resp[..resp.len() - 1]).map_err(|e| e.to_string())?);
    }
    let codec_ns = start.elapsed().as_nanos() as f64 / ROUNDS as f64;
    tracer.end(span);
    out.metric("serve.codec_ns", codec_ns, "ns");
    Ok(handle_us)
}
