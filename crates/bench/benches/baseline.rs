//! The tracked performance baseline: times full small simulation points
//! per scheduler mode, the hot-structure microbenches, and the served
//! submission throughput, and emits machine-readable JSON so
//! every PR has a perf trajectory to compare against
//! (`BENCH_history.json` at the repo root is the checked-in record —
//! one append-only row per commit).
//!
//! ```text
//! cargo bench --bench baseline                      # table + JSON to stdout
//! cargo bench --bench baseline -- --quick           # 1 sample per point
//! cargo bench --bench baseline -- --out now.json    # measurement document
//! cargo bench --bench baseline -- --history BENCH_history.json
//! ```
//!
//! With `--history`, one `{commit, date, host_cpus, benches[]}` row is
//! appended to the named JSON array (created if missing). Rows are never
//! rewritten: the rolling-baseline gate in `scripts/ci.sh` compares a
//! fresh measurement against the median of the checked-in tail, so the
//! file is a trend, not a ledger of one hand-nested before/after chain.

#![forbid(unsafe_code)]

use slicc_bench::{time_ns_per_iter, time_ns_per_run};
use slicc_cache::{AccessKind, Cache, PolicyKind};
use slicc_common::{BlockAddr, CacheGeometry, CoreId, SplitMix64};
use slicc_mem::{L2AccessKind, L2Nuca};
use slicc_serve::{loadgen, LoadgenConfig, Scenario, Server, ServerConfig};
use slicc_sim::{RunRequest, Runner, SchedulerMode, ServiceConfig, SimConfig, SimService};
use slicc_trace::{TraceScale, Workload};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Samples per whole-point timing (median reported).
const POINT_SAMPLES: usize = 5;
/// Measurement budget per microbench.
const MICRO_TIME: Duration = Duration::from_millis(300);

struct Options {
    quick: bool,
    out: Option<String>,
    history: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options { quick: false, out: None, history: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => {}
            "--quick" => opts.quick = true,
            "--out" => opts.out = args.next(),
            "--history" => opts.history = args.next(),
            other => {
                eprintln!("usage: bench baseline [--quick] [--out PATH] [--history PATH]");
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    opts
}

struct PointRow {
    mode: &'static str,
    instructions: u64,
    cycles: u64,
    median_wall_ns: u64,
    sim_ips: f64,
}

/// Times every scheduler mode on the small TPC-C-1 point.
fn bench_points(samples: usize) -> Vec<PointRow> {
    SchedulerMode::WITH_STEPS
        .into_iter()
        .map(|mode| {
            let req = RunRequest::new(
                Workload::TpcC1,
                TraceScale::small(),
                SimConfig::paper_baseline().with_mode(mode),
            );
            let metrics = req.execute().metrics; // warm-up + metrics capture
            let ns = time_ns_per_run(samples, || req.execute());
            let sim_ips = metrics.instructions as f64 * 1e9 / ns;
            eprintln!(
                "point/{:<10} {:>10.2} ms/run {:>10.2} M sim-ips",
                mode.name(),
                ns / 1e6,
                sim_ips / 1e6
            );
            PointRow {
                mode: mode.name(),
                instructions: metrics.instructions,
                cycles: metrics.cycles,
                median_wall_ns: ns as u64,
                sim_ips,
            }
        })
        .collect()
}

/// The hot-structure microbenches: L1 lookup, the L2 directory/response
/// path, and a whole tiny engine run.
fn bench_micro(measure: Duration, samples: usize) -> Vec<(String, f64)> {
    let mut rows = Vec::new();

    let geom = CacheGeometry::new(32 * 1024, 8, 64);
    for policy in [PolicyKind::Lru, PolicyKind::Drrip] {
        let mut cache = Cache::new(geom, policy, 1);
        let mut rng = SplitMix64::new(7);
        let ns = time_ns_per_iter(measure, || {
            cache.access(BlockAddr::new(rng.next_below(4096)), AccessKind::Read)
        });
        rows.push((format!("cache/access/{policy}"), ns));
    }

    let mut l2 = L2Nuca::new(CacheGeometry::new(256 * 1024, 8, 64), 4, 16, 1);
    let mut rng = SplitMix64::new(21);
    let ns = time_ns_per_iter(measure, || {
        let core = CoreId::new(rng.next_below(8) as u16);
        let block = BlockAddr::new(rng.next_below(16_384));
        let kind = match rng.next_below(3) {
            0 => L2AccessKind::IFetch,
            1 => L2AccessKind::DataRead,
            _ => L2AccessKind::DataWrite,
        };
        l2.access(core, block, kind).hit
    });
    rows.push(("l2/access".to_string(), ns));

    let req = RunRequest::new(
        Workload::TpcC1,
        TraceScale::tiny(),
        SimConfig::tiny_test().with_mode(SchedulerMode::Slicc),
    );
    let ns = time_ns_per_run(samples.max(3), || req.execute());
    rows.push(("engine/tiny/SLICC".to_string(), ns));

    // The observability cost guard: the same point with full event
    // tracing + epoch sampling on. Compare against the row above to see
    // what `--obs-out` actually costs (the obs-off build pays nothing —
    // the no-default-features golden lane in ci.sh proves that side).
    // Metrics capture (the registry) rides the same row
    // so the ci.sh obs-overhead gate bounds the whole observability bill.
    let observed = req.clone().with_obs(
        slicc_sim::ObsConfig::disabled()
            .with_events()
            .with_epochs(slicc_sim::ObsConfig::DEFAULT_EPOCH_CYCLES)
            .with_metrics(),
    );
    let ns = time_ns_per_run(samples.max(3), || observed.execute());
    rows.push(("engine/tiny/SLICC+obs".to_string(), ns));

    for (name, ns) in &rows {
        eprintln!("micro/{name:<30} {ns:>12.1} ns/iter");
    }
    rows
}

/// End-to-end serving throughput: an in-process `slicc-serve` instance
/// on an ephemeral loopback port under the loadgen stampede drill.
/// After the first miss per distinct key the run cache absorbs every
/// duplicate, so the row tracks the serving stack — framing, dispatch,
/// coalescing, replies — rather than simulation speed. The drill's
/// governance invariants are asserted, so a coalescing or shedding
/// regression fails the bench outright instead of skewing the number.
fn bench_serve(quick: bool) -> Vec<(String, f64)> {
    let runner = Arc::new(Runner::new(2));
    let service =
        Arc::new(SimService::new(runner, ServiceConfig { max_inflight: 2, queue_limit: 64 }));
    let server = Arc::new(Server::new(service, ServerConfig::default()));
    let cancel = server.cancel_token();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener))
    };

    let mut cfg = LoadgenConfig::new(addr, Scenario::Stampede);
    cfg.connections = 4;
    cfg.per_connection = if quick { 25 } else { 100 };
    cfg.distinct = 4;
    let report = loadgen::run(&cfg).expect("loadgen reaches the in-process server");
    report.check().expect("bench drill holds the stampede invariants");

    cancel.cancel();
    handle.join().expect("server thread").expect("serve drains cleanly");

    let rows = vec![("serve/submits-per-sec".to_string(), report.submits_per_sec())];
    for (name, v) in &rows {
        eprintln!("{name:<30} {v:>12.1} submits/s");
    }
    rows
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Renders the standalone measurement document.
fn render_doc(
    samples: usize,
    points: &[PointRow],
    micro: &[(String, f64)],
    serve: &[(String, f64)],
) -> String {
    let total_instr: u64 = points.iter().map(|p| p.instructions).sum();
    let total_ns: u64 = points.iter().map(|p| p.median_wall_ns).sum();
    let aggregate = total_instr as f64 * 1e9 / total_ns as f64;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": 2,");
    let _ = writeln!(s, "  \"workload\": \"TPC-C-1\",");
    let _ = writeln!(s, "  \"scale\": \"small\",");
    let _ = writeln!(s, "  \"samples\": {samples},");
    let _ = writeln!(s, "  \"host_cpus\": {},", host_cpus());
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"mode\": \"{}\", \"instructions\": {}, \"cycles\": {}, \"median_wall_ns\": {}, \"sim_ips\": {:.1}}}{comma}",
            p.mode, p.instructions, p.cycles, p.median_wall_ns, p.sim_ips
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(s, "  \"aggregate_sim_ips\": {aggregate:.1},");
    s.push_str("  \"micro_ns_per_iter\": {\n");
    for (i, (name, ns)) in micro.iter().enumerate() {
        let comma = if i + 1 < micro.len() { "," } else { "" };
        let _ = writeln!(s, "    \"{name}\": {ns:.1}{comma}");
    }
    s.push_str("  },\n");
    s.push_str("  \"serve\": {\n");
    for (i, (name, v)) in serve.iter().enumerate() {
        let comma = if i + 1 < serve.len() { "," } else { "" };
        let _ = writeln!(s, "    \"{name}\": {v:.1}{comma}");
    }
    s.push_str("  }\n}");
    s
}

/// The current commit, `-dirty` suffixed when the tree has
/// uncommitted changes, or `"unknown"` outside a git checkout.
fn commit_label() -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let Some(rev) = rev else { return "unknown".to_string() };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .is_some_and(|o| !o.stdout.is_empty());
    if dirty { format!("{rev}-dirty") } else { rev }
}

fn today() -> String {
    std::process::Command::new("date")
        .arg("+%F")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders one benchmark-action-style history row: flat named values so
/// trend tooling never needs this file's schema beyond `benches[]`.
fn render_history_row(
    points: &[PointRow],
    micro: &[(String, f64)],
    serve: &[(String, f64)],
) -> String {
    let total_instr: u64 = points.iter().map(|p| p.instructions).sum();
    let total_ns: u64 = points.iter().map(|p| p.median_wall_ns).sum();
    let aggregate = total_instr as f64 * 1e9 / total_ns as f64;
    let mut benches: Vec<(String, f64, &str)> = Vec::new();
    for p in points {
        benches.push((format!("point/{}/sim_ips", p.mode), p.sim_ips, "sim-ips"));
    }
    benches.push(("aggregate_sim_ips".to_string(), aggregate, "sim-ips"));
    for (name, ns) in micro {
        benches.push((format!("micro/{name}"), *ns, "ns/iter"));
    }
    for (name, v) in serve {
        benches.push((name.clone(), *v, "submits/s"));
    }

    let mut s = String::new();
    s.push_str("  {\n");
    let _ = writeln!(s, "    \"commit\": \"{}\",", commit_label());
    let _ = writeln!(s, "    \"date\": \"{}\",", today());
    let _ = writeln!(s, "    \"host_cpus\": {},", host_cpus());
    s.push_str("    \"benches\": [\n");
    for (i, (name, value, unit)) in benches.iter().enumerate() {
        let comma = if i + 1 < benches.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{name}\", \"value\": {value:.3}, \"unit\": \"{unit}\"}}{comma}"
        );
    }
    s.push_str("    ]\n  }");
    s
}

/// Cargo runs bench binaries with the *package* directory as cwd, so a
/// bare `--history BENCH_history.json` would silently land in
/// `crates/bench/`. Resolve relative paths against the workspace root
/// instead; absolute paths pass through.
fn from_workspace_root(path: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(path);
    if p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(p)
    }
}

/// Appends `row` to the JSON array at `path`, creating the file when
/// missing. Existing rows are never touched: the append splices before
/// the closing bracket.
fn append_history(path: &str, row: &str) {
    let path = &from_workspace_root(path).display().to_string();
    let rendered = match std::fs::read_to_string(path) {
        Err(_) => format!("[\n{row}\n]\n"),
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let body = trimmed
                .strip_suffix(']')
                .unwrap_or_else(|| panic!("{path} is not a JSON array"))
                .trim_end();
            if body == "[" {
                format!("[\n{row}\n]\n")
            } else {
                format!("{},\n{row}\n]\n", body.strip_suffix(',').unwrap_or(body))
            }
        }
    };
    std::fs::write(path, rendered)
        .unwrap_or_else(|e| panic!("cannot write --history {path}: {e}"));
    eprintln!("appended history row to {path}");
}

fn main() {
    let opts = parse_args();
    let samples = if opts.quick { 1 } else { POINT_SAMPLES };
    let micro_time = if opts.quick { MICRO_TIME / 10 } else { MICRO_TIME };

    let points = bench_points(samples);
    let micro = bench_micro(micro_time, samples);
    let serve = bench_serve(opts.quick);
    let doc = render_doc(samples, &points, &micro, &serve);

    if let Some(path) = &opts.history {
        let row = render_history_row(&points, &micro, &serve);
        append_history(path, &row);
    }

    match &opts.out {
        Some(path) => {
            let resolved = from_workspace_root(path);
            std::fs::write(&resolved, format!("{doc}\n"))
                .unwrap_or_else(|e| panic!("cannot write --out {}: {e}", resolved.display()));
            eprintln!("wrote {}", resolved.display());
        }
        None => println!("{doc}"),
    }
}
