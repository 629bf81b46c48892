//! End-to-end and per-layer benchmark of the SLICC reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures-paper|mapreduce-paper|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the host fingerprint. `--trace 1` reports per-layer metrics instead of
//! end-to-end ones and writes the spans to `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and metrics.

mod figures;
mod host;
mod layers;
mod mapreduce;
mod serve;
mod spans;
mod stats;

use slicc_sim::{RunMetrics, SchedulerMode, SimConfig};
use slicc_trace::WorkloadSpec;
use spans::Tracer;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload figures-paper|mapreduce-paper|serve-mixed \
                     --seed N --seconds S --trace 0|1";

/// Set-up and other short steps are repeated and reported as the median:
/// at least this many times...
pub const MIN_REPEATS: usize = 6;
/// ...and until this much time has passed (the reference host has slow
/// spells of about a second, which a longer burst outvotes)...
pub const REPEAT_BUDGET: Duration = Duration::from_millis(2000);
/// ...but no more than this many times.
pub const MAX_REPEATS: usize = 5001;

/// Where spans and per-run records go, relative to the repository root.
pub const OUT_DIR: &str = "perfbench/out";
/// Stored reference outputs, relative to the repository root.
pub const DATA_DIR: &str = "perfbench/data";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {v:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(num(&value)?),
                "--seconds" => seconds = Some(num(&value)?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for each failed check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, failed when `problem` is given.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn to_json(&self) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        ))
    }
}

/// Runs `f` at least [`MIN_REPEATS`] times and until [`REPEAT_BUDGET`]
/// has passed (at most [`MAX_REPEATS`] times), returning each run's wall
/// time and the last value. Each value is dropped before the next run
/// starts.
pub fn repeat<T>(mut f: impl FnMut() -> T) -> (Vec<Duration>, T) {
    let mut times = Vec::new();
    let mut last = None;
    let begun = Instant::now();
    while times.len() < MIN_REPEATS
        || (begun.elapsed() < REPEAT_BUDGET && times.len() < MAX_REPEATS)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed());
    }
    (times, last.expect("ran"))
}

/// [`repeat`], reporting the median time in seconds.
pub fn repeat_median<T>(f: impl FnMut() -> T) -> (f64, T) {
    let (times, last) = repeat(f);
    (stats::median_secs(&times).expect("ran"), last)
}

/// `setup_s` takes the fastest of each this many back-to-back set-ups,
/// then the median of those (see [`stats::median_of_group_minima`]). On
/// the 2-CPU reference host one figures run's set-ups ranged 131–273 ms,
/// and the plain median of ten runs moved by 41 % between two sets.
pub const SETUP_GROUP: usize = 3;

/// One burst of the workload's set-up, repeated as [`repeat`] does (at
/// least [`SETUP_GROUP`] times), each time inside a `setup` span.
/// Workloads run one burst before the timed phase and one after it: the
/// host's speed drifts over seconds, and two bursts sample two moments
/// of it.
pub fn timed_setup<T>(
    tracer: &mut Tracer,
    mut build: impl FnMut(&mut Tracer, spans::SpanId) -> T,
) -> (Vec<Duration>, T) {
    repeat(|| {
        let span = tracer.begin("setup", spans::SpanId::NONE, 0);
        let built = build(tracer, span);
        tracer.end(span);
        built
    })
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut slicc_common::SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// The end-to-end metrics, in `BENCHMARK.json`'s order. Every workload
/// reports every one of them with `--trace 0`.
pub const END_TO_END: [&str; 5] = [
    "wall_s",
    "setup_s",
    "peak_rss_mb",
    "sim_mips",
    "paper_err_pct",
];

/// The per-layer metrics, in `BENCHMARK.json`'s order. Every workload
/// reports every one of them with `--trace 1`.
pub const PER_LAYER: [&str; 41] = [
    "trace.overhead_s",
    "trace.spec_ms",
    "trace.ns_per_record",
    "system.build_ms",
    "engine.build_ms",
    "engine.mips.base",
    "engine.mips.slicc",
    "engine.mips.slicc-pp",
    "engine.mips.slicc-sw",
    "system.ifetch_ns",
    "system.data_ns",
    "system.search_ns",
    "cache.l1i_ns",
    "cache.l1i_hit_ratio",
    "cache.l1d_ns",
    "cache.l1d_hit_ratio",
    "cache.bloom_ns",
    "cpu.tlb_ns",
    "core.agent_ns",
    "core.advice_ratio",
    "mem.l2_ns",
    "mem.l2_hit_ratio",
    "mem.dram_ns",
    "noc.latency_ns",
    "model.i_mpki",
    "model.d_mpki",
    "model.mig_per_ki",
    "model.bpki",
    "model.cpi_base",
    "model.cpi_istall",
    "model.cpi_dstall",
    "model.cpi_tlb",
    "model.cpi_mig",
    "runner.busy_share",
    "obs.capture_ratio",
    "service.hit_us",
    "service.miss_ms",
    "serve.handle_us",
    "serve.codec_ns",
    "serve.socket_ms",
    "serve.rtt_p50_ms",
];

/// A workload's end-to-end figures.
pub struct EndToEnd<'a> {
    /// The timed phase, in seconds.
    pub wall_s: f64,
    /// The set-up bursts before and after the timed phase.
    pub setup: [&'a [Duration]; 2],
    /// The memory high-water mark read at the end of the timed phase,
    /// before the output checks allocate their own.
    pub peak_rss_mib: Option<f64>,
    pub sim_mips: f64,
    pub paper_err_pct: f64,
}

impl EndToEnd<'_> {
    pub fn report(self, out: &mut Outcome) -> Result<(), String> {
        out.metric("wall_s", self.wall_s, "s");
        out.metric(
            "setup_s",
            stats::median_of_group_minima(&self.setup, SETUP_GROUP).expect("set-up ran"),
            "s",
        );
        out.metric(
            "peak_rss_mb",
            self.peak_rss_mib
                .ok_or("cannot read the process's peak RSS")?,
            "MiB",
        );
        out.metric("sim_mips", self.sim_mips, "Minstr/s");
        out.metric("paper_err_pct", self.paper_err_pct, "%");
        Ok(())
    }
}

/// The per-layer inputs every workload's traced run supplies; the
/// workload adds `trace.spec_ms`, `engine.build_ms` and the serving
/// probes itself.
pub struct Layers<'a> {
    /// The timed phase with spans on, and the same phase without.
    pub traced: Duration,
    pub untraced: Duration,
    /// Σ point busy ÷ (jobs × wall) over the timed phase.
    pub busy_share: f64,
    /// Mode, simulated instructions and busy time of every point the
    /// timed phase simulated.
    pub points: Vec<(SchedulerMode, u64, Duration)>,
    /// The workload's SLICC-SW point, for the model's rates and cycle
    /// stack.
    pub model: &'a RunMetrics,
    /// The workload whose stream the replays decode.
    pub stream: &'a WorkloadSpec,
}

impl Layers<'_> {
    pub fn report(self, out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
        out.metric(
            "trace.overhead_s",
            self.traced.as_secs_f64() - self.untraced.as_secs_f64(),
            "s",
        );
        out.metric("runner.busy_share", self.busy_share, "ratio");
        figures::mode_mips(out, self.points.into_iter())?;
        figures::model_metrics(out, self.model);
        figures::system_build(out, tracer);
        figures::capture_ratio(out, tracer)?;
        out.metrics.extend(layers::replay(
            self.stream,
            &SimConfig::paper_baseline(),
            tracer,
        ));
        Ok(())
    }
}

/// Mean self time, in milliseconds, of the spans called `name`.
pub fn mean_span_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer.self_ns(name) as f64 / 1e6 / tracer.count(name).max(1) as f64
}

/// Writes `contents` to `name` under [`OUT_DIR`].
pub fn write_out(name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    if !Path::new(DATA_DIR).is_dir() {
        return Err(format!(
            "{DATA_DIR} not found: run from the repository root"
        ));
    }
    let mut tracer = Tracer::new(args.trace);
    let out = match args.workload.as_str() {
        "figures-paper" => figures::run(args, &mut tracer)?,
        "mapreduce-paper" => mapreduce::run(args, &mut tracer)?,
        "serve-mixed" => serve::run(args, &mut tracer)?,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let want: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let mut sorted = want.to_vec();
    got.sort_unstable();
    sorted.sort_unstable();
    if got != sorted {
        return Err(format!(
            "{} reported {got:?}, not the manifest's {sorted:?}",
            args.workload
        ));
    }
    if args.trace {
        write_out(
            &format!("spans-{}-{}.jsonl", args.workload, args.seed),
            &tracer.to_json_lines(),
        )?;
    }
    Ok(out)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = run(&args).and_then(|out| Ok((out.to_json()?, out)));
    match result {
        Ok((json, out)) => {
            for p in &out.problems {
                eprintln!("perfbench: FAILED {p}");
            }
            println!("host {}", host::fingerprint());
            println!("{json}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
