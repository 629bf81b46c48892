//! `figures-paper`: the paper's Figure 10 and Figure 11 at paper scale on
//! one fresh two-job runner — the report a reproduction user waits for.

use crate::spans::{SpanId, Tracer};
use crate::stats::{self, PointTime};
use crate::{Args, Outcome};
use slicc_bench::{Experiment, ExperimentScale};
use slicc_sim::{
    Engine, ObsConfig, RunMetrics, RunRequest, RunSession, Runner, SchedulerMode, SimConfig, System,
};
use slicc_trace::{TraceScale, Workload};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Worker threads: one per CPU of the 2-CPU reference host.
const JOBS: usize = 2;
/// One report takes about this long on the reference host; longer
/// `--seconds` repeat the report.
const REPORT_SECS: u64 = 40;
const SCALE: ExperimentScale = ExperimentScale::Paper;

const REFERENCE: &str = include_str!("../data/figures-paper.md");
pub const CLAIMS: &str = include_str!("../data/paper-speedups.tsv");

/// Figure 11's columns, in the order the requests below are built.
const FIG11_COLUMNS: [&str; 6] = ["Base", "Next-Line", "SLICC", "SLICC-Pp", "SLICC-SW", "PIF"];

/// The Figure 10 and Figure 11 requests, as `slicc_bench::experiments`
/// builds them. After the timed phase these are all memo hits; a miss
/// means the two lists drifted apart, and the run fails.
fn fig10_requests() -> Vec<RunRequest> {
    Workload::ALL
        .iter()
        .flat_map(|&w| {
            SchedulerMode::ALL.map(|m| request(w, SimConfig::paper_baseline().with_mode(m)))
        })
        .collect()
}

fn fig11_requests() -> Vec<RunRequest> {
    let base = SimConfig::paper_baseline;
    Workload::ALL
        .iter()
        .flat_map(|&w| {
            [
                base(),
                base().with_next_line(1),
                base().with_mode(SchedulerMode::Slicc),
                base().with_mode(SchedulerMode::SliccPp),
                base().with_mode(SchedulerMode::SliccSw),
                base().with_pif_model(),
            ]
            .map(|cfg| request(w, cfg))
        })
        .collect()
}

fn request(w: Workload, cfg: SimConfig) -> RunRequest {
    RunRequest::new(w, SCALE.trace_scale(), cfg).with_obs(ObsConfig::disabled().with_metrics())
}

/// The report's set-up: a fresh runner, the four paper specs, and every
/// distinct point's engine (`Engine::try_new`: the machine, thread
/// traces, scout phase, teams), built one at a time and dropped. The
/// runner's workers repeat the engine builds inside the report; timing
/// them here as well keeps set-up work visible on its own.
fn setup(points: &[RunRequest], t: &mut Tracer, parent: SpanId) -> Result<Runner, String> {
    let runner = Runner::new(JOBS);
    let specs = t.time("trace.spec", parent, || {
        Workload::ALL.map(|w| (w, w.spec(SCALE.trace_scale())))
    });
    t.time("engine.build", parent, || {
        points.iter().try_for_each(|req| {
            let (_, spec) = specs
                .iter()
                .find(|(w, _)| *w == req.workload)
                .expect("every workload");
            Engine::try_new(spec, &req.config)
                .map(drop)
                .map_err(|e| format!("engine for point {:016x}: {e}", req.stable_key()))
        })
    })?;
    Ok(runner)
}

struct Phase {
    wall: Duration,
    report: String,
    runner: Runner,
}

/// One report on `runner`, which must be fresh.
fn report(runner: Runner, tracer: &mut Tracer) -> Phase {
    let start = Instant::now();
    let fig10 = tracer.time("figures.fig10", SpanId::NONE, || {
        Experiment::Fig10.run(SCALE, &runner)
    });
    let fig11 = tracer.time("figures.fig11", SpanId::NONE, || {
        Experiment::Fig11.run(SCALE, &runner)
    });
    Phase {
        wall: start.elapsed(),
        report: format!("{fig10}\n{fig11}\n"),
        runner,
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fig10 = fig10_requests();
    let fig11 = fig11_requests();
    let all: Vec<RunRequest> = fig10.iter().chain(&fig11).cloned().collect();
    let mut seen = HashSet::new();
    let points: Vec<RunRequest> = all
        .iter()
        .filter(|r| seen.insert(r.stable_key()))
        .cloned()
        .collect();
    let mut setup = |t: &mut Tracer, parent| setup(&points, t, parent);
    // The first burst runs on a thread of its own. When it exits, the
    // allocator hands its arena, with the heap the engine builds freed, to
    // a runner worker; built on this thread, that heap would stay here and
    // add about 10 MiB to the report's peak RSS.
    let (setup_before, runner) = std::thread::scope(|s| {
        s.spawn(|| crate::timed_setup(tracer, &mut setup))
            .join()
            .expect("set-up thread panicked")
    });
    let mut runner = Some(runner?);

    let reports = (args.seconds.div_ceil(REPORT_SECS)).max(1);
    let untraced = if args.trace {
        Some(report(Runner::new(JOBS), &mut Tracer::new(false)).wall)
    } else {
        None
    };
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reports {
        let fresh = runner.take().unwrap_or_else(|| Runner::new(JOBS));
        let phase = report(fresh, tracer);
        walls.push(phase.wall);
        let differs = phase.report != REFERENCE;
        out.op(differs.then(|| {
            "figures-paper report differs from perfbench/data/figures-paper.md; \
             this run's report is in perfbench/out/figures-paper.md"
                .into()
        }));
        if differs {
            crate::write_out("figures-paper.md", &phase.report)?;
        }
        last = Some(phase);
    }
    let phase = last.expect("at least one report");
    let peak_rss = crate::host::peak_rss_mib();
    let (setup_after, built) = crate::timed_setup(tracer, &mut setup);
    built?;
    let stats_after = phase.runner.stats();

    // Every point again, as memo hits: exact metrics and original walls.
    let results = phase.runner.run_all(&all);
    if phase.runner.stats().cache_misses != stats_after.cache_misses {
        out.op(Some(
            "the benchmark's figure requests no longer match slicc_bench's".into(),
        ));
    }
    let mut by_key = BTreeMap::new();
    for (req, res) in all.iter().zip(results) {
        out.op(res
            .as_ref()
            .err()
            .map(|e| format!("point {} failed: {e}", req.stable_key())));
        if let Ok(r) = res {
            by_key.entry(req.stable_key()).or_insert((req.mode(), r));
        }
    }
    let metrics_of = |req: &RunRequest| -> Result<&RunMetrics, String> {
        by_key
            .get(&req.stable_key())
            .map(|(_, r)| &r.metrics)
            .ok_or_else(|| "missing point".to_string())
    };

    // Figure 11 speedups, keyed by (workload, column).
    let mut speedups = BTreeMap::new();
    for (w, chunk) in Workload::ALL.iter().zip(fig11.chunks(FIG11_COLUMNS.len())) {
        let base = metrics_of(&chunk[0])?;
        for (col, req) in FIG11_COLUMNS.iter().zip(chunk) {
            speedups.insert(
                (w.name().to_string(), col.to_string()),
                metrics_of(req)?.speedup_over(base),
            );
        }
    }
    let claims = stats::parse_claims(CLAIMS)?;
    let paper_err = stats::paper_err_pct(&claims, |w, c| {
        speedups.get(&(w.to_string(), c.to_string())).copied()
    })?;

    if stats_after.busy_nanos == 0 {
        return Err("no point simulated".into());
    }
    // Σ instructions ÷ Σ busy time of the report's fresh points.
    let sim_mips = stats_after.sim_ips() / 1e6;

    if !args.trace {
        return crate::EndToEnd {
            wall_s: stats::median_secs(&walls).expect("a report ran"),
            setup: [&setup_before, &setup_after],
            peak_rss_mib: peak_rss,
            sim_mips,
            paper_err_pct: paper_err,
        }
        .report(&mut out)
        .map(|()| out);
    }

    out.metric(
        "trace.spec_ms",
        crate::mean_span_ms(tracer, "trace.spec"),
        "ms",
    );
    out.metric(
        "engine.build_ms",
        crate::mean_span_ms(tracer, "engine.build"),
        "ms",
    );
    eprintln!(
        "perfbench: runner misses {} memo hits {} coalesced {} spec builds {}",
        stats_after.cache_misses,
        stats_after.cache_hits,
        stats_after.coalesced_hits,
        stats_after.spec_builds
    );
    let headline = request(
        Workload::TpcC1,
        SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw),
    );
    let spec = Workload::TpcC1.spec(TraceScale::paper_like());
    crate::Layers {
        traced: phase.wall,
        untraced: untraced.expect("traced runs time an untraced report"),
        busy_share: stats_after.busy_nanos as f64 / 1e9 / (JOBS as f64 * phase.wall.as_secs_f64()),
        points: by_key
            .values()
            .map(|(m, r)| (*m, r.metrics.instructions, r.wall))
            .collect(),
        model: metrics_of(&headline)?,
        stream: &spec,
    }
    .report(&mut out, tracer)?;
    crate::serve::probe_serving(&mut out, args.seed, tracer)?;
    Ok(out)
}

/// Stable metric-name slug of a scheduler mode.
pub fn mode_slug(mode: SchedulerMode) -> &'static str {
    match mode {
        SchedulerMode::Baseline => "base",
        SchedulerMode::Slicc => "slicc",
        SchedulerMode::SliccSw => "slicc-sw",
        SchedulerMode::SliccPp => "slicc-pp",
        SchedulerMode::Steps => "steps",
    }
}

/// `engine.mips.<mode>`: simulated instructions per host second of the
/// points run under each of the paper's scheduler modes (STEPS, which
/// only MapReduce runs, is left to the spans file).
pub fn mode_mips(
    out: &mut Outcome,
    points: impl Iterator<Item = (SchedulerMode, u64, Duration)>,
) -> Result<(), String> {
    let mut per_mode: HashMap<SchedulerMode, Vec<PointTime>> = HashMap::new();
    for (mode, instructions, busy) in points {
        per_mode
            .entry(mode)
            .or_default()
            .push(PointTime { instructions, busy });
    }
    for mode in SchedulerMode::ALL {
        let mips = per_mode
            .get(&mode)
            .and_then(|pts| stats::sim_mips(pts))
            .ok_or_else(|| format!("no {} point was simulated", mode.name()))?;
        out.metric(format!("engine.mips.{}", mode_slug(mode)), mips, "Minstr/s");
    }
    Ok(())
}

/// The simulated model's rates and cycle stack (cycles per instruction
/// by cause; fetch-latency cycles count as I-stall, idle cycles are left
/// out).
pub fn model_metrics(out: &mut Outcome, m: &RunMetrics) {
    let per_instr = |cycles: u64| cycles as f64 / m.instructions.max(1) as f64;
    let c = &m.core_stats;
    out.metric("model.i_mpki", m.i_mpki(), "1/KI");
    out.metric("model.d_mpki", m.d_mpki(), "1/KI");
    out.metric(
        "model.mig_per_ki",
        m.migrations_per_kilo_instruction(),
        "1/KI",
    );
    out.metric("model.bpki", m.bpki(), "1/KI");
    out.metric("model.cpi_base", per_instr(c.base_cycles), "cycles/instr");
    out.metric(
        "model.cpi_istall",
        per_instr(c.ifetch_stall_cycles + c.fetch_latency_cycles),
        "cycles/instr",
    );
    out.metric(
        "model.cpi_dstall",
        per_instr(c.data_stall_cycles),
        "cycles/instr",
    );
    out.metric(
        "model.cpi_tlb",
        per_instr(c.tlb_walk_cycles),
        "cycles/instr",
    );
    out.metric(
        "model.cpi_mig",
        per_instr(c.migration_cycles),
        "cycles/instr",
    );
}

/// `system.build_ms`: median `System::try_new` for the paper machine.
pub fn system_build(out: &mut Outcome, tracer: &mut Tracer) {
    let cfg = SimConfig::paper_baseline();
    let (secs, _) = crate::repeat_median(|| {
        tracer.time("system.build", SpanId::NONE, || System::try_new(&cfg))
    });
    out.metric("system.build_ms", secs * 1e3, "ms");
}

/// `obs.capture_ratio`: one small TPC-C-1 SLICC-SW point with metrics
/// capture over the same point bare, median of alternating pairs.
pub fn capture_ratio(out: &mut Outcome, tracer: &mut Tracer) -> Result<(), String> {
    let spec = Workload::TpcC1.spec(TraceScale::small());
    let cfg = SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw);
    let (mut bare, mut observed) = (Vec::new(), Vec::new());
    let mut digests = HashSet::new();
    for _ in 0..3 {
        for capture in [false, true] {
            let session = RunSession::new(&spec, &cfg).map_err(|e| e.to_string())?;
            let session = if capture {
                session.observe(ObsConfig::disabled().with_metrics())
            } else {
                session
            };
            let start = Instant::now();
            let name = if capture {
                "obs.point_metrics"
            } else {
                "obs.point_bare"
            };
            let outcome = tracer
                .time(name, SpanId::NONE, || session.run())
                .map_err(|e| e.to_string())?;
            (if capture { &mut observed } else { &mut bare }).push(start.elapsed());
            digests.insert(outcome.metrics.digest());
        }
    }
    out.op((digests.len() != 1).then(|| "metrics capture changed a point's digest".into()));
    let ratio =
        stats::median_secs(&observed).expect("ran") / stats::median_secs(&bare).expect("ran");
    out.metric("obs.capture_ratio", ratio, "ratio");
    Ok(())
}
