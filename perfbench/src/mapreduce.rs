//! `mapreduce-paper`: MapReduce at paper scale under every scheduler
//! mode, one point at a time on the calling thread (no runner, no
//! observation). Its code fits the L1-I, so the SLICC agent, the remote
//! search, the runner and observation sit idle: the control on which
//! changes to those must not move, and where per-record fast-path
//! changes show most.
//!
//! Each point is what `RunSession::run` does for an unobserved,
//! uncontrolled run, split in two: `Engine::try_new` (thread traces,
//! scout phase, teams, the machine) is set-up; `try_execute` and
//! `into_metrics` are the timed phase.

use crate::figures::mode_slug;
use crate::spans::{SpanId, Tracer};
use crate::stats::{self, PointTime};
use crate::{Args, Outcome};
use slicc_common::SplitMix64;
use slicc_sim::{Engine, RunMetrics, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload, WorkloadSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One pass (every mode once) per started `PASS_SECS` of `--seconds`.
/// A pass takes 6–9 s on the reference host.
const PASS_SECS: u64 = 2;
const DIGESTS: &str = include_str!("../data/mapreduce-paper.digests");

struct Point {
    mode: SchedulerMode,
    wall: Duration,
    metrics: RunMetrics,
}

fn spec() -> WorkloadSpec {
    Workload::MapReduce.spec(TraceScale::paper_like())
}

fn configs() -> Vec<(SchedulerMode, SimConfig)> {
    SchedulerMode::WITH_STEPS
        .iter()
        .map(|&m| (m, SimConfig::paper_baseline().with_mode(m)))
        .collect()
}

/// Builds every mode's engine, one at a time, dropping each.
fn build_engines(
    spec: &WorkloadSpec,
    configs: &[(SchedulerMode, SimConfig)],
) -> Result<(), String> {
    configs.iter().try_for_each(|(m, cfg)| {
        Engine::try_new(spec, cfg)
            .map(drop)
            .map_err(|e| format!("{m:?}: {e}"))
    })
}

/// Runs `passes` passes, each visiting the modes in a seeded order. Only
/// the engines' execution is timed; each engine is built just before it
/// runs, so at most one is alive at a time, as in `RunSession::run`.
fn timed_phase(
    spec: &WorkloadSpec,
    configs: &[(SchedulerMode, SimConfig)],
    passes: u64,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut rng = SplitMix64::new(seed);
    let mut points = Vec::new();
    let mut busy = Duration::ZERO;
    let begun = Instant::now();
    for pass in 0..passes {
        let mut order: Vec<usize> = (0..configs.len()).collect();
        crate::shuffle(&mut order, &mut rng);
        let span = tracer.begin("mapreduce.pass", SpanId::NONE, pass);
        for i in order {
            let (mode, cfg) = &configs[i];
            let mode = *mode;
            let mut engine = Engine::try_new(spec, cfg).map_err(|e| format!("{mode:?}: {e}"))?;
            let start = Instant::now();
            let child = tracer.begin(&format!("engine.run.{}", mode_slug(mode)), span, pass);
            engine.try_execute().map_err(|e| format!("{mode:?}: {e}"))?;
            let metrics = engine.into_metrics();
            tracer.end(child);
            let elapsed = start.elapsed();
            busy += elapsed;
            points.push(Point {
                mode,
                wall: elapsed,
                metrics,
            });
        }
        tracer.end(span);
    }
    Ok(Phase {
        busy,
        wall: begun.elapsed(),
        points,
    })
}

struct Phase {
    /// Σ of the points' execution times.
    busy: Duration,
    /// The whole phase, engine builds included.
    wall: Duration,
    points: Vec<Point>,
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = |t: &mut Tracer, parent| {
        let spec = t.time("trace.spec", parent, spec);
        let configs = configs();
        t.time("engine.build", parent, || build_engines(&spec, &configs))
    };
    let (setup_before, built) = crate::timed_setup(tracer, &mut setup);
    built?;
    let (spec, configs) = (spec(), configs());

    let passes = args.seconds.div_ceil(PASS_SECS).max(1);
    let untraced = if args.trace {
        Some(timed_phase(&spec, &configs, passes, args.seed, &mut Tracer::new(false))?.busy)
    } else {
        None
    };
    let phase = timed_phase(&spec, &configs, passes, args.seed, tracer)?;
    let points = &phase.points;
    let peak_rss = crate::host::peak_rss_mib();
    let (setup_after, built) = crate::timed_setup(tracer, &mut setup);
    built?;

    let expected: BTreeMap<&str, &str> = DIGESTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .collect();
    for p in points {
        let got = format!("{:016x}", p.metrics.digest());
        let want = expected.get(mode_slug(p.mode)).copied();
        out.op((want != Some(got.as_str())).then(|| {
            format!(
                "MapReduce {} digest {got} != stored {}",
                p.mode.name(),
                want.unwrap_or("(none)")
            )
        }));
    }
    let metrics_of = |mode: SchedulerMode| {
        points
            .iter()
            .find(|p| p.mode == mode)
            .map(|p| &p.metrics)
            .expect("every mode ran")
    };
    if !args.trace {
        // One pass with each mode at its fastest of the run's passes. The
        // host's memory contention only ever slows a point down, and over
        // six runs of four passes this sum spread by 6 % (IQR/median)
        // where the sum of all four passes spread by 11 %.
        let mut fastest: BTreeMap<&str, PointTime> = BTreeMap::new();
        for p in points {
            let t = PointTime {
                instructions: p.metrics.instructions,
                busy: p.wall,
            };
            fastest
                .entry(mode_slug(p.mode))
                .and_modify(|best| {
                    if t.busy < best.busy {
                        *best = t;
                    }
                })
                .or_insert(t);
        }
        let fastest: Vec<PointTime> = fastest.into_values().collect();
        let pass: Duration = fastest.iter().map(|p| p.busy).sum();
        // "MapReduce flat": the speedups of the SLICC modes this workload
        // runs, against the paper's 1.00×.
        let base = metrics_of(SchedulerMode::Baseline);
        let speedup = |w: &str, column: &str| {
            let mode = SchedulerMode::ALL
                .into_iter()
                .find(|m| m.name() == column)?;
            (w == Workload::MapReduce.name()).then(|| metrics_of(mode).speedup_over(base))
        };
        let claims = stats::covered(&stats::parse_claims(crate::figures::CLAIMS)?, speedup);
        return crate::EndToEnd {
            wall_s: pass.as_secs_f64(),
            setup: [&setup_before, &setup_after],
            peak_rss_mib: peak_rss,
            sim_mips: stats::sim_mips(&fastest).ok_or("no point simulated")?,
            paper_err_pct: stats::paper_err_pct(&claims, speedup)?,
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
    crate::Layers {
        traced: phase.busy,
        untraced: untraced.expect("traced runs time an untraced phase"),
        // One job: the calling thread.
        busy_share: phase.busy.as_secs_f64() / phase.wall.as_secs_f64(),
        points: points
            .iter()
            .map(|p| (p.mode, p.metrics.instructions, p.wall))
            .collect(),
        model: metrics_of(SchedulerMode::SliccSw),
        stream: &spec,
    }
    .report(&mut out, tracer)?;
    crate::serve::probe_serving(&mut out, args.seed, tracer)?;
    Ok(out)
}
