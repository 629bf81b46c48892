//! `slicc` — command-line driver for the SLICC chip-multiprocessor
//! simulator.
//!
//! Arguments parse into a [`RunRequest`] whose [`SimConfig`] starts from
//! the Table-2 preset; [`SimConfig::try_validate`] runs before any
//! simulation starts, so every invalid combination is rejected with an
//! error naming the offending option. Run `slicc --help` for the full
//! option list.

#![forbid(unsafe_code)]

use slicc_cache::PolicyKind;
use slicc_common::{atomic_write, install_sigint_cancel, sigint_count};
use slicc_sim::{
    chrome_trace_json, DeadlineConfig, InjectedFault, ObsConfig, ProgressEvent, ProgressKind,
    RunError, RunRequest, RunResult, Runner, SchedulerMode, SimConfig, TraceMeta,
};
use slicc_trace::{TraceScale, Workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "slicc — SLICC chip-multiprocessor simulator

USAGE:
    slicc [OPTIONS]

OPTIONS:
    --workload tpcc1|tpcc10|tpce|mapreduce
                          benchmark workload (default tpcc1)
    --mode base|slicc|slicc-sw|slicc-pp|steps
                          scheduling/migration mode (default slicc-sw)
    --scale tiny|small|paper
                          trace scale (default small)
    --tasks N             override the transaction count
    --seed N              override the workload trace seed
    --policy lru|lip|bip|dip|srrip|brrip|drrip
                          L1 replacement policy (default lru)
    --l1i-kib N           L1-I capacity in KiB (default 32)
    --next-line           enable next-line L1-I prefetching
    --pif-bound           the paper's PIF model (512 KiB L1-I, 3-cycle latency)
    --pif-real            the real PIF prefetcher (history buffer + streams)
    --fill-up N           SLICC fill-up_t threshold
    --matched N           SLICC matched_t threshold
    --dilution N          SLICC dilution_t threshold
    --classify            enable 3C miss classification
    --baseline-compare    also run the same machine under baseline
                          scheduling and report speedup
    --fuel-steps N        abort the run after N event-loop steps
                          (forward-progress watchdog)
    --fuel-cycles N       abort the run once any core passes cycle N
    --deadline-ms N       abort any point still simulating after N
                          wall-clock milliseconds (reported with a
                          diagnostic snapshot, like the watchdog)
    --inject panic|stall:STEP|slow-consumer:MS
                          deterministic fault injection for resilience
                          drills: panic mid-run, stall the event loop at
                          STEP, or hold the finished result for MS
                          milliseconds before releasing it
    --cache-bytes N       byte budget for the memoized run cache
                          (default 64 MiB); least-recently-used
                          results are evicted, never altered
    --keep-going          on failure, still run the remaining points
                          before exiting
    --progress quiet|plain|json
                          stderr telemetry: nothing, human progress
                          lines, or one JSON object per line
                          (default plain)
    --obs-out PREFIX      observe the run and write PREFIX.trace.json
                          (Chrome trace_event JSON, loadable in
                          Perfetto), PREFIX.intervals.csv and
                          PREFIX.intervals.json (per-epoch MPKI / IPC /
                          migration series)
    --obs-epoch N         interval-series epoch length in cycles
                          (default 10000; implies series collection)
    --obs-events N        per-core event-ring capacity (default 16384;
                          implies event tracing)
    --obs-sample N        keep 1 in N cache-miss events (default 64)
    --obs-summary         print the per-epoch table to stdout after the
                          metrics report
    --metrics-out PREFIX  capture the engine metrics registry (run totals,
                          runner/cache counters, service gauges)
                          and write PREFIX.metrics.prom (Prometheus text)
                          and PREFIX.metrics.json; with --progress json
                          the snapshot is also emitted as a progress
                          event; never changes simulated results
    --help                print this help

Exit status is 0 on success, 1 if any simulation point fails (the
failing point's workload/scale/seed and stable key are printed to
stderr), 2 on a usage error, and 130 when interrupted by Ctrl-C. The
first Ctrl-C cancels outstanding points cooperatively and reports what
completed; a second Ctrl-C exits immediately.";

/// A rejected command line: which option went wrong, and why.
#[derive(Debug)]
struct CliError {
    option: String,
    message: String,
}

impl CliError {
    fn new(option: &str, message: impl Into<String>) -> Self {
        CliError { option: option.to_string(), message: message.into() }
    }
}

#[derive(Debug)]
enum Command {
    Help,
    Run {
        // Boxed: a RunRequest embeds a full SimConfig, and clippy rightly
        // objects to a ~600-byte spread between the variants.
        request: Box<RunRequest>,
        compare: bool,
        keep_going: bool,
        progress: ProgressKind,
        obs_out: Option<PathBuf>,
        obs_summary: bool,
        metrics_out: Option<PathBuf>,
        cache_bytes: Option<u64>,
    },
}

fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut workload = Workload::TpcC1;
    let mut mode = SchedulerMode::SliccSw;
    let mut scale = TraceScale::small();
    let mut tasks: Option<u32> = None;
    let mut seed: Option<u64> = None;
    let mut config = SimConfig::paper_baseline();
    let mut compare = false;
    let mut keep_going = false;
    let mut progress = ProgressKind::Plain;
    let mut obs_out: Option<PathBuf> = None;
    let mut obs_summary = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut obs_epoch: Option<u64> = None;
    let mut obs_events: Option<usize> = None;
    let mut obs_sample: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut cache_bytes: Option<u64> = None;

    let mut i = 0;
    fn value(args: &[String], i: &mut usize, opt: &str) -> Result<String, CliError> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| CliError::new(opt, "missing value"))
    }
    fn number<T: std::str::FromStr>(opt: &str, raw: &str) -> Result<T, CliError> {
        raw.parse().map_err(|_| CliError::new(opt, format!("expected a number, got '{raw}'")))
    }

    while i < args.len() {
        let opt = args[i].clone();
        match opt.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--workload" => {
                let w = value(args, &mut i, &opt)?;
                workload = Workload::parse(&w)
                    .ok_or_else(|| CliError::new(&opt, format!("unknown workload '{w}'")))?;
            }
            "--mode" => {
                let m = value(args, &mut i, &opt)?;
                mode = SchedulerMode::parse(&m)
                    .ok_or_else(|| CliError::new(&opt, format!("unknown mode '{m}'")))?;
            }
            "--scale" => {
                let s = value(args, &mut i, &opt)?;
                scale = TraceScale::parse(&s)
                    .ok_or_else(|| CliError::new(&opt, format!("unknown scale '{s}'")))?;
            }
            "--tasks" => tasks = Some(number(&opt, &value(args, &mut i, &opt)?)?),
            "--seed" => seed = Some(number(&opt, &value(args, &mut i, &opt)?)?),
            "--policy" => {
                let p = value(args, &mut i, &opt)?;
                let policy = PolicyKind::ALL
                    .into_iter()
                    .find(|k| k.name().eq_ignore_ascii_case(&p))
                    .ok_or_else(|| CliError::new(&opt, format!("unknown policy '{p}'")))?;
                config = config.with_policy(policy);
            }
            "--l1i-kib" => {
                let kib: u64 = number(&opt, &value(args, &mut i, &opt)?)?;
                config = config.with_l1i_size(kib * 1024);
            }
            "--next-line" => config = config.with_next_line(1),
            "--pif-bound" => config = config.with_pif_model(),
            "--pif-real" => config = config.with_real_pif(),
            "--fill-up" => {
                config.slicc = config.slicc.with_fill_up(number(&opt, &value(args, &mut i, &opt)?)?)
            }
            "--matched" => {
                config.slicc = config.slicc.with_matched(number(&opt, &value(args, &mut i, &opt)?)?)
            }
            "--dilution" => {
                config.slicc =
                    config.slicc.with_dilution(number(&opt, &value(args, &mut i, &opt)?)?)
            }
            "--classify" => config = config.with_classification(),
            "--baseline-compare" => compare = true,
            "--fuel-steps" => {
                config.watchdog.max_heap_steps = Some(number(&opt, &value(args, &mut i, &opt)?)?)
            }
            "--fuel-cycles" => {
                config.watchdog.max_cycles = Some(number(&opt, &value(args, &mut i, &opt)?)?)
            }
            "--deadline-ms" => deadline_ms = Some(number(&opt, &value(args, &mut i, &opt)?)?),
            "--inject" => {
                let spec = value(args, &mut i, &opt)?;
                let fault = InjectedFault::parse(&spec)
                    .ok_or_else(|| CliError::new(&opt, format!("unknown fault spec '{spec}'")))?;
                config.fault_injection = Some(fault);
            }
            "--cache-bytes" => cache_bytes = Some(number(&opt, &value(args, &mut i, &opt)?)?),
            "--keep-going" => keep_going = true,
            "--progress" => {
                let p = value(args, &mut i, &opt)?;
                progress = ProgressKind::parse(&p)
                    .ok_or_else(|| CliError::new(&opt, format!("unknown progress kind '{p}'")))?;
            }
            "--obs-out" => obs_out = Some(PathBuf::from(value(args, &mut i, &opt)?)),
            "--obs-epoch" => obs_epoch = Some(number(&opt, &value(args, &mut i, &opt)?)?),
            "--obs-events" => obs_events = Some(number(&opt, &value(args, &mut i, &opt)?)?),
            "--obs-sample" => obs_sample = Some(number(&opt, &value(args, &mut i, &opt)?)?),
            "--obs-summary" => obs_summary = true,
            "--metrics-out" => metrics_out = Some(PathBuf::from(value(args, &mut i, &opt)?)),
            other => return Err(CliError::new(other, "unknown option")),
        }
        i += 1;
    }

    // --mode is applied last: the PIF helpers default to baseline
    // scheduling, but an explicit (or default) --mode always wins, matching
    // the original CLI's behaviour.
    let config = config.with_mode(mode);
    config.try_validate().map_err(|e| CliError::new("configuration", e.to_string()))?;
    let mut request = RunRequest::new(workload, scale, config);
    if let Some(t) = tasks {
        request = request.with_tasks(t);
    }
    if let Some(s) = seed {
        request = request.with_seed(s);
    }
    if let Some(ms) = deadline_ms {
        request = request.with_deadline(DeadlineConfig::from_ms(ms));
    }

    // Observation flags compose: each tuning flag implies the collection
    // it tunes; --obs-out implies both kinds of artifacts; --obs-summary
    // needs the series only.
    let mut obs = ObsConfig::disabled();
    if let Some(n) = obs_events {
        obs = obs.with_event_capacity(n);
    }
    if let Some(n) = obs_sample {
        obs = obs.with_sample_every(n);
    }
    if let Some(n) = obs_epoch {
        obs = obs.with_epochs(n);
    }
    if obs_out.is_some() {
        obs = obs.with_events();
        if obs.epoch_cycles.is_none() {
            obs = obs.with_epochs(ObsConfig::DEFAULT_EPOCH_CYCLES);
        }
    }
    if obs_summary && obs.epoch_cycles.is_none() {
        obs = obs.with_epochs(ObsConfig::DEFAULT_EPOCH_CYCLES);
    }
    // Metrics capture rides the same observation plumbing but is
    // independent of events/epochs: it only turns on the registry.
    if metrics_out.is_some() {
        obs = obs.with_metrics();
    }
    request = request.with_obs(obs);

    Ok(Command::Run {
        request: Box::new(request),
        compare,
        keep_going,
        progress,
        obs_out,
        obs_summary,
        metrics_out,
        cache_bytes,
    })
}

fn report(result: &RunResult, baseline: Option<&RunResult>) {
    let m = &result.metrics;
    println!("workload        {}", m.workload);
    println!("mode            {}", m.mode);
    println!("instructions    {}", m.instructions);
    println!("cycles          {}", m.cycles);
    println!("I-MPKI          {:.2}", m.i_mpki());
    println!("D-MPKI          {:.2}", m.d_mpki());
    println!("I-TLB MPKI      {:.3}", m.i_tlb_mpki());
    println!("D-TLB MPKI      {:.3}", m.d_tlb_mpki());
    println!("migrations      {} ({:.2}/KI)", m.migrations, m.migrations_per_kilo_instruction());
    if m.context_switches > 0 {
        println!("ctx switches    {}", m.context_switches);
    }
    println!("BPKI            {:.3}", m.bpki());
    println!("spread          {:.1} cores/thread", m.mean_cores_per_thread);
    if let Some(bd) = &m.i_breakdown {
        println!(
            "I-miss classes  conflict {} / capacity {} / compulsory {}",
            bd.conflict, bd.capacity, bd.compulsory
        );
    }
    let s = &m.core_stats;
    let total = s.total_cycles().max(1);
    println!(
        "cycle mix       base {:.0}% / I-stall {:.0}% / D-stall {:.0}% / TLB {:.0}% / mig {:.0}% / idle {:.0}%",
        100.0 * s.base_cycles as f64 / total as f64,
        100.0 * s.ifetch_stall_cycles as f64 / total as f64,
        100.0 * s.data_stall_cycles as f64 / total as f64,
        100.0 * s.tlb_walk_cycles as f64 / total as f64,
        100.0 * s.migration_cycles as f64 / total as f64,
        100.0 * s.idle_cycles as f64 / total as f64,
    );
    println!(
        "sim throughput  {:.0} instructions/s ({:.2}s wall)",
        result.sim_ips,
        result.wall.as_secs_f64()
    );
    if let Some(base) = baseline {
        println!("speedup         {:.3}x over baseline", m.speedup_over(&base.metrics));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {}: {}", e.option, e.message);
        eprintln!("run 'slicc --help' for the option list");
        std::process::exit(2);
    });
    let Command::Run {
        request,
        compare,
        keep_going,
        progress,
        obs_out,
        obs_summary,
        metrics_out,
        cache_bytes,
    } = command
    else {
        println!("{USAGE}");
        return;
    };
    let request = *request;

    // Two points (the run and its baseline) are independent jobs, so even
    // the CLI benefits from the runner's pool and cache.
    let runner = Runner::with_default_parallelism();
    let reporter = progress.reporter();
    runner.set_reporter(Arc::clone(&reporter));
    // Resource governance (DESIGN.md §12): a byte budget on the memoized
    // run cache. It never changes what a completed run computes.
    if let Some(bytes) = cache_bytes {
        runner.set_cache_bytes(bytes);
    }
    // The first Ctrl-C cancels in-flight points cooperatively; the second
    // hard-exits from the handler itself.
    install_sigint_cancel(&runner.cancel_token());

    let mut points = vec![request.clone()];
    if compare {
        points.push(request.clone().with_mode(SchedulerMode::Baseline));
    }

    // With --keep-going the whole batch runs regardless of failures;
    // without it, points run in order and the first failure stops the
    // remainder (the baseline of a --baseline-compare is pointless if the
    // run itself died).
    let results: Vec<Result<RunResult, RunError>> = if keep_going {
        runner.run_all(&points)
    } else {
        let mut out = Vec::new();
        for point in &points {
            let outcome = runner.run(point);
            let failed = outcome.is_err();
            out.push(outcome);
            if failed {
                break;
            }
        }
        out
    };

    let mut failed = false;
    if let Some(Ok(result)) = results.first() {
        report(result, results.get(1).and_then(|r| r.as_ref().ok()));
        if obs_out.is_some() || obs_summary {
            match &result.obs {
                Some(observation) => {
                    if obs_summary {
                        print_obs_summary(observation);
                    }
                    if let Some(prefix) = &obs_out {
                        if let Err(e) =
                            write_obs_artifacts(observation, &request, prefix, &*reporter)
                        {
                            eprintln!("error: --obs-out: {e}");
                            failed = true;
                        }
                    }
                }
                None => {
                    // Only a run-cache hit from an unobserved twin comes
                    // back without artifacts; a fresh run always has them.
                    reporter.report(ProgressEvent::Warning {
                        message: "observation requested but the point was served from the \
                                  run cache without artifacts"
                            .to_string(),
                    });
                }
            }
        }
    }
    if let Some(prefix) = &metrics_out {
        let snapshot = collect_metrics_snapshot(&runner, &results);
        reporter.report(ProgressEvent::Metrics { snapshot: snapshot.clone() });
        if let Err(e) = write_metrics_artifacts(&snapshot, prefix, &*reporter) {
            eprintln!("error: --metrics-out: {e}");
            failed = true;
        }
    }
    for outcome in &results {
        if let Err(e) = outcome {
            failed = true;
            eprintln!("error: {e}");
        }
    }
    // An interrupt trumps the failure exit: the cancelled points are not
    // wrong, merely unfinished, and the user asked for the stop.
    if sigint_count() > 0 {
        let done = results.iter().filter(|r| r.is_ok()).count();
        eprintln!("interrupted: {done} of {} point(s) completed", points.len());
        std::process::exit(130);
    }
    if failed {
        std::process::exit(1);
    }
}

/// The `--obs-summary` table: one row per epoch, stdout (it is part of
/// the report, not progress narration).
fn print_obs_summary(observation: &slicc_sim::Observation) {
    let Some(series) = &observation.series else { return };
    println!();
    println!("interval series ({} epochs of {} cycles)", series.epochs.len(), series.epoch_cycles);
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7} {:>6}",
        "epoch", "start", "end", "instr", "I-MPKI", "D-MPKI", "IPC", "migr"
    );
    for (i, e) in series.epochs.iter().enumerate() {
        println!(
            "{i:>5} {:>12} {:>12} {:>12} {:>8.2} {:>8.2} {:>7.3} {:>6}",
            e.start_cycle,
            e.end_cycle,
            e.instructions,
            e.i_mpki(),
            e.d_mpki(),
            e.ipc(),
            e.migrations,
        );
    }
    if !observation.events.is_empty() || observation.dropped_events > 0 {
        println!(
            "trace           {} event(s) held, {} overwritten",
            observation.events.len(),
            observation.dropped_events
        );
    }
}

/// Populates a fresh registry from everything the batch produced: run
/// totals (Merge-folded across completed points), runner/cache counters,
/// and the service pressure gauges.
fn collect_metrics_snapshot(
    runner: &Runner,
    results: &[Result<RunResult, RunError>],
) -> slicc_sim::MetricsSnapshot {
    let registry = slicc_sim::MetricsRegistry::new();
    let runs: Vec<&slicc_sim::RunMetrics> =
        results.iter().filter_map(|r| r.as_ref().ok()).map(|r| &r.metrics).collect();
    slicc_sim::export_run_metrics(&registry, &runs);
    slicc_sim::export_runner_stats(&registry, &runner.stats());
    slicc_sim::export_service(&registry, &runner.pressure());
    registry.snapshot()
}

/// Writes `PREFIX.metrics.prom` and `PREFIX.metrics.json` for
/// `--metrics-out`.
fn write_metrics_artifacts(
    snapshot: &slicc_sim::MetricsSnapshot,
    prefix: &Path,
    reporter: &dyn slicc_sim::Reporter,
) -> Result<(), String> {
    let with_suffix = |suffix: &str| {
        let mut name = prefix.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(suffix);
        prefix.with_file_name(name)
    };
    for (suffix, body) in
        [(".metrics.prom", snapshot.to_prometheus()), (".metrics.json", snapshot.to_json())]
    {
        let path = with_suffix(suffix);
        atomic_write(&path, body.as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        reporter.report(ProgressEvent::Note {
            message: format!("wrote {} ({} series)", path.display(), snapshot.samples.len()),
        });
    }
    Ok(())
}

/// Writes `PREFIX.trace.json`, `PREFIX.intervals.csv`, and
/// `PREFIX.intervals.json` for `--obs-out`.
fn write_obs_artifacts(
    observation: &slicc_sim::Observation,
    request: &RunRequest,
    prefix: &Path,
    reporter: &dyn slicc_sim::Reporter,
) -> Result<(), String> {
    let with_suffix = |suffix: &str| {
        let mut name = prefix.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(suffix);
        prefix.with_file_name(name)
    };
    let meta = TraceMeta {
        workload: request.workload.name().to_string(),
        mode: request.mode().name().to_string(),
        cores: request.config.cores,
    };
    let trace_path = with_suffix(".trace.json");
    atomic_write(&trace_path, chrome_trace_json(&observation.events, &meta).as_bytes())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    reporter.report(ProgressEvent::Note {
        message: format!(
            "wrote {} ({} event(s), {} overwritten)",
            trace_path.display(),
            observation.events.len(),
            observation.dropped_events
        ),
    });
    if let Some(series) = &observation.series {
        for (suffix, body) in
            [(".intervals.csv", series.to_csv()), (".intervals.json", series.to_json())]
        {
            let path = with_suffix(suffix);
            atomic_write(&path, body.as_bytes())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            reporter.report(ProgressEvent::Note {
                message: format!("wrote {} ({} epochs)", path.display(), series.epochs.len()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults_build_a_slicc_sw_request() {
        match parse(&[]).unwrap() {
            Command::Run {
                request,
                compare,
                keep_going,
                progress,
                obs_out,
                obs_summary,
                metrics_out,
                cache_bytes,
            } => {
                assert_eq!(request.workload, Workload::TpcC1);
                assert_eq!(request.mode(), SchedulerMode::SliccSw);
                assert!(!compare);
                assert!(!keep_going);
                assert_eq!(progress, ProgressKind::Plain);
                assert!(obs_out.is_none());
                assert!(!obs_summary);
                assert!(metrics_out.is_none(), "metrics capture must be opt-in");
                assert!(request.config.fault_injection.is_none());
                assert!(cache_bytes.is_none(), "default budget lives in the runner");
                assert!(!request.deadline.is_enabled(), "no deadline unless asked");
                assert_eq!(
                    request.obs,
                    ObsConfig::disabled(),
                    "observation must be off by default"
                );
            }
            Command::Help => panic!("empty args must run, not print help"),
        }
    }

    #[test]
    fn resilience_flags_reach_the_request_and_runner_knobs() {
        match parse(&["--deadline-ms", "250", "--inject", "stall:40"]).unwrap() {
            Command::Run { request, .. } => {
                assert_eq!(request.deadline.budget(), Some(std::time::Duration::from_millis(250)));
                assert_eq!(
                    request.config.fault_injection,
                    Some(InjectedFault::StallAt { step: 40 })
                );
            }
            Command::Help => panic!("expected a run"),
        }
        let err = parse(&["--inject", "meteor"]).unwrap_err();
        assert_eq!(err.option, "--inject");
        assert!(err.message.contains("meteor"));
        let err = parse(&["--deadline-ms", "soon"]).unwrap_err();
        assert_eq!(err.option, "--deadline-ms");
    }

    #[test]
    fn obs_flags_compose_into_the_request() {
        match parse(&["--obs-out", "/tmp/o", "--obs-sample", "8"]).unwrap() {
            Command::Run { request, obs_out, .. } => {
                assert_eq!(obs_out.as_deref(), Some(std::path::Path::new("/tmp/o")));
                assert!(request.obs.events, "--obs-out implies event tracing");
                assert_eq!(request.obs.sample_every, 8);
                assert_eq!(
                    request.obs.epoch_cycles,
                    Some(ObsConfig::DEFAULT_EPOCH_CYCLES),
                    "--obs-out implies the interval series"
                );
            }
            Command::Help => panic!("expected a run"),
        }
        match parse(&["--obs-summary"]).unwrap() {
            Command::Run { request, obs_summary, .. } => {
                assert!(obs_summary);
                assert!(request.obs.epoch_cycles.is_some(), "--obs-summary implies the series");
                assert!(!request.obs.events, "--obs-summary alone needs no event trace");
            }
            Command::Help => panic!("expected a run"),
        }
        match parse(&["--obs-epoch", "500", "--obs-events", "64"]).unwrap() {
            Command::Run { request, .. } => {
                assert_eq!(request.obs.epoch_cycles, Some(500));
                assert_eq!(request.obs.event_capacity, 64);
                assert!(request.obs.events, "--obs-events implies event tracing");
            }
            Command::Help => panic!("expected a run"),
        }
    }

    #[test]
    fn metrics_out_implies_capture_without_events_or_epochs() {
        match parse(&["--metrics-out", "/tmp/m"]).unwrap() {
            Command::Run { request, metrics_out, .. } => {
                assert_eq!(metrics_out.as_deref(), Some(std::path::Path::new("/tmp/m")));
                assert!(request.obs.metrics, "--metrics-out implies registry capture");
                assert!(!request.obs.events, "--metrics-out alone needs no event trace");
                assert!(request.obs.epoch_cycles.is_none(), "and no interval series");
            }
            Command::Help => panic!("expected a run"),
        }
        // Capture composes with the event/series flags instead of
        // replacing them.
        match parse(&["--metrics-out", "/tmp/m", "--obs-epoch", "500"]).unwrap() {
            Command::Run { request, .. } => {
                assert!(request.obs.metrics);
                assert_eq!(request.obs.epoch_cycles, Some(500));
            }
            Command::Help => panic!("expected a run"),
        }
        let err = parse(&["--metrics-out"]).unwrap_err();
        assert_eq!(err.option, "--metrics-out");
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn governance_flags_reach_the_runner_knobs() {
        match parse(&["--cache-bytes", "4096"]).unwrap() {
            Command::Run { cache_bytes, .. } => assert_eq!(cache_bytes, Some(4096)),
            Command::Help => panic!("expected a run"),
        }
        let err = parse(&["--cache-bytes", "plenty"]).unwrap_err();
        assert_eq!(err.option, "--cache-bytes");
        let err = parse(&["--cache-bytes"]).unwrap_err();
        assert_eq!(err.option, "--cache-bytes");
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn progress_flag_parses_and_rejects_garbage() {
        match parse(&["--progress", "json"]).unwrap() {
            Command::Run { progress, .. } => assert_eq!(progress, ProgressKind::Json),
            Command::Help => panic!("expected a run"),
        }
        let err = parse(&["--progress", "loud"]).unwrap_err();
        assert_eq!(err.option, "--progress");
        assert!(err.message.contains("loud"));
    }

    #[test]
    fn fault_isolation_flags_reach_the_config() {
        match parse(&["--fuel-steps", "5", "--fuel-cycles", "100", "--keep-going"]).unwrap() {
            Command::Run { request, keep_going, .. } => {
                assert_eq!(request.config.watchdog.max_heap_steps, Some(5));
                assert_eq!(request.config.watchdog.max_cycles, Some(100));
                assert!(keep_going);
            }
            Command::Help => panic!("expected a run"),
        }
    }

    #[test]
    fn removed_parallelism_knobs_are_unknown_options() {
        // Parallelism is across points only (`--jobs` in `figures`); a
        // point always runs on one thread. Every parse error exits 2.
        for flag in ["--point-threads", "--decode-threads"] {
            let err = parse(&[flag, "2"]).unwrap_err();
            assert_eq!(err.option, flag);
            assert_eq!(err.message, "unknown option");
        }
    }

    #[test]
    fn fuel_flags_reject_garbage() {
        let err = parse(&["--fuel-steps", "plenty"]).unwrap_err();
        assert_eq!(err.option, "--fuel-steps");
        let err = parse(&["--fuel-cycles"]).unwrap_err();
        assert_eq!(err.option, "--fuel-cycles");
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn help_flag_wins() {
        assert!(matches!(parse(&["--help"]).unwrap(), Command::Help));
        assert!(matches!(parse(&["-h"]).unwrap(), Command::Help));
    }

    #[test]
    fn unknown_option_is_named() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert_eq!(err.option, "--bogus");
    }

    #[test]
    fn bad_value_names_the_option() {
        let err = parse(&["--tasks", "many"]).unwrap_err();
        assert_eq!(err.option, "--tasks");
        assert!(err.message.contains("many"));
        let err = parse(&["--workload", "tpcd"]).unwrap_err();
        assert_eq!(err.option, "--workload");
        assert!(err.message.contains("tpcd"));
    }

    #[test]
    fn missing_value_is_reported() {
        let err = parse(&["--seed"]).unwrap_err();
        assert_eq!(err.option, "--seed");
        assert!(err.message.contains("missing"));
    }

    #[test]
    fn invalid_configuration_is_rejected_at_parse_time() {
        // fill-up_t beyond the 32 KiB L1-I's 512 blocks cannot fire.
        let err = parse(&["--mode", "slicc", "--fill-up", "100000"]).unwrap_err();
        assert!(err.message.contains("fill_up_t"), "got: {}", err.message);
    }

    #[test]
    fn overrides_reach_the_request() {
        match parse(&["--tasks", "7", "--seed", "9", "--l1i-kib", "64"]).unwrap() {
            Command::Run { request, .. } => {
                assert_eq!(request.effective_scale().tasks, 7);
                assert_eq!(request.effective_scale().seed, 9);
                assert_eq!(request.config.l1i_size, 64 * 1024);
            }
            Command::Help => panic!("expected a run"),
        }
    }
}
