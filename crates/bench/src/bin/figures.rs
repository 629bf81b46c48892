//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [EXPERIMENT ...] [--scale small|paper] [--jobs N]
//!         [--progress quiet|plain|json] [--deadline-ms N]
//!         [--cache-bytes N] [--out PATH]
//!
//! EXPERIMENT: fig1 fig2 fig3 fig7 fig8 fig9 fig10 fig11
//!             table1 table2 table3 bpki ablations extensions scaling all
//! ```
//!
//! With no arguments, prints the experiment list. `all` runs everything
//! in paper order; output is markdown, suitable for EXPERIMENTS.md.
//! Markdown goes to stdout (or, with `--out PATH`, is committed to PATH
//! in one atomic rename so an interrupted run never leaves a torn
//! report); progress telemetry goes to stderr in the format selected by
//! `--progress` (default `plain`; `json` emits one JSON object per line,
//! `quiet` suppresses everything but warnings).
//!
//! Simulation points fan out across `--jobs` worker threads (default: all
//! host cores). One [`Runner`] is shared across the selected experiments,
//! so points repeated between figures — every figure's baselines — are
//! simulated once and served from the run cache afterwards.
//!
//! Ctrl-C interrupts cooperatively: in-flight points are cancelled at
//! their next engine step, no report is written, and the process exits
//! 130. A paper-scale `all` takes minutes, so an interrupted run is
//! simply started again. `--deadline-ms` bounds each point's wall-clock
//! time. `--cache-bytes` bounds the shared run cache (LRU eviction by
//! result weight; results never change) — see DESIGN.md §12. A batch is
//! never shed, so `figures` has no admission limit.

#![forbid(unsafe_code)]

use slicc_bench::{Experiment, ExperimentScale};
use slicc_common::{atomic_write, install_sigint_cancel, sigint_count};
use slicc_sim::{ProgressEvent, ProgressKind, Runner};
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};

fn usage() -> ! {
    eprintln!(
        "usage: figures [EXPERIMENT ...] [--scale small|paper] [--jobs N] \
         [--progress quiet|plain|json] [--deadline-ms N] \
         [--cache-bytes N] [--out PATH]"
    );
    eprintln!("experiments:");
    for e in Experiment::ALL {
        eprintln!("  {}", e.name());
    }
    eprintln!("  all");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::Paper;
    let mut jobs = Runner::default_parallelism();
    let mut progress = ProgressKind::Plain;
    let mut deadline_ms: Option<u64> = None;
    let mut cache_bytes: Option<u64> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut selected: Vec<Experiment> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("small") => ExperimentScale::Small,
                    Some("paper") => ExperimentScale::Paper,
                    _ => usage(),
                };
            }
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                };
            }
            "--progress" => {
                i += 1;
                progress = match args.get(i).and_then(|v| ProgressKind::parse(v)) {
                    Some(kind) => kind,
                    None => usage(),
                };
            }
            "--deadline-ms" => {
                i += 1;
                deadline_ms = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(ms) => Some(ms),
                    None => usage(),
                };
            }
            "--cache-bytes" => {
                i += 1;
                cache_bytes = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => Some(n),
                    None => usage(),
                };
            }
            "--out" => {
                i += 1;
                out = match args.get(i) {
                    Some(p) if !p.is_empty() => Some(std::path::PathBuf::from(p)),
                    _ => usage(),
                };
            }
            "all" => selected.extend(Experiment::ALL),
            name => match Experiment::parse(name) {
                Some(e) => selected.push(e),
                None => usage(),
            },
        }
        i += 1;
    }
    if selected.is_empty() {
        usage();
    }

    let runner = Runner::new(jobs);
    let reporter = progress.reporter();
    runner.set_reporter(std::sync::Arc::clone(&reporter));
    if let Some(ms) = deadline_ms {
        runner.set_default_deadline(Some(std::time::Duration::from_millis(ms)));
    }
    if let Some(bytes) = cache_bytes {
        runner.set_cache_bytes(bytes);
    }
    install_sigint_cancel(&runner.cancel_token());
    let mut report = String::new();
    let _ = writeln!(report, "# SLICC reproduction — experiment output");
    let _ = writeln!(report);
    let _ = writeln!(report, "scale: {scale:?}");
    let _ = writeln!(report);
    let mut interrupted = false;
    for e in selected {
        let start = std::time::Instant::now();
        // Experiments panic on a failed point (a figure with a hole is
        // not a figure). A Ctrl-C surfaces as exactly such a failure —
        // catch it here so the interrupt exits 130 instead of printing a
        // panic trace; genuine failures keep unwinding.
        match panic::catch_unwind(AssertUnwindSafe(|| e.run(scale, &runner))) {
            Ok(section) => {
                let _ = writeln!(report, "{section}");
                reporter.report(ProgressEvent::Note {
                    message: format!(
                        "[{}] done in {:.1}s",
                        e.name(),
                        start.elapsed().as_secs_f64()
                    ),
                });
            }
            Err(payload) => {
                if sigint_count() > 0 {
                    interrupted = true;
                    break;
                }
                panic::resume_unwind(payload);
            }
        }
    }
    if !interrupted {
        match &out {
            Some(path) => {
                if let Err(e) = atomic_write(path, report.as_bytes()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                reporter
                    .report(ProgressEvent::Note { message: format!("wrote {}", path.display()) });
            }
            None => print!("{report}"),
        }
    }
    let stats = runner.stats();
    let served = stats.cache_hits + stats.coalesced_hits;
    if served + stats.cache_misses > 0 {
        let mut suffix = String::new();
        if stats.cache_evictions > 0 {
            let _ = write!(suffix, ", {} evicted", stats.cache_evictions);
        }
        if stats.shed_points > 0 {
            let _ = write!(suffix, ", {} shed", stats.shed_points);
        }
        reporter.report(ProgressEvent::Note {
            message: format!(
                "{} simulation points ({} memoized + {} coalesced{suffix}), {} jobs, {:.0} instructions/s",
                served + stats.cache_misses,
                stats.cache_hits,
                stats.coalesced_hits,
                jobs,
                stats.sim_ips(),
            ),
        });
    }
    if interrupted {
        eprintln!("interrupted: no report written");
        std::process::exit(130);
    }
}
