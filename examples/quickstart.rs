//! Quickstart: simulate TPC-C under the baseline and every SLICC variant.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This reproduces, at small scale, the headline result of the paper:
//! SLICC trades a small data-miss increase for a large instruction-miss
//! reduction, improving overall performance. The four modes are
//! independent simulation points, so they fan out across host cores via
//! the [`Runner`].

use slicc_sim::{RunRequest, Runner, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

fn main() {
    let base = RunRequest::new(Workload::TpcC1, TraceScale::small(), SimConfig::paper_baseline());
    let spec = base.spec();
    println!("workload: {} ({} transactions)", spec.name, spec.num_tasks);
    println!();
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "mode", "I-MPKI", "D-MPKI", "cycles", "migrations", "speedup"
    );

    // SchedulerMode::ALL starts with Baseline, so results[0] is the
    // reference point for the speedup column.
    let reqs: Vec<RunRequest> =
        SchedulerMode::ALL.iter().map(|&mode| base.clone().with_mode(mode)).collect();
    let results = Runner::with_default_parallelism().run_metrics(&reqs);
    for m in &results {
        println!(
            "{:<10} {:>8.2} {:>8.2} {:>10} {:>10} {:>8.2}x",
            m.mode,
            m.i_mpki(),
            m.d_mpki(),
            m.cycles,
            m.migrations,
            m.speedup_over(&results[0]),
        );
    }
}
