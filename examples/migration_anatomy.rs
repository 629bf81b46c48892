//! Migration anatomy: where do the cycles go?
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example migration_anatomy [workload]
//! ```
//!
//! For each execution mode this prints the full cycle composition (base
//! execution, instruction-miss stalls, front-end latency, data-miss
//! stalls, migration overhead, idle time) plus the migration-rate and
//! broadcast-rate statistics of §5.8 — the raw material behind the
//! paper's §3.3 claim that the instruction-miss savings outweigh the
//! data-miss and migration costs.

use slicc_sim::{RunMetrics, RunRequest, Runner, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

fn pick_workload() -> Workload {
    match std::env::args().nth(1).as_deref() {
        Some("tpcc10") => Workload::TpcC10,
        Some("tpce") => Workload::TpcE,
        Some("mapreduce") => Workload::MapReduce,
        _ => Workload::TpcC1,
    }
}

fn row(m: &RunMetrics, base: &RunMetrics) {
    let s = &m.core_stats;
    let total = s.total_cycles();
    let pct = |x: u64| 100.0 * x as f64 / total.max(1) as f64;
    println!(
        "{:<10} {:>7.2} {:>7.2} | {:>5.1} {:>6.1} {:>6.1} {:>5.1} {:>5.1} {:>5.1} | {:>6.2} {:>6.3} {:>7.2}x",
        m.mode,
        m.i_mpki(),
        m.d_mpki(),
        pct(s.base_cycles),
        pct(s.ifetch_stall_cycles),
        pct(s.data_stall_cycles),
        pct(s.fetch_latency_cycles),
        pct(s.migration_cycles),
        pct(s.idle_cycles),
        m.migrations_per_kilo_instruction(),
        m.bpki(),
        m.speedup_over(base),
    );
}

fn main() {
    let workload = pick_workload();
    let spec = workload.spec(TraceScale::small());
    println!("workload: {}", spec.name);
    println!(
        "{:<10} {:>7} {:>7} | {:>5} {:>6} {:>6} {:>5} {:>5} {:>5} | {:>6} {:>6} {:>8}",
        "mode",
        "I-MPKI",
        "D-MPKI",
        "base%",
        "istal%",
        "dstal%",
        "flat%",
        "mig%",
        "idle%",
        "mig/KI",
        "BPKI",
        "speedup"
    );
    // Four independent points, fanned across host cores.
    let point = RunRequest::new(workload, TraceScale::small(), SimConfig::paper_baseline());
    let reqs: Vec<RunRequest> =
        SchedulerMode::ALL.iter().map(|&m| point.clone().with_mode(m)).collect();
    let results = Runner::with_default_parallelism().run_metrics(&reqs);
    for m in &results {
        row(m, &results[0]);
    }
}
