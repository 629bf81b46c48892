//! Policy explorer: replacement policies vs thread migration.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example policy_explorer [tpcc1|tpcc10|tpce|mapreduce]
//! ```
//!
//! §2.1.2 of the paper shows that smarter replacement/insertion policies
//! (LIP/BIP/DIP and the RRIP family) recover only a fraction of the
//! instruction misses that a larger cache — or SLICC — eliminates. This
//! example reproduces that comparison on one workload: every policy on
//! the baseline machine, then SLICC-SW on plain LRU, which beats them
//! all.

use slicc_cache::PolicyKind;
use slicc_sim::{RunRequest, Runner, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

fn pick_workload() -> Workload {
    match std::env::args().nth(1).as_deref() {
        Some("tpcc10") => Workload::TpcC10,
        Some("tpce") => Workload::TpcE,
        Some("mapreduce") => Workload::MapReduce,
        _ => Workload::TpcC1,
    }
}

fn main() {
    let point = RunRequest::new(pick_workload(), TraceScale::small(), SimConfig::paper_baseline());
    println!("workload: {}\n", point.spec().name);
    println!("{:<22} {:>8} {:>10} {:>9}", "configuration", "I-MPKI", "cycles", "speedup");

    // Every policy plus the SLICC-SW point: nine independent simulations,
    // fanned across host cores. The LRU point doubles as the baseline.
    let mut reqs = vec![point.clone()];
    reqs.extend(PolicyKind::ALL.map(|policy| {
        RunRequest::new(
            point.workload,
            TraceScale::small(),
            SimConfig::paper_baseline().with_policy(policy),
        )
    }));
    reqs.push(point.clone().with_mode(SchedulerMode::SliccSw));
    let results = Runner::with_default_parallelism().run_metrics(&reqs);
    let base = &results[0];
    for (policy, m) in PolicyKind::ALL.iter().zip(&results[1..]) {
        println!(
            "{:<22} {:>8.2} {:>10} {:>8.2}x",
            format!("baseline + {policy}"),
            m.i_mpki(),
            m.cycles,
            m.speedup_over(base)
        );
    }
    let slicc = results.last().expect("SLICC-SW result");
    println!(
        "{:<22} {:>8.2} {:>10} {:>8.2}x",
        "SLICC-SW (LRU)",
        slicc.i_mpki(),
        slicc.cycles,
        slicc.speedup_over(base)
    );
    println!(
        "\nReplacement policies recover a few percent; migration recovers {:.0}% of instruction misses.",
        100.0 * (1.0 - slicc.i_mpki() / base.i_mpki())
    );
}
