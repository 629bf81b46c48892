//! Watching cache collectives self-assemble on TPC-C.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example tpcc_collectives
//! ```
//!
//! This reconstructs the paper's mental model: which cores ended up
//! serving which code segments, how far threads spread (§5.4 reports
//! TPC-C transactions spreading across up to 14 cores), and what the
//! migration timeline looked like for one sample thread. The L1-I
//! contents come from an [`Engine`] left standing after its run; the
//! timeline comes from the event trace of an observed [`RunSession`] of
//! the same point. The simulation is deterministic, so both runs
//! simulate the same machine.

use slicc_common::CoreId;
use slicc_sim::{Engine, EventKind, ObsConfig, RunSession, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};
use std::collections::HashMap;

fn main() {
    let spec = Workload::TpcC1.spec(TraceScale::small());
    let cfg = SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw);
    let mut engine = Engine::try_new(&spec, &cfg).expect("paper machine is valid");
    engine.try_execute().expect("run completes");

    // Which segment dominates each core's final L1-I contents?
    println!("final L1-I contents by code segment (collective structure):");
    for core in CoreId::all(cfg.cores) {
        let l1i = engine.system().l1i(core);
        let mut per_segment: HashMap<u32, usize> = HashMap::new();
        for block in l1i.blocks() {
            if let Some(seg) = spec.pool.segment_of_block(block) {
                *per_segment.entry(seg).or_default() += 1;
            }
        }
        let mut top: Vec<_> = per_segment.into_iter().collect();
        top.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let summary: Vec<String> =
            top.iter().take(3).map(|(seg, n)| format!("seg{seg:02}x{n}")).collect();
        println!("  {core}: {} blocks [{}]", l1i.occupancy(), summary.join(" "));
    }

    // Migration timeline of the most-travelled thread.
    let outcome = RunSession::new(&spec, &cfg)
        .expect("paper machine is valid")
        .observe(ObsConfig::disabled().with_events())
        .run()
        .expect("run completes");
    let obs = outcome.obs.expect("an observed run carries its events");
    let migrations: Vec<_> = obs
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Migration { thread, from, to, reason } => {
                Some((ev.cycle, thread, from, to, reason))
            }
            _ => None,
        })
        .collect();
    let mut per_thread: HashMap<u32, usize> = HashMap::new();
    for &(_, thread, ..) in &migrations {
        *per_thread.entry(thread).or_default() += 1;
    }
    if let Some((&traveller, &hops)) = per_thread.iter().max_by_key(|&(&t, &n)| (n, t)) {
        println!("\nmost-travelled thread: T{traveller} with {hops} migrations:");
        for &(cycle, _, from, to, reason) in migrations.iter().filter(|m| m.1 == traveller).take(12)
        {
            println!("  @cycle {cycle:>9}: {from} -> {to} ({})", reason.name());
        }
    }
    if obs.dropped_events > 0 {
        println!("({} older events fell out of the per-core rings)", obs.dropped_events);
    }

    let metrics = engine.into_metrics();
    assert_eq!(metrics.digest(), outcome.metrics.digest(), "observation never changes results");
    println!(
        "\n{} threads, {} migrations ({:.2} per kilo-instruction), mean spread {:.1} cores/thread",
        metrics.completed_threads,
        metrics.migrations,
        metrics.migrations_per_kilo_instruction(),
        metrics.mean_cores_per_thread
    );
    println!(
        "I-MPKI {:.2}, D-MPKI {:.2}, BPKI {:.3}",
        metrics.i_mpki(),
        metrics.d_mpki(),
        metrics.bpki()
    );
}
