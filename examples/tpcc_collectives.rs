//! Watching cache collectives self-assemble on TPC-C.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example tpcc_collectives
//! ```
//!
//! This drives the engine with migration-event recording enabled and
//! reconstructs the paper's mental model: which cores ended up serving
//! which code segments, how far threads spread (§5.4 reports TPC-C
//! transactions spreading across up to 14 cores), and what the migration
//! timeline looked like for one sample thread.

use slicc_common::CoreId;
use slicc_sim::{Engine, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};
use std::collections::HashMap;

fn main() {
    let spec = Workload::TpcC1.spec(TraceScale::small());
    let cfg = SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw);
    let mut engine = Engine::try_new(&spec, &cfg).expect("paper machine is valid");
    engine.record_events();
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
    let events = engine.events().to_vec();
    let mut per_thread: HashMap<u32, usize> = HashMap::new();
    for ev in &events {
        *per_thread.entry(ev.thread.raw()).or_default() += 1;
    }
    if let Some((&traveller, &hops)) = per_thread.iter().max_by_key(|&(_, &n)| n) {
        println!("\nmost-travelled thread: T{traveller} with {hops} migrations:");
        for ev in events.iter().filter(|e| e.thread.raw() == traveller).take(12) {
            println!(
                "  @instr {:>7}: {} -> {} ({})",
                ev.thread_instructions,
                ev.from,
                ev.to,
                if ev.matched { "segment match" } else { "idle core" }
            );
        }
    }

    let metrics = engine.into_metrics();
    println!(
        "\n{} threads, {} migrations ({:.2} per kilo-instruction), mean spread {:.1} cores/thread",
        metrics.completed_threads,
        metrics.migrations,
        metrics.migrations_per_kilo_instruction(),
        metrics.mean_cores_per_thread
    );
    println!("I-MPKI {:.2}, D-MPKI {:.2}, BPKI {:.3}", metrics.i_mpki(), metrics.d_mpki(), metrics.bpki());
}
