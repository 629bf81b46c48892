//! Registry exposition: folds the simulator's authoritative stat
//! structs into a [`MetricsRegistry`] snapshot.
//!
//! The simulator's layers each keep their own typed counters —
//! [`RunMetrics`] per run, [`RunnerStats`] for the batch runner, and
//! [`PressureSnapshot`] for the service's governance surface. This module
//! maps them all into one registry namespace at *snapshot time*: the structs
//! stay the single source of truth, the registry is a read-only
//! projection of them, and the reconciliation tests below pin that every
//! exported total equals the struct field it came from, exactly.
//!
//! Multi-point sweeps fold first: per-run [`RunMetrics`] merge through
//! the workspace-wide [`Merge`] trait (the nested `CoreStats` /
//! `NocStats` / `L2Stats` / `DramStats` counter structs already
//! implement it), then export as machine-wide totals.

use crate::metrics::RunMetrics;
use crate::runner::RunnerStats;
use crate::service::PressureSnapshot;
use slicc_common::Merge;
use slicc_cpu::CoreStats;
use slicc_mem::{DramStats, L2Stats};
use slicc_noc::NocStats;
use slicc_obs::MetricsRegistry;

/// Exports machine-wide run totals, folding a sweep's per-point
/// [`RunMetrics`] together first. Counter names carry the `sim_` /
/// `core_` / `noc_` / `l2_` / `dram_` prefixes matching the struct each
/// total came from.
pub fn export_run_metrics(reg: &MetricsRegistry, runs: &[&RunMetrics]) {
    let mut core = CoreStats::default();
    let mut noc = NocStats::default();
    let mut l2 = L2Stats::default();
    let mut dram = DramStats::default();
    let sum = |f: fn(&RunMetrics) -> u64| runs.iter().map(|m| f(m)).sum::<u64>();
    let scalars: [(&str, &str, u64); 14] = [
        ("sim_instructions_total", "instructions retired", sum(|m| m.instructions)),
        ("sim_cycles_total", "simulated cycles (summed across points)", sum(|m| m.cycles)),
        ("sim_l1i_misses_total", "L1-I demand misses", sum(|m| m.i_misses)),
        ("sim_l1d_misses_total", "L1-D demand misses", sum(|m| m.d_misses)),
        ("sim_l1i_accesses_total", "L1-I demand accesses", sum(|m| m.i_accesses)),
        ("sim_l1d_accesses_total", "L1-D demand accesses", sum(|m| m.d_accesses)),
        ("sim_migrations_total", "thread migrations", sum(|m| m.migrations)),
        ("sim_context_switches_total", "STEPS context switches", sum(|m| m.context_switches)),
        (
            "sim_matched_migrations_total",
            "migrations matched by search",
            sum(|m| m.matched_migrations),
        ),
        ("sim_idle_migrations_total", "migrations to an idle core", sum(|m| m.idle_migrations)),
        (
            "sim_blocked_migrations_total",
            "migrations with nowhere to go",
            sum(|m| m.blocked_migrations),
        ),
        ("sim_completed_threads_total", "transactions completed", sum(|m| m.completed_threads)),
        ("sim_itlb_misses_total", "instruction-TLB misses", sum(|m| m.i_tlb_misses)),
        ("sim_dtlb_misses_total", "data-TLB misses", sum(|m| m.d_tlb_misses)),
    ];
    for (name, help, v) in scalars {
        reg.counter(name, help).add(v);
    }
    for m in runs {
        core.merge(&m.core_stats);
        noc.merge(&m.noc);
        l2.merge(&m.l2);
        dram.merge(&m.dram);
    }
    let nested: [(&str, &str, u64); 21] = [
        ("core_instructions_total", "per-core instructions retired", core.instructions),
        ("core_base_cycles_total", "base execution cycles", core.base_cycles),
        (
            "core_ifetch_stall_cycles_total",
            "instruction-miss stall cycles",
            core.ifetch_stall_cycles,
        ),
        ("core_fetch_latency_cycles_total", "front-end latency cycles", core.fetch_latency_cycles),
        ("core_tlb_walk_cycles_total", "TLB page-walk cycles", core.tlb_walk_cycles),
        ("core_data_stall_cycles_total", "data-miss stall cycles", core.data_stall_cycles),
        ("core_migration_cycles_total", "context-transfer cycles", core.migration_cycles),
        ("core_idle_cycles_total", "idle cycles", core.idle_cycles),
        ("noc_unicasts_total", "point-to-point NoC messages", noc.unicasts),
        ("noc_broadcasts_total", "broadcast NoC messages", noc.broadcasts),
        ("noc_unicast_hops_total", "hop traversals by unicasts", noc.unicast_hops),
        ("l2_hits_total", "L2 hits", l2.hits),
        ("l2_misses_total", "L2 misses to memory", l2.misses),
        ("l2_store_invalidations_total", "store invalidations sent", l2.store_invalidations),
        ("l2_downgrades_total", "dirty-copy downgrades", l2.downgrades),
        ("l2_back_invalidations_total", "inclusive back-invalidations", l2.back_invalidations),
        ("dram_row_hits_total", "open-row DRAM accesses", dram.row_hits),
        ("dram_row_closed_total", "precharged-bank DRAM accesses", dram.row_closed),
        ("dram_row_conflicts_total", "row-conflict DRAM accesses", dram.row_conflicts),
        ("dram_reads_total", "DRAM reads", dram.reads),
        ("dram_writes_total", "DRAM writes", dram.writes),
    ];
    for (name, help, v) in nested {
        reg.counter(name, help).add(v);
    }
}

/// Exports the batch runner's governance and throughput counters
/// (`runner_` prefix).
pub fn export_runner_stats(reg: &MetricsRegistry, stats: &RunnerStats) {
    let counters: [(&str, &str, u64); 9] = [
        ("runner_cache_hits_total", "requests served from the run cache", stats.cache_hits),
        ("runner_coalesced_hits_total", "requests coalesced onto a flight", stats.coalesced_hits),
        ("runner_cache_misses_total", "requests that simulated fresh", stats.cache_misses),
        ("runner_cache_evictions_total", "run-cache evictions", stats.cache_evictions),
        ("runner_shed_points_total", "submissions shed by admission control", stats.shed_points),
        ("runner_failed_points_total", "fresh attempts that failed", stats.failed_points),
        ("runner_spec_builds_total", "workload specs materialized", stats.spec_builds),
        (
            "runner_simulated_instructions_total",
            "instructions simulated fresh",
            stats.simulated_instructions,
        ),
        ("runner_busy_nanos_total", "CPU nanoseconds inside simulations", stats.busy_nanos),
    ];
    for (name, help, v) in counters {
        reg.counter(name, help).add(v);
    }
    reg.gauge("runner_cache_resident_bytes", "bytes resident in the run cache")
        .set(stats.cache_bytes);
}

/// Exports the service's admission/governance surface (`service_`
/// prefix).
pub fn export_service(reg: &MetricsRegistry, snap: &PressureSnapshot) {
    reg.gauge("service_queue_depth", "submissions waiting for a slot").set(snap.queue_depth as u64);
    reg.gauge("service_inflight", "fresh simulations executing").set(snap.inflight as u64);
    reg.gauge("service_cache_resident_bytes", "bytes resident in the run cache")
        .set(snap.cache_bytes);
    reg.gauge("service_cache_budget_bytes", "run-cache byte budget").set(snap.cache_budget);
    reg.gauge("service_cache_entries", "entries resident in the run cache")
        .set(snap.cache_entries as u64);
    reg.counter("service_shed_total", "submissions shed by admission control").add(snap.shed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunRequest, Runner, SimConfig};
    use slicc_trace::{TraceScale, Workload};

    fn synthetic_metrics(seed: u64) -> RunMetrics {
        let mut m = RunMetrics {
            instructions: seed,
            cycles: seed + 1,
            i_misses: seed + 2,
            d_misses: seed + 3,
            i_accesses: seed + 4,
            d_accesses: seed + 5,
            migrations: seed + 6,
            context_switches: seed + 7,
            matched_migrations: seed + 8,
            idle_migrations: seed + 9,
            blocked_migrations: seed + 10,
            completed_threads: seed + 11,
            i_tlb_misses: seed + 12,
            d_tlb_misses: seed + 13,
            ..RunMetrics::default()
        };
        m.core_stats.instructions = seed + 14;
        m.core_stats.idle_cycles = seed + 15;
        m.noc.broadcasts = seed + 16;
        m.l2.hits = seed + 17;
        m.dram.reads = seed + 18;
        m
    }

    #[test]
    fn run_totals_reconcile_exactly_with_merged_metrics() {
        let (a, b) = (synthetic_metrics(100), synthetic_metrics(1_000));
        let reg = MetricsRegistry::new();
        export_run_metrics(&reg, &[&a, &b]);
        let snap = reg.snapshot();
        let checks: [(&str, u64); 8] = [
            ("sim_instructions_total", a.instructions + b.instructions),
            ("sim_cycles_total", a.cycles + b.cycles),
            ("sim_migrations_total", a.migrations + b.migrations),
            ("sim_completed_threads_total", a.completed_threads + b.completed_threads),
            ("core_idle_cycles_total", a.core_stats.idle_cycles + b.core_stats.idle_cycles),
            ("noc_broadcasts_total", a.noc.broadcasts + b.noc.broadcasts),
            ("l2_hits_total", a.l2.hits + b.l2.hits),
            ("dram_reads_total", a.dram.reads + b.dram.reads),
        ];
        for (name, want) in checks {
            assert_eq!(snap.value(name), Some(want), "{name} must reconcile");
        }
    }

    #[test]
    fn runner_and_service_totals_reconcile_after_a_real_run() {
        let runner = Runner::new(1);
        let req = RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test());
        runner.run(&req).expect("tiny run succeeds");
        runner.run(&req).expect("second submission hits the cache");
        let stats = runner.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);

        let reg = MetricsRegistry::new();
        export_runner_stats(&reg, &stats);
        export_service(&reg, &runner.pressure());
        let snap = reg.snapshot();
        assert_eq!(snap.value("runner_cache_hits_total"), Some(stats.cache_hits));
        assert_eq!(snap.value("runner_cache_misses_total"), Some(stats.cache_misses));
        assert_eq!(snap.value("runner_cache_resident_bytes"), Some(stats.cache_bytes));
        assert_eq!(
            snap.value("runner_simulated_instructions_total"),
            Some(stats.simulated_instructions)
        );
        let p = runner.pressure();
        assert_eq!(snap.value("service_cache_resident_bytes"), Some(p.cache_bytes));
        assert_eq!(snap.value("service_cache_entries"), Some(p.cache_entries as u64));
        assert_eq!(snap.value("service_shed_total"), Some(p.shed));
    }

    #[test]
    fn metric_names_never_collide_with_the_pressure_event_grep() {
        // scripts/ci.sh's pressure smoke selects stderr lines by the
        // literal substring "pressure"; a metric named that way would
        // make the metrics event match the wrong parser. Pin the
        // namespace clean.
        let reg = MetricsRegistry::new();
        export_run_metrics(&reg, &[&RunMetrics::default()]);
        export_runner_stats(&reg, &RunnerStats::default());
        export_service(
            &reg,
            &PressureSnapshot {
                queue_depth: 0,
                inflight: 0,
                cache_bytes: 0,
                cache_budget: 0,
                cache_entries: 0,
                shed: 0,
            },
        );
        for s in &reg.snapshot().samples {
            assert!(!s.name.contains("pressure"), "metric {} collides with the event grep", s.name);
        }
    }
}
