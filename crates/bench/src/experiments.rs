//! One generator per table and figure of the paper's evaluation (§5).
//!
//! Each figure describes its simulation points as [`RunRequest`]s and
//! hands the whole batch to a shared [`Runner`], which fans independent
//! points across host cores and memoizes completed ones — so the Baseline
//! runs shared by Figures 1, 7, 8, 10 and 11 simulate once per `figures
//! all` invocation. Results come back in submission order, which keeps the
//! rendering code a straight zip over the request list.

use crate::format::{bar_chart, f1, f2, pct, Table};
use slicc_cache::PolicyKind;
use slicc_core::{HwCostConfig, SliccParams, PIF_STORAGE_BYTES};
use slicc_sim::{ObsConfig, RunRequest, Runner, SchedulerMode, SimConfig};
use slicc_trace::{instruction_reuse, FootprintStats, TraceScale, Workload};

/// How big the simulated runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentScale {
    /// 48 transactions, ~160-block segments: minutes for the full set.
    Small,
    /// 160 transactions, 288-block segments: the default evaluation
    /// scale (tens of minutes for the full set).
    Paper,
}

impl ExperimentScale {
    /// The corresponding trace scale.
    pub fn trace_scale(self) -> TraceScale {
        match self {
            ExperimentScale::Small => TraceScale::small(),
            ExperimentScale::Paper => TraceScale::paper_like(),
        }
    }
}

/// The reproducible experiments, one per paper table/figure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 1: L1 miss breakdown and speedup vs cache size.
    Fig1,
    /// Figure 2: replacement policies on the baseline L1-I.
    Fig2,
    /// Figure 3: instruction-block reuse classes.
    Fig3,
    /// Figure 7: fill-up_t × matched_t sweep.
    Fig7,
    /// Figure 8: dilution_t sweep.
    Fig8,
    /// Figure 9: bloom-filter accuracy vs size.
    Fig9,
    /// Figure 10: I-/D-MPKI per mode and workload.
    Fig10,
    /// Figure 11: speedup per mode and workload.
    Fig11,
    /// Table 1: workload parameters.
    Table1,
    /// Table 2: system parameters.
    Table2,
    /// Table 3: hardware storage cost.
    Table3,
    /// §5.8: broadcasts per kilo-instruction.
    Bpki,
    /// Beyond-paper ablations of this implementation's design choices.
    Ablations,
    /// Beyond-paper extensions: STEPS-style time multiplexing, the real
    /// PIF prefetcher, and the §5.5 TLB statistics.
    Extensions,
    /// Beyond-paper: SLICC benefit vs core count (collective capacity).
    Scaling,
}

impl Experiment {
    /// Every experiment, in paper order.
    pub const ALL: [Experiment; 15] = [
        Experiment::Table1,
        Experiment::Table2,
        Experiment::Fig1,
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig7,
        Experiment::Fig8,
        Experiment::Fig9,
        Experiment::Fig10,
        Experiment::Fig11,
        Experiment::Table3,
        Experiment::Bpki,
        Experiment::Ablations,
        Experiment::Extensions,
        Experiment::Scaling,
    ];

    /// Parses a CLI name like `fig10` or `table3`.
    pub fn parse(name: &str) -> Option<Experiment> {
        Some(match name.to_ascii_lowercase().as_str() {
            "fig1" => Experiment::Fig1,
            "fig2" => Experiment::Fig2,
            "fig3" => Experiment::Fig3,
            "fig7" => Experiment::Fig7,
            "fig8" => Experiment::Fig8,
            "fig9" => Experiment::Fig9,
            "fig10" => Experiment::Fig10,
            "fig11" => Experiment::Fig11,
            "table1" => Experiment::Table1,
            "table2" => Experiment::Table2,
            "table3" => Experiment::Table3,
            "bpki" => Experiment::Bpki,
            "ablations" => Experiment::Ablations,
            "extensions" => Experiment::Extensions,
            "scaling" => Experiment::Scaling,
            _ => return None,
        })
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Fig1 => "fig1",
            Experiment::Fig2 => "fig2",
            Experiment::Fig3 => "fig3",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Bpki => "bpki",
            Experiment::Ablations => "ablations",
            Experiment::Extensions => "extensions",
            Experiment::Scaling => "scaling",
        }
    }

    /// Runs the experiment on `runner`'s pool and returns a markdown
    /// section. Sharing one runner across experiments shares its run
    /// cache, so repeated points (every figure's baselines) simulate once.
    pub fn run(self, scale: ExperimentScale, runner: &Runner) -> String {
        match self {
            Experiment::Fig1 => fig1(scale, runner),
            Experiment::Fig2 => fig2(scale, runner),
            Experiment::Fig3 => fig3(scale),
            Experiment::Fig7 => fig7(scale, runner),
            Experiment::Fig8 => fig8(scale, runner),
            Experiment::Fig9 => fig9(scale, runner),
            Experiment::Fig10 => fig10(scale, runner),
            Experiment::Fig11 => fig11(scale, runner),
            Experiment::Table1 => table1(scale),
            Experiment::Table2 => table2(),
            Experiment::Table3 => table3(),
            Experiment::Bpki => bpki(scale, runner),
            Experiment::Ablations => ablations(scale, runner),
            Experiment::Extensions => extensions(scale, runner),
            Experiment::Scaling => scaling(scale, runner),
        }
    }
}

fn base_cfg() -> SimConfig {
    SimConfig::paper_baseline()
}

/// A request for `w` at this experiment scale on machine `cfg`. Every
/// figures point runs with metrics capture on, which is digest-invariant
/// (tests/golden.rs pins this).
fn req(w: Workload, scale: ExperimentScale, cfg: SimConfig) -> RunRequest {
    RunRequest::new(w, scale.trace_scale(), cfg).with_obs(ObsConfig::disabled().with_metrics())
}

/// The SLICC-SW machine most sweeps and ablations start from.
fn sw() -> SimConfig {
    SimConfig::paper_baseline().with_mode(SchedulerMode::SliccSw)
}

/// Figure 1: I-/D-MPKI (3C breakdown) and relative performance as a
/// function of L1 cache size.
fn fig1(scale: ExperimentScale, runner: &Runner) -> String {
    let sizes_kb = [16u64, 32, 64, 128, 256, 512];
    let workloads = [Workload::TpcC1, Workload::TpcE, Workload::MapReduce];

    // One batch for the whole figure: per (sweep, workload), the shared
    // baseline followed by the size sweep.
    let mut reqs = Vec::new();
    for sweep_i in [true, false] {
        for w in workloads {
            reqs.push(req(w, scale, base_cfg()));
            for &kb in &sizes_kb {
                let mut cfg = base_cfg().with_classification();
                if sweep_i {
                    cfg = cfg.with_l1i_size(kb * 1024);
                } else {
                    cfg = cfg.with_l1d_size(kb * 1024);
                }
                reqs.push(req(w, scale, cfg));
            }
        }
    }
    let mut results = runner.run_metrics(&reqs).into_iter();

    let mut out = String::from("## Figure 1 — L1 misses and performance vs cache size\n\n");
    for sweep_i in [true, false] {
        let which = if sweep_i { "L1-I" } else { "L1-D" };
        out.push_str(&format!("### Sweeping {which} (other L1 fixed at 32 KiB)\n\n"));
        let mut t = Table::new(vec![
            "workload",
            "size KiB",
            "latency",
            "conflict",
            "capacity",
            "compulsory",
            "MPKI",
            "speedup",
        ]);
        for w in workloads {
            let baseline = results.next().expect("baseline result");
            for &kb in &sizes_kb {
                let lat =
                    if sweep_i { base_cfg().with_l1i_size(kb * 1024).l1i_latency() } else { 3 };
                let m = results.next().expect("sweep result");
                let bd =
                    if sweep_i { m.i_breakdown } else { m.d_breakdown }.expect("classification on");
                let total = if sweep_i { m.i_mpki() } else { m.d_mpki() };
                let scale_mpki = |count: u64| 1000.0 * count as f64 / m.instructions.max(1) as f64;
                t.row(vec![
                    w.name().into(),
                    kb.to_string(),
                    lat.to_string(),
                    f1(scale_mpki(bd.conflict)),
                    f1(scale_mpki(bd.capacity)),
                    f1(scale_mpki(bd.compulsory)),
                    f1(total),
                    f2(m.speedup_over(&baseline)),
                ]);
            }
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 2: I-MPKI under each replacement policy at 32 KiB.
fn fig2(scale: ExperimentScale, runner: &Runner) -> String {
    let workloads = [Workload::TpcC1, Workload::TpcE, Workload::MapReduce];
    let reqs: Vec<RunRequest> = workloads
        .iter()
        .flat_map(|&w| PolicyKind::ALL.map(|policy| req(w, scale, base_cfg().with_policy(policy))))
        .collect();
    let mut results = runner.run_metrics(&reqs).into_iter();

    let mut out = String::from("## Figure 2 — replacement policies (32 KiB L1-I)\n\n");
    let mut t = Table::new(vec!["workload", "LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP", "DRRIP"]);
    for w in workloads {
        let mut cells = vec![w.name().to_owned()];
        for _ in PolicyKind::ALL {
            cells.push(f1(results.next().expect("policy result").i_mpki()));
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

/// Figure 3: accesses by instruction-block reuse class.
fn fig3(scale: ExperimentScale) -> String {
    let mut out = String::from("## Figure 3 — instruction accesses by block reuse\n\n");
    let mut t = Table::new(vec!["workload", "classification", "single", "few", "most"]);
    for w in [Workload::TpcC1, Workload::TpcE] {
        let spec = w.spec(scale.trace_scale());
        for per_type in [false, true] {
            let r = instruction_reuse(&spec, per_type);
            t.row(vec![
                w.name().into(),
                if per_type { "Per Transaction" } else { "Global" }.into(),
                pct(r.single),
                pct(r.few),
                pct(r.most),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 7: fill-up_t × matched_t (dilution_t = 0, idealized search).
fn fig7(scale: ExperimentScale, runner: &Runner) -> String {
    let workloads = [Workload::TpcC1, Workload::TpcE];
    let fills = [128u32, 256, 384, 512];
    let matches = [2u32, 4, 6, 8, 10];

    let mut reqs = Vec::new();
    for w in workloads {
        reqs.push(req(w, scale, base_cfg()));
        for fill in fills {
            for matched in matches {
                let params = SliccParams::paper_default()
                    .with_fill_up(fill)
                    .with_matched(matched)
                    .with_dilution(0);
                let cfg = SimConfig { exact_search: true, ..sw().with_slicc_params(params) };
                reqs.push(req(w, scale, cfg));
            }
        }
    }
    let mut results = runner.run_metrics(&reqs).into_iter();

    let mut out = String::from(
        "## Figure 7 — fill-up_t x matched_t sweep (dilution_t = 0, zero-overhead exact search)\n\n",
    );
    let mut t =
        Table::new(vec!["workload", "fill-up_t", "matched_t", "I-MPKI", "D-MPKI", "speedup"]);
    for w in workloads {
        let baseline = results.next().expect("baseline result");
        for fill in fills {
            for matched in matches {
                let m = results.next().expect("sweep result");
                t.row(vec![
                    w.name().into(),
                    fill.to_string(),
                    matched.to_string(),
                    f1(m.i_mpki()),
                    f1(m.d_mpki()),
                    f2(m.speedup_over(&baseline)),
                ]);
            }
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 8: dilution_t sweep at the best fill-up/matched setting.
fn fig8(scale: ExperimentScale, runner: &Runner) -> String {
    let workloads = [Workload::TpcC1, Workload::TpcE];
    let dilutions: Vec<u32> = (2..=30).step_by(2).collect();

    let mut reqs = Vec::new();
    for w in workloads {
        reqs.push(req(w, scale, base_cfg()));
        for &dilution in &dilutions {
            let cfg = sw().with_slicc_params(
                SliccParams::paper_default().with_fill_up(128).with_dilution(dilution),
            );
            reqs.push(req(w, scale, cfg));
        }
    }
    let mut results = runner.run_metrics(&reqs).into_iter();

    let mut out =
        String::from("## Figure 8 — dilution_t sweep (fill-up_t = 128, matched_t = 4)\n\n");
    let mut t = Table::new(vec!["workload", "dilution_t", "I-MPKI", "D-MPKI", "mig/KI", "speedup"]);
    for w in workloads {
        let baseline = results.next().expect("baseline result");
        for &dilution in &dilutions {
            let m = results.next().expect("sweep result");
            t.row(vec![
                w.name().into(),
                dilution.to_string(),
                f1(m.i_mpki()),
                f1(m.d_mpki()),
                f2(m.migrations_per_kilo_instruction()),
                f2(m.speedup_over(&baseline)),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 9: bloom-filter accuracy vs size under live migration.
fn fig9(scale: ExperimentScale, runner: &Runner) -> String {
    let workloads = [Workload::TpcC1, Workload::TpcE];
    let sizes = [512u64, 1024, 2048, 4096, 8192];

    let mut reqs = Vec::new();
    for w in workloads {
        for bits in sizes {
            let cfg = SimConfig { bloom_bits: bits, measure_bloom_accuracy: true, ..sw() };
            reqs.push(req(w, scale, cfg));
        }
    }
    let mut results = runner.run_metrics(&reqs).into_iter();

    let mut out = String::from("## Figure 9 — partial-address bloom filter accuracy\n\n");
    let mut t = Table::new(vec!["workload", "bits", "accuracy", "speedup vs 2K-bit"]);
    for w in workloads {
        let mut reference_cycles = None;
        for bits in sizes {
            let m = results.next().expect("sweep result");
            if bits == 2048 {
                reference_cycles = Some(m.cycles);
            }
            t.row(vec![
                w.name().into(),
                bits.to_string(),
                pct(m.bloom_accuracy.unwrap_or(1.0)),
                match reference_cycles {
                    Some(r) => f2(r as f64 / m.cycles as f64),
                    None => "-".into(),
                },
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str("\n(speedup column is relative to the 2K-bit configuration once measured)\n");
    out
}

/// Figure 10: L1 I- and D-MPKI per workload and mode.
fn fig10(scale: ExperimentScale, runner: &Runner) -> String {
    let reqs: Vec<RunRequest> = Workload::ALL
        .iter()
        .flat_map(|&w| SchedulerMode::ALL.map(|mode| req(w, scale, base_cfg().with_mode(mode))))
        .collect();
    let mut results = runner.run_metrics(&reqs).into_iter();

    let mut out = String::from("## Figure 10 — L1 I- and D-MPKI\n\n");
    let mut t = Table::new(vec!["workload", "mode", "I-MPKI", "D-MPKI", "mig/KI"]);
    for w in Workload::ALL {
        for mode in SchedulerMode::ALL {
            let m = results.next().expect("mode result");
            t.row(vec![
                w.name().into(),
                mode.name().into(),
                f1(m.i_mpki()),
                f1(m.d_mpki()),
                f2(m.migrations_per_kilo_instruction()),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// Figure 11's points: per workload, the six columns Base, Next-Line,
/// SLICC, SLICC-Pp, SLICC-SW and PIF, in that order.
fn fig11_requests(scale: ExperimentScale) -> Vec<RunRequest> {
    let variants = |w: Workload| -> Vec<RunRequest> {
        vec![
            req(w, scale, base_cfg()),
            req(w, scale, base_cfg().with_next_line(1)),
            req(w, scale, base_cfg().with_mode(SchedulerMode::Slicc)),
            req(w, scale, base_cfg().with_mode(SchedulerMode::SliccPp)),
            req(w, scale, base_cfg().with_mode(SchedulerMode::SliccSw)),
            req(w, scale, base_cfg().with_pif_model()),
        ]
    };
    Workload::ALL.iter().flat_map(|&w| variants(w)).collect()
}

/// Figure 11: overall performance per workload and configuration.
fn fig11(scale: ExperimentScale, runner: &Runner) -> String {
    let results = runner.run_metrics(&fig11_requests(scale));
    let mut chunks = results.chunks(6);

    let mut out = String::from("## Figure 11 — performance (speedup over baseline)\n\n");
    let mut out_chart = String::new();
    let mut t =
        Table::new(vec!["workload", "Base", "Next-Line", "SLICC", "SLICC-Pp", "SLICC-SW", "PIF"]);
    for w in Workload::ALL {
        let [base, nl, slicc, pp, sw, pif] = chunks.next().expect("six results per workload")
        else {
            unreachable!("chunk size is six");
        };
        t.row(vec![
            w.name().into(),
            "1.00".into(),
            f2(nl.speedup_over(base)),
            f2(slicc.speedup_over(base)),
            f2(pp.speedup_over(base)),
            f2(sw.speedup_over(base)),
            f2(pif.speedup_over(base)),
        ]);
        if w == Workload::TpcC1 {
            out_chart = bar_chart(
                &[
                    ("Base", 1.0),
                    ("Next-Line", nl.speedup_over(base)),
                    ("SLICC", slicc.speedup_over(base)),
                    ("SLICC-Pp", pp.speedup_over(base)),
                    ("SLICC-SW", sw.speedup_over(base)),
                    ("PIF", pif.speedup_over(base)),
                ],
                48,
            );
        }
    }
    out.push_str(&t.render());
    out.push_str("\nTPC-C-1 speedups:\n\n```\n");
    out.push_str(&out_chart);
    out.push_str("```\n");
    out
}

/// Table 1: workload parameters, plus measured footprints.
fn table1(scale: ExperimentScale) -> String {
    let mut out = String::from("## Table 1 — workload parameters\n\n");
    let mut t = Table::new(vec![
        "workload",
        "types",
        "tasks",
        "segments",
        "code KiB",
        "mean thread I-KiB",
        "instructions",
    ]);
    for w in Workload::ALL {
        let spec = w.spec(scale.trace_scale());
        let fp = FootprintStats::measure(&spec);
        t.row(vec![
            w.name().into(),
            spec.types.len().to_string(),
            spec.num_tasks.to_string(),
            spec.pool.len().to_string(),
            (spec.pool.total_bytes() / 1024).to_string(),
            f1(fp.mean_instruction_bytes / 1024.0),
            fp.total_instructions.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Table 2: system parameters (the Table 2 machine).
fn table2() -> String {
    let c = SimConfig::paper_baseline();
    let mut out = String::from("## Table 2 — system parameters\n\n");
    let mut t = Table::new(vec!["parameter", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("cores", format!("{} ({}x{} torus)", c.cores, c.noc_cols, c.noc_rows)),
        (
            "L1-I",
            format!("{} KiB, {}-way, {}-cycle", c.l1i_size / 1024, c.l1i_assoc, c.l1i_latency()),
        ),
        ("L1-D", format!("{} KiB, {}-way", c.l1d_size / 1024, c.l1d_assoc)),
        (
            "L2",
            format!(
                "{} MiB, {}-way, {} banks, {}-cycle",
                c.l2_size / (1024 * 1024),
                c.l2_assoc,
                c.l2_banks,
                c.l2_hit_latency
            ),
        ),
        ("DRAM", "DDR3-1600, 2 channels, 8 banks/channel, open page".into()),
        ("SLICC fill-up_t", c.slicc.fill_up_t.to_string()),
        ("SLICC matched_t", c.slicc.matched_t.to_string()),
        ("SLICC dilution_t", c.slicc.dilution_t.to_string()),
        ("bloom signature", format!("{} bits", c.bloom_bits)),
        ("thread pool", format!("{}N", c.pool_multiplier)),
        ("thread queue", format!("{} entries", c.thread_queue_capacity)),
    ];
    for (k, v) in rows {
        t.row(vec![k.into(), v]);
    }
    out.push_str(&t.render());
    out
}

/// Table 3: SLICC hardware storage cost.
fn table3() -> String {
    let b = HwCostConfig::paper_table3().breakdown();
    let mut out = String::from("## Table 3 — hardware component storage costs\n\n");
    let mut t = Table::new(vec!["component", "bits", "bytes"]);
    t.row(vec!["Missed-Tag Queue (MTQ)".into(), b.mtq_bits.to_string(), String::new()]);
    t.row(vec!["Miss Shift-Vector (MSV)".into(), b.msv_bits.to_string(), String::new()]);
    t.row(vec!["Cache Signature (bloom)".into(), b.bloom_bits.to_string(), String::new()]);
    t.row(vec![
        "Cache monitor subtotal".into(),
        b.monitor_bits.to_string(),
        b.monitor_bits.div_ceil(8).to_string(),
    ]);
    t.row(vec![
        "Thread queue".into(),
        b.thread_queue_bits.to_string(),
        (b.thread_queue_bits / 8).to_string(),
    ]);
    t.row(vec![
        "Team management table".into(),
        b.team_table_bits.to_string(),
        (b.team_table_bits / 8).to_string(),
    ]);
    t.row(vec!["Grand total".into(), b.total_bits.to_string(), b.total_bytes().to_string()]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nRelative to PIF's ~{} KiB per core: {}\n",
        PIF_STORAGE_BYTES / 1024,
        pct(b.relative_to(PIF_STORAGE_BYTES))
    ));
    out
}

/// §5.8: broadcast frequency of the remote cache segment search.
fn bpki(scale: ExperimentScale, runner: &Runner) -> String {
    let workloads = [Workload::TpcC1, Workload::TpcE];
    let modes = [SchedulerMode::Slicc, SchedulerMode::SliccPp, SchedulerMode::SliccSw];
    let reqs: Vec<RunRequest> = workloads
        .iter()
        .flat_map(|&w| modes.map(|mode| req(w, scale, base_cfg().with_mode(mode))))
        .collect();
    let mut results = runner.run_metrics(&reqs).into_iter();

    let mut out =
        String::from("## Section 5.8 — remote search broadcasts per kilo-instruction\n\n");
    let mut t = Table::new(vec!["workload", "SLICC", "SLICC-Pp", "SLICC-SW"]);
    for w in workloads {
        let mut cells = vec![w.name().to_owned()];
        for _ in modes {
            cells.push(f2(results.next().expect("mode result").bpki()));
        }
        t.row(cells);
    }
    out.push_str(&t.render());
    out
}

/// Ablations of this implementation's own design choices (beyond the
/// paper's figures; see DESIGN.md §4).
fn ablations(scale: ExperimentScale, runner: &Runner) -> String {
    let w = Workload::TpcC1;
    let mut variants: Vec<(String, SimConfig)> = vec![("default".into(), sw())];
    // Search mechanism: bloom signature vs idealized exact contents.
    variants.push(("exact search (no bloom)".into(), SimConfig { exact_search: true, ..sw() }));
    // Migration context size.
    for blocks in [0u32, 16, 64] {
        let mut cfg = sw();
        cfg.migration.context_blocks = blocks;
        variants.push((format!("context = {blocks} blocks"), cfg));
    }
    // Work stealing off (strictly local queues).
    variants.push(("work stealing off".into(), SimConfig { work_stealing: false, ..sw() }));
    // Migration target congestion bound.
    for ql in [1usize, 2, 8] {
        variants
            .push((format!("queue limit = {ql}"), SimConfig { migration_queue_limit: ql, ..sw() }));
    }
    // Thread pool depth.
    for pool in [2u32, 3, 6] {
        variants.push((format!("pool = {pool}N"), SimConfig { pool_multiplier: pool, ..sw() }));
    }

    let mut reqs = vec![req(w, scale, base_cfg())];
    reqs.extend(variants.iter().map(|(_, cfg)| req(w, scale, cfg.clone())));
    let mut results = runner.run_metrics(&reqs).into_iter();
    let baseline = results.next().expect("baseline result");

    let mut out = String::from("## Ablations (TPC-C-1, SLICC-SW unless noted)\n\n");
    let mut t = Table::new(vec!["variant", "I-MPKI", "D-MPKI", "mig/KI", "speedup"]);
    for (label, _) in &variants {
        let m = results.next().expect("variant result");
        t.row(vec![
            label.clone(),
            f1(m.i_mpki()),
            f1(m.d_mpki()),
            f2(m.migrations_per_kilo_instruction()),
            f2(m.speedup_over(&baseline)),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Beyond-paper extensions: the §6 comparisons implemented for real.
fn extensions(scale: ExperimentScale, runner: &Runner) -> String {
    let workloads = [Workload::TpcC1, Workload::TpcE];
    let mut out = String::from("## Extensions (beyond the paper's figures)\n\n");

    out.push_str("### STEPS-style time multiplexing vs SLICC (space vs time, §6)\n\n");
    let steps_modes = [SchedulerMode::Steps, SchedulerMode::SliccSw];
    let mut reqs = Vec::new();
    for w in workloads {
        reqs.push(req(w, scale, base_cfg()));
        reqs.extend(steps_modes.map(|mode| req(w, scale, base_cfg().with_mode(mode))));
    }
    let mut results = runner.run_metrics(&reqs).into_iter();
    let mut t = Table::new(vec![
        "workload",
        "mode",
        "I-MPKI",
        "D-MPKI",
        "switches or migrations",
        "speedup",
    ]);
    for w in workloads {
        let base = results.next().expect("baseline result");
        for mode in steps_modes {
            let m = results.next().expect("mode result");
            t.row(vec![
                w.name().into(),
                mode.name().into(),
                f1(m.i_mpki()),
                f1(m.d_mpki()),
                (m.context_switches + m.migrations).to_string(),
                f2(m.speedup_over(&base)),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nSTEPS reuses instruction chunks across same-core teammates (deepest\n\
         I-MPKI cut) but concentrates each team's data on one L1-D and adds\n\
         switch overhead; SLICC wins end-to-end by using the space domain.\n\n",
    );

    out.push_str("### The real PIF prefetcher vs the paper's upper-bound model\n\n");
    let mut reqs = Vec::new();
    for w in workloads {
        reqs.push(req(w, scale, base_cfg()));
        reqs.push(req(w, scale, base_cfg().with_real_pif()));
        reqs.push(req(w, scale, base_cfg().with_pif_model()));
        reqs.push(req(w, scale, base_cfg().with_mode(SchedulerMode::SliccSw)));
    }
    let results = runner.run_metrics(&reqs);
    let mut chunks = results.chunks(4);
    let mut t = Table::new(vec!["workload", "config", "I-MPKI", "speedup"]);
    for w in workloads {
        let [base, real, bound, sw] = chunks.next().expect("four results per workload") else {
            unreachable!("chunk size is four");
        };
        t.row(vec![
            w.name().into(),
            "PIF (real, ~40 KiB)".into(),
            f1(real.i_mpki()),
            f2(real.speedup_over(base)),
        ]);
        t.row(vec![
            w.name().into(),
            "PIF (paper's bound)".into(),
            f1(bound.i_mpki()),
            f2(bound.speedup_over(base)),
        ]);
        t.row(vec![
            w.name().into(),
            "SLICC-SW (966 B)".into(),
            f1(sw.i_mpki()),
            f2(sw.speedup_over(base)),
        ]);
    }
    out.push_str(&t.render());

    out.push_str("\n### TLB effects (§5.5)\n\n");
    let tlb_modes = [SchedulerMode::Baseline, SchedulerMode::Slicc, SchedulerMode::SliccSw];
    let reqs: Vec<RunRequest> = workloads
        .iter()
        .flat_map(|&w| tlb_modes.map(|mode| req(w, scale, base_cfg().with_mode(mode))))
        .collect();
    let results = runner.run_metrics(&reqs);
    let mut chunks = results.chunks(3);
    let mut t = Table::new(vec!["workload", "mode", "I-TLB MPKI", "D-TLB MPKI", "D-TLB vs base"]);
    for w in workloads {
        let chunk = chunks.next().expect("three results per workload");
        let base = &chunk[0];
        for (mode, m) in tlb_modes.iter().zip(chunk) {
            t.row(vec![
                w.name().into(),
                mode.name().into(),
                f2(m.i_tlb_mpki()),
                f2(m.d_tlb_mpki()),
                pct(m.d_tlb_mpki() / base.d_tlb_mpki() - 1.0),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// Beyond-paper: how the SLICC benefit scales with core count (the
/// collective's aggregate capacity).
fn scaling(scale: ExperimentScale, runner: &Runner) -> String {
    let shapes = [(4usize, 2u32, 2u32), (8, 4, 2), (16, 4, 4), (32, 8, 4)];
    let mut reqs = Vec::new();
    for (cores, cols, rows) in shapes {
        let machine = SimConfig {
            cores,
            noc_cols: cols,
            noc_rows: rows,
            l2_size: cores as u64 * 1024 * 1024,
            l2_banks: cores,
            ..SimConfig::paper_baseline()
        };
        reqs.push(req(Workload::TpcC1, scale, machine.clone()));
        reqs.push(req(Workload::TpcC1, scale, machine.with_mode(SchedulerMode::SliccSw)));
    }
    let results = runner.run_metrics(&reqs);
    let mut chunks = results.chunks(2);

    let mut out = String::from("## Scaling — SLICC benefit vs core count (TPC-C-1)\n\n");
    let mut t = Table::new(vec![
        "cores",
        "aggregate L1-I",
        "base I-MPKI",
        "SW I-MPKI",
        "SW speedup",
        "txn latency x",
    ]);
    for (cores, _, _) in shapes {
        let [base, sw] = chunks.next().expect("two results per shape") else {
            unreachable!("chunk size is two");
        };
        t.row(vec![
            cores.to_string(),
            format!("{} KiB", cores * 32),
            f1(base.i_mpki()),
            f1(sw.i_mpki()),
            f2(sw.speedup_over(base)),
            f2(sw.mean_txn_latency / base.mean_txn_latency.max(1.0)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe collective needs enough aggregate capacity for the footprint: with\n\
         4 cores (128 KiB) migration buys little; the benefit peaks once the\n\
         aggregate covers the concurrent footprint (16 cores here) and flattens\n\
         or dips beyond it, where extra spread adds traffic without extra reuse\n\
         - the capacity argument of §2.1.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::parse(e.name()), Some(e));
        }
        assert_eq!(Experiment::parse("fig99"), None);
    }

    #[test]
    fn fig11_points_with_distinct_keys_have_distinct_labels() {
        let reqs = fig11_requests(ExperimentScale::Small);
        for (i, a) in reqs.iter().enumerate() {
            for b in &reqs[i + 1..] {
                if a.stable_key() != b.stable_key() {
                    assert_ne!(a.label(), b.label(), "progress events could not tell these apart");
                }
            }
        }
        let tpcc: Vec<String> = reqs[..6].iter().map(RunRequest::label).collect();
        assert_eq!(tpcc[0], "TPC-C-1 [Base] tasks=48 seed=20940");
        assert!(tpcc[1].contains("[Base next-line=1]"), "got {}", tpcc[1]);
        assert!(tpcc[5].contains("[Base l1i=512KiB/3cyc]"), "got {}", tpcc[5]);
    }

    #[test]
    fn table_experiments_render() {
        // The two config-only experiments run instantly.
        let runner = Runner::new(1);
        let t2 = Experiment::Table2.run(ExperimentScale::Small, &runner);
        assert!(t2.contains("Table 2"));
        assert!(t2.contains("torus"));
        let t3 = Experiment::Table3.run(ExperimentScale::Small, &runner);
        assert!(t3.contains("966"));
        assert!(t3.contains("2.4%"));
    }
}
