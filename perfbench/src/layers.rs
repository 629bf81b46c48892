//! Per-layer replays for the traced run: one workload stream is decoded
//! with `ThreadTrace::fill`, then pushed through each hardware structure
//! on its own (L1-I/L1-D caches, TLBs, bloom signatures, SLICC agents,
//! the NUCA L2, DRAM, the torus) and through the assembled `System`.
//! Each replay loop is one span; a layer's cost is the loop's self time
//! divided by the operations it performed.
//!
//! Threads map to cores round-robin and interleave in 256-record chunks,
//! the engine's decode batch. The replays are host-time probes, not
//! simulations: no timing model advances, so hit ratios describe this
//! stream through these structures, not a simulated run.

use crate::spans::{SpanId, Tracer};
use crate::Metric;
use slicc_cache::{AccessKind, BloomSignature, Cache};
use slicc_common::{BlockAddr, CacheGeometry, CoreId, CoreMask};
use slicc_core::{MigrationAdvice, SliccAgent};
use slicc_cpu::Tlb;
use slicc_mem::{Dram, L2AccessKind, L2Nuca};
use slicc_noc::Torus;
use slicc_sim::{SimConfig, System};
use slicc_trace::{Record, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

/// Records kept for the replays (the decode pass still covers every
/// thread in full).
const REPLAY_RECORDS: usize = 1 << 20;
const CHUNK: usize = 256;

struct Access {
    core: CoreId,
    rec: Record,
}

fn block_of(addr: slicc_common::Addr) -> BlockAddr {
    addr.block(64)
}

fn ns_per(tracer: &Tracer, name: &str, ops: usize) -> f64 {
    tracer.self_ns(name) as f64 / ops.max(1) as f64
}

/// Decodes every thread of `spec` and keeps the first
/// [`REPLAY_RECORDS`] of the interleaved stream.
fn decode(
    spec: &WorkloadSpec,
    cores: usize,
    tracer: &mut Tracer,
    parent: SpanId,
) -> (Vec<Access>, f64) {
    let mut traces: Vec<_> = spec.threads().map(|t| spec.thread_trace(t)).collect();
    let mut stream = Vec::with_capacity(REPLAY_RECORDS);
    let mut buf = Vec::with_capacity(CHUNK);
    let mut decoded = 0usize;
    let mut live: Vec<usize> = (0..traces.len()).collect();
    let span = tracer.begin("trace.fill", parent, 0);
    let mut fill_ns = 0u128;
    while !live.is_empty() {
        live.retain(|&t| {
            buf.clear();
            let start = Instant::now();
            let n = traces[t].fill(&mut buf, CHUNK);
            fill_ns += start.elapsed().as_nanos();
            decoded += n;
            let core = CoreId::new((t % cores) as u16);
            for &rec in buf.iter().take(REPLAY_RECORDS - stream.len()) {
                stream.push(Access { core, rec });
            }
            n == CHUNK
        });
    }
    tracer.end(span);
    (stream, fill_ns as f64 / decoded.max(1) as f64)
}

/// Replays `spec`'s stream through every layer on machine `cfg`.
pub fn replay(spec: &WorkloadSpec, cfg: &SimConfig, tracer: &mut Tracer) -> Vec<Metric> {
    let root = tracer.begin("replay", SpanId::NONE, 0);
    let cores = cfg.cores;
    let (stream, ns_per_record) = decode(spec, cores, tracer, root);
    let mut out = vec![Metric::new("trace.ns_per_record", ns_per_record, "ns")];

    // L1-I: hit/miss and the victim of every fetch.
    let l1i_geom = cfg.l1i_geometry();
    let mut l1i: Vec<Cache> = (0..cores)
        .map(|i| Cache::new(l1i_geom, cfg.l1_policy, cfg.seed ^ (i as u64) << 1))
        .collect();
    let mut i_hit = Vec::with_capacity(stream.len());
    let mut i_misses: Vec<(usize, Option<BlockAddr>)> = Vec::new();
    let span = tracer.begin("cache.l1i", root, 0);
    for (idx, a) in stream.iter().enumerate() {
        let r = l1i[a.core.index()].access(block_of(a.rec.pc), AccessKind::Read);
        i_hit.push(r.is_hit());
        if r.is_miss() {
            i_misses.push((idx, r.evicted().map(|e| e.block)));
        }
    }
    tracer.end(span);
    out.push(Metric::new(
        "cache.l1i_ns",
        ns_per(tracer, "cache.l1i", stream.len()),
        "ns",
    ));
    out.push(Metric::new(
        "cache.l1i_hit_ratio",
        1.0 - i_misses.len() as f64 / stream.len().max(1) as f64,
        "ratio",
    ));

    // L1-D over the loads and stores.
    let l1d_geom = cfg.l1d_geometry();
    let mut l1d: Vec<Cache> = (0..cores)
        .map(|i| Cache::new(l1d_geom, cfg.l1_policy, cfg.seed ^ (i as u64) << 1 ^ 1))
        .collect();
    let mut d_ops = 0usize;
    let mut d_misses: Vec<usize> = Vec::new();
    let span = tracer.begin("cache.l1d", root, 0);
    for (idx, a) in stream.iter().enumerate() {
        if let Some(d) = a.rec.data {
            let kind = if d.is_store {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            d_ops += 1;
            if l1d[a.core.index()].access(block_of(d.addr), kind).is_miss() {
                d_misses.push(idx);
            }
        }
    }
    tracer.end(span);
    out.push(Metric::new(
        "cache.l1d_ns",
        ns_per(tracer, "cache.l1d", d_ops),
        "ns",
    ));
    out.push(Metric::new(
        "cache.l1d_hit_ratio",
        1.0 - d_misses.len() as f64 / d_ops.max(1) as f64,
        "ratio",
    ));

    // TLBs: every fetch through the I-TLB, every data access through the D-TLB.
    let mut itlb: Vec<Tlb> = (0..cores)
        .map(|_| Tlb::with_page_bytes(cfg.itlb_entries, cfg.itlb_page_bytes))
        .collect();
    let mut dtlb: Vec<Tlb> = (0..cores).map(|_| Tlb::new(cfg.dtlb_entries)).collect();
    let span = tracer.begin("cpu.tlb", root, 0);
    for a in &stream {
        let c = a.core.index();
        black_box(itlb[c].access(block_of(a.rec.pc).base_addr(64)));
        if let Some(d) = a.rec.data {
            black_box(dtlb[c].access(block_of(d.addr).base_addr(64)));
        }
    }
    tracer.end(span);
    out.push(Metric::new(
        "cpu.tlb_ns",
        ns_per(tracer, "cpu.tlb", stream.len() + d_ops),
        "ns",
    ));

    // Bloom signatures: on each L1-I miss, drop the victim, add the new
    // block, and query every other core (the remote segment search).
    let sig_bits = cfg.bloom_bits.max(l1i_geom.num_sets());
    let mut blooms: Vec<BloomSignature> = (0..cores)
        .map(|_| BloomSignature::new(sig_bits, l1i_geom))
        .collect();
    let mut sharers = Vec::with_capacity(i_misses.len());
    let mut bloom_ops = 0usize;
    let span = tracer.begin("cache.bloom", root, 0);
    for &(idx, victim) in &i_misses {
        let a = &stream[idx];
        let block = block_of(a.rec.pc);
        let own = a.core.index();
        if let Some(v) = victim {
            blooms[own].remove(v, std::iter::empty());
            bloom_ops += 1;
        }
        blooms[own].insert(block);
        let mut mask = CoreMask::empty();
        for (i, b) in blooms.iter().enumerate() {
            if i != own && b.maybe_contains(block) {
                mask.insert(CoreId::new(i as u16));
            }
        }
        sharers.push(mask);
        bloom_ops += cores;
    }
    tracer.end(span);
    out.push(Metric::new(
        "cache.bloom_ns",
        ns_per(tracer, "cache.bloom", bloom_ops),
        "ns",
    ));

    // SLICC agents over the fetch hit/miss stream, with the searched
    // sharer sets; a thread that is advised to migrate departs.
    let mut agents: Vec<SliccAgent> = (0..cores)
        .map(|i| SliccAgent::new(CoreId::new(i as u16), cfg.slicc))
        .collect();
    let mut migrate = 0usize;
    let mut miss_i = 0usize;
    let span = tracer.begin("core.agent", root, 0);
    for (a, &hit) in stream.iter().zip(&i_hit) {
        let agent = &mut agents[a.core.index()];
        let remote = if hit {
            None
        } else {
            miss_i += 1;
            agent.wants_remote_search().then(|| sharers[miss_i - 1])
        };
        agent.on_fetch(hit, remote);
        if let MigrationAdvice::Migrate(_) = agent.advice() {
            migrate += 1;
            agent.on_thread_departed();
        }
    }
    tracer.end(span);
    out.push(Metric::new(
        "core.agent_ns",
        ns_per(tracer, "core.agent", stream.len()),
        "ns",
    ));
    out.push(Metric::new(
        "core.advice_ratio",
        migrate as f64 / stream.len().max(1) as f64,
        "ratio",
    ));

    // L2 over the L1 misses in stream order.
    let mut l1_misses: Vec<(CoreId, BlockAddr, L2AccessKind)> = Vec::new();
    let (mut ii, mut di) = (0, 0);
    while ii < i_misses.len() || di < d_misses.len() {
        let take_i =
            di >= d_misses.len() || (ii < i_misses.len() && i_misses[ii].0 <= d_misses[di]);
        if take_i {
            let a = &stream[i_misses[ii].0];
            l1_misses.push((a.core, block_of(a.rec.pc), L2AccessKind::IFetch));
            ii += 1;
        } else {
            let a = &stream[d_misses[di]];
            let d = a.rec.data.expect("a data miss has a data access");
            let kind = if d.is_store {
                L2AccessKind::DataWrite
            } else {
                L2AccessKind::DataRead
            };
            l1_misses.push((a.core, block_of(d.addr), kind));
            di += 1;
        }
    }
    let mut l2 = L2Nuca::new(
        CacheGeometry::new(cfg.l2_size, cfg.l2_assoc, 64),
        cfg.l2_banks,
        cfg.l2_hit_latency,
        cfg.seed ^ 0x12,
    );
    let mut l2_misses: Vec<(BlockAddr, bool)> = Vec::new();
    let span = tracer.begin("mem.l2", root, 0);
    for &(core, block, kind) in &l1_misses {
        if !l2.access(core, block, kind).hit {
            l2_misses.push((block, kind == L2AccessKind::DataWrite));
        }
    }
    tracer.end(span);
    out.push(Metric::new(
        "mem.l2_ns",
        ns_per(tracer, "mem.l2", l1_misses.len()),
        "ns",
    ));
    out.push(Metric::new(
        "mem.l2_hit_ratio",
        1.0 - l2_misses.len() as f64 / l1_misses.len().max(1) as f64,
        "ratio",
    ));

    // DRAM over the L2 misses, one request per 100 cycles.
    let mut dram = Dram::new(cfg.dram);
    let span = tracer.begin("mem.dram", root, 0);
    for (i, &(block, is_write)) in l2_misses.iter().enumerate() {
        black_box(dram.access(block, i as u64 * 100, is_write));
    }
    tracer.end(span);
    out.push(Metric::new(
        "mem.dram_ns",
        ns_per(tracer, "mem.dram", l2_misses.len()),
        "ns",
    ));

    // Torus latency from each requester to its block's home bank.
    let noc = Torus::new(cfg.noc_cols, cfg.noc_rows);
    let hops: Vec<(CoreId, CoreId)> = l1_misses
        .iter()
        .map(|&(c, b, _)| (c, noc.bank_home(l2.bank_of(b))))
        .collect();
    let span = tracer.begin("noc.latency", root, 0);
    let mut total = 0u64;
    for &(from, to) in &hops {
        total = total.wrapping_add(noc.latency(black_box(from), to));
    }
    black_box(total);
    tracer.end(span);
    out.push(Metric::new(
        "noc.latency_ns",
        ns_per(tracer, "noc.latency", hops.len()),
        "ns",
    ));

    // The assembled memory system: each entry point on its own machine.
    let mut sys_i = System::try_new(cfg).expect("the benchmark's machine is valid");
    let span = tracer.begin("system.ifetch", root, 0);
    for a in &stream {
        black_box(sys_i.ifetch(a.core, block_of(a.rec.pc)));
    }
    tracer.end(span);
    out.push(Metric::new(
        "system.ifetch_ns",
        ns_per(tracer, "system.ifetch", stream.len()),
        "ns",
    ));

    let mut sys_d = System::try_new(cfg).expect("the benchmark's machine is valid");
    let span = tracer.begin("system.data", root, 0);
    for a in &stream {
        if let Some(d) = a.rec.data {
            black_box(sys_d.data_access(a.core, block_of(d.addr), d.is_store));
        }
    }
    tracer.end(span);
    out.push(Metric::new(
        "system.data_ns",
        ns_per(tracer, "system.data", d_ops),
        "ns",
    ));

    let span = tracer.begin("system.search", root, 0);
    for &(idx, _) in &i_misses {
        let a = &stream[idx];
        black_box(sys_i.remote_search(a.core, block_of(a.rec.pc)));
    }
    tracer.end(span);
    out.push(Metric::new(
        "system.search_ns",
        ns_per(tracer, "system.search", i_misses.len()),
        "ns",
    ));

    tracer.end(root);
    out
}
