//! Micro-benchmarks of the hardware structures SLICC adds.
//!
//! These measure the *simulator's* cost per modelled-hardware operation —
//! the numbers that determine how fast the experiment harness runs. The
//! modelled hardware itself is costed in Table 3.
//!
//! Run with `cargo bench --bench structures [-- FILTER]`.

#![forbid(unsafe_code)]

use slicc_bench::Harness;
use slicc_cache::{AccessKind, BloomSignature, Cache, PolicyKind, ThreeCClassifier};
use slicc_common::{BlockAddr, CacheGeometry, CoreId, SplitMix64};
use slicc_core::{CoreMask, SliccAgent, SliccParams};
use slicc_cpu::Tlb;
use slicc_mem::{Dram, DramConfig};
use slicc_noc::Torus;
use slicc_trace::{decode_trace, encode_trace, TraceScale, Workload};

fn bench_cache(h: &mut Harness) {
    let geom = CacheGeometry::new(32 * 1024, 8, 64);
    let mut group = h.group("cache");
    group.throughput(1);
    for policy in [PolicyKind::Lru, PolicyKind::Drrip] {
        let mut cache = Cache::new(geom, policy, 1);
        let mut rng = SplitMix64::new(7);
        group.bench(&format!("access/{policy}"), || {
            let block = BlockAddr::new(rng.next_below(4096));
            cache.access(block, AccessKind::Read)
        });
    }
}

fn bench_bloom(h: &mut Harness) {
    let geom = CacheGeometry::new(32 * 1024, 8, 64);
    let mut sig = BloomSignature::new(2048, geom);
    let mut rng = SplitMix64::new(9);
    h.group("bloom").throughput(1).bench("insert+query", || {
        let block = BlockAddr::new(rng.next_below(1 << 20));
        sig.insert(block);
        sig.maybe_contains(block)
    });
}

fn bench_agent(h: &mut Harness) {
    let mut agent = SliccAgent::new(CoreId::new(0), SliccParams::calibrated());
    let mut rng = SplitMix64::new(3);
    let mask = CoreMask::from_bits(0b1010);
    h.group("agent").throughput(1).bench("on_fetch+advice", || {
        let hit = rng.chance(0.95);
        agent.on_fetch(hit, (!hit).then_some(mask));
        agent.advice()
    });
}

fn bench_classifier(h: &mut Harness) {
    let mut cls = ThreeCClassifier::new(512);
    let mut rng = SplitMix64::new(5);
    h.group("classifier").throughput(1).bench("3c_observe", || {
        cls.observe(BlockAddr::new(rng.next_below(2048)))
    });
}

fn bench_dram(h: &mut Harness) {
    let mut dram = Dram::new(DramConfig::paper_ddr3_1600());
    let mut rng = SplitMix64::new(11);
    let mut now = 0;
    h.group("dram").throughput(1).bench("access", || {
        let done = dram.access(BlockAddr::new(rng.next_below(1 << 24)), now, rng.chance(0.45));
        now = done;
        done
    });
}

fn bench_noc(h: &mut Harness) {
    let noc = Torus::paper_4x4();
    let mut rng = SplitMix64::new(13);
    h.group("noc").throughput(1).bench("round_trip", || {
        let a = CoreId::new(rng.next_below(16) as u16);
        let z = CoreId::new(rng.next_below(16) as u16);
        noc.round_trip(a, z)
    });
}

fn bench_tlb(h: &mut Harness) {
    let mut tlb = Tlb::new(64);
    let mut rng = SplitMix64::new(15);
    h.group("tlb").throughput(1).bench("access", || {
        tlb.access(slicc_common::Addr::new(rng.next_below(1 << 30)))
    });
}

fn bench_codec(h: &mut Harness) {
    use slicc_common::ThreadId;
    let spec = Workload::TpcC1.spec(TraceScale::tiny());
    let records: Vec<_> = spec.thread_trace(ThreadId::new(0)).collect();
    let ty = spec.thread_type(ThreadId::new(0));
    let mut encoded = Vec::new();
    encode_trace(&mut encoded, ThreadId::new(0), ty, records.iter().copied()).unwrap();
    let mut group = h.group("codec");
    group.throughput(records.len() as u64);
    group.bench("encode", || {
        let mut buf = Vec::with_capacity(encoded.len());
        encode_trace(&mut buf, ThreadId::new(0), ty, records.iter().copied()).unwrap();
        buf
    });
    group.bench("decode", || decode_trace(&mut encoded.as_slice()).unwrap());
}

fn main() {
    let mut h = Harness::from_args();
    bench_cache(&mut h);
    bench_bloom(&mut h);
    bench_agent(&mut h);
    bench_classifier(&mut h);
    bench_dram(&mut h);
    bench_noc(&mut h);
    bench_tlb(&mut h);
    bench_codec(&mut h);
    h.finish();
}
