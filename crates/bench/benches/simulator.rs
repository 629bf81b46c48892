//! Benchmarks of whole-system simulation throughput: how many simulated
//! instructions per second the engine sustains per mode, on a miniature
//! workload. These are the numbers that size the figure harness's runtime.
//!
//! Run with `cargo bench --bench simulator [-- FILTER]`.

#![forbid(unsafe_code)]

use slicc_bench::Harness;
use slicc_common::ThreadId;
use slicc_sim::{RunRequest, SchedulerMode, SimConfig};
use slicc_trace::{TraceScale, Workload};

fn bench_trace_generation(h: &mut Harness) {
    let spec = Workload::TpcC1.spec(TraceScale::tiny());
    let len = spec.thread_trace(ThreadId::new(0)).count() as u64;
    h.group("trace").throughput(len).bench("generate_thread", || {
        spec.thread_trace(ThreadId::new(0)).count()
    });
}

fn bench_engine(h: &mut Harness) {
    let spec = Workload::TpcC1.spec(TraceScale::tiny());
    let instructions: u64 = spec.threads().map(|t| spec.thread_trace(t).count() as u64).sum();
    let mut group = h.group("engine");
    group.throughput(instructions);
    for mode in SchedulerMode::ALL {
        let req =
            RunRequest::new(Workload::TpcC1, TraceScale::tiny(), SimConfig::tiny_test().with_mode(mode));
        group.bench(&format!("run/{}", mode.name()), || req.execute().metrics);
    }
}

fn bench_engine_with_classification(h: &mut Harness) {
    let req = RunRequest::new(
        Workload::TpcC1,
        TraceScale::tiny(),
        SimConfig::tiny_test().with_classification(),
    );
    h.group("engine").throughput(1).bench("run/classified", || req.execute().metrics);
}

fn main() {
    let mut h = Harness::from_args();
    bench_trace_generation(&mut h);
    bench_engine(&mut h);
    bench_engine_with_classification(&mut h);
    h.finish();
}
