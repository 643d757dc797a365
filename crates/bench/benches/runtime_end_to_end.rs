//! Criterion benchmarks of the runtime layers: the functional
//! multi-threaded runtime on the virtual device, and the virtual-time
//! end-to-end simulation that regenerates Figs. 4/6.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use spn_core::NipsBenchmark;
use spn_runtime::perf::{simulate, PerfConfig};
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, SpnRuntime, VirtualDevice};
use std::sync::Arc;

fn make_device(pes: u32) -> (Arc<VirtualDevice>, NipsBenchmark) {
    let bench = NipsBenchmark::Nips10;
    (
        Arc::new(VirtualDevice::paper(&bench.build_spn(), pes)),
        bench,
    )
}

fn benches(c: &mut Criterion) {
    let (device, bench) = make_device(4);
    let config = RuntimeConfig::builder()
        .block_samples(4096)
        .threads_per_pe(2)
        .build()
        .expect("valid config");
    let rt = SpnRuntime::new(Arc::clone(&device), config);
    let data = bench.dataset(65_536, 3);

    let mut g = c.benchmark_group("runtime");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_millis(500));
    g.throughput(Throughput::Elements(data.num_samples() as u64));
    g.bench_function("functional_infer_4pe", |b| {
        b.iter(|| {
            black_box(
                rt.run(black_box(&data), JobOptions::default())
                    .unwrap()
                    .values,
            )
        })
    });
    // The concurrent path: 4 jobs multiplexed across the same PEs by the
    // persistent scheduler pool (per-call cost includes no thread spawns).
    let sched = Scheduler::new(Arc::clone(&device), config).expect("scheduler starts");
    let quarter: Vec<Arc<_>> = (0..4).map(|s| Arc::new(bench.dataset(16_384, s))).collect();
    g.throughput(Throughput::Elements(4 * 16_384));
    g.bench_function("scheduler_4_concurrent_jobs_4pe", |b| {
        b.iter(|| {
            let handles: Vec<_> = quarter
                .iter()
                .map(|d| {
                    sched
                        .submit_blocking(Arc::clone(d), JobOptions::default())
                        .unwrap()
                })
                .collect();
            for h in handles {
                black_box(h.wait().unwrap());
            }
        })
    });
    g.finish();

    let mut g = c.benchmark_group("perf_sim");
    g.sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4));
    g.bench_function("fig4_point_8pe_100M", |b| {
        b.iter(|| {
            black_box(simulate(&PerfConfig::paper_setup(
                black_box(NipsBenchmark::Nips10),
                8,
            )))
        })
    });
    g.finish();
}

criterion_group!(runtime, benches);
criterion_main!(runtime);
