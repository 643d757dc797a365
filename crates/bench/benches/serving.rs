//! Criterion benchmarks of the serving tier, at two depths:
//!
//! * `serving/wire_*` — the full loopback path: TCP framing, admission,
//!   batching, scheduler, demux. On a release build the per-request
//!   wire handling (syscalls, context switches) dominates and is paid
//!   identically by both configurations, so the two converge; the
//!   batching win in this regime shows up in tail latency and in the
//!   compute-bound setting exercised (and asserted) by
//!   `tests/server.rs`.
//! * `serving/batcher_*` — the coalescing layer alone, no sockets: an
//!   open-loop producer enqueues single-sample requests straight into
//!   the `Batcher`, then collects every reply. This isolates exactly
//!   what micro-batching amortises — per-job scheduler bookkeeping and
//!   verification sampling.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use spn_core::NipsBenchmark;
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{
    synthetic_samples, BatchPolicy, Batcher, LoadConfig, ModelSpec, Reply, ServerConfig,
    ServerMetrics, SpnServer,
};
use std::sync::Arc;
use std::time::Duration;

const BENCH: NipsBenchmark = NipsBenchmark::Nips80;
const CONNECTIONS: usize = 16;
const REQUESTS_PER_CONNECTION: usize = 16;

/// One-sample-per-request policy: every request becomes its own job.
fn per_request_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch_samples: 1,
        max_batch_delay: Duration::from_micros(1),
    }
}

/// Adaptive coalescing with a sub-millisecond latency bound.
fn micro_batch_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch_samples: 4096,
        max_batch_delay: Duration::from_micros(800),
    }
}

fn make_scheduler() -> Arc<Scheduler> {
    let device = Arc::new(VirtualDevice::paper(&BENCH.build_spn(), 2));
    let config = RuntimeConfig::builder()
        .block_samples(4)
        .threads_per_pe(2)
        .verify_fraction(0.05)
        .build()
        .expect("valid config");
    Arc::new(Scheduler::new(device, config).expect("scheduler starts"))
}

fn start_server(batch: BatchPolicy) -> SpnServer {
    let spec = ModelSpec::new(BENCH.name(), make_scheduler(), BENCH.num_vars() as u32, 256);
    SpnServer::serve(
        ServerConfig {
            batch,
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .expect("server starts")
}

/// An open-loop (pipelined) producer hammering the batcher directly:
/// all single-sample requests are enqueued up front, then every reply
/// is collected. This keeps the producer cost identical and negligible
/// in both configurations, so the measured gap is purely the per-job
/// amortisation.
fn drive_batcher(batcher: &Arc<Batcher>) {
    let nf = BENCH.num_vars() as u32;
    let total = CONNECTIONS * REQUESTS_PER_CONNECTION;
    let rxs: Vec<_> = (0..total)
        .map(|r| {
            let data = synthetic_samples(1, nf, 255, r as u64);
            batcher.enqueue(spn_server::SpanCtx::NONE, data, 1, None)
        })
        .collect();
    for rx in rxs {
        match rx.recv().expect("batcher replies") {
            Reply::Ok(lls) => assert_eq!(lls.len(), 1),
            Reply::Err(status, msg) => panic!("rejected: {status:?} {msg}"),
        }
    }
}

fn benches(c: &mut Criterion) {
    let total = (CONNECTIONS * REQUESTS_PER_CONNECTION) as u64;

    let mut g = c.benchmark_group("serving");
    g.sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_millis(500));
    g.throughput(Throughput::Elements(total));

    // Full loopback TCP path.
    for (name, policy) in [
        ("wire_per_request", per_request_policy()),
        ("wire_micro_batched", micro_batch_policy()),
    ] {
        let server = start_server(policy);
        let cfg = LoadConfig {
            addr: server.local_addr(),
            model: BENCH.name().to_string(),
            num_features: BENCH.num_vars() as u32,
            domain: 255,
            connections: CONNECTIONS,
            requests_per_connection: REQUESTS_PER_CONNECTION,
            samples_per_request: 1,
            deadline_ms: 0,
            seed: 17,
        };
        g.bench_function(name, |b| {
            b.iter(|| black_box(black_box(&cfg).run().expect("load run succeeds")))
        });
        drop(server); // graceful shutdown between configurations
    }

    // Coalescing layer alone, no sockets.
    for (name, policy) in [
        ("batcher_per_request", per_request_policy()),
        ("batcher_micro_batched", micro_batch_policy()),
    ] {
        let batcher = Arc::new(Batcher::new(
            BENCH.name(),
            make_scheduler(),
            BENCH.num_vars(),
            256,
            policy,
            JobOptions::default(),
            Arc::new(ServerMetrics::new()),
        ));
        g.bench_function(name, |b| b.iter(|| drive_batcher(&batcher)));
        drop(batcher); // drain before the next configuration
    }
    g.finish();
}

criterion_group!(serving, benches);
criterion_main!(serving);
