//! Network inference serving end to end, in one process: bring up the
//! TCP server on a loopback port with two NIPS models behind the
//! adaptive micro-batcher, run concurrent clients against it, compare
//! the answers bit-for-bit with a direct runtime run, print the
//! server's metrics snapshot, and shut down gracefully.
//!
//! ```sh
//! cargo run --release -p examples --bin serve_nips [connections] [requests_per_connection]
//! ```
//!
//! The same server can be started standalone with `spn serve` and
//! exercised with `spn load` — this example is the library-level view
//! of that toolflow.

use spn_core::NipsBenchmark;
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, SpnRuntime, VirtualDevice};
use spn_server::{BatchPolicy, Client, LoadConfig, ModelSpec, ServerConfig, SpnServer};
use std::sync::Arc;
use std::time::Duration;

fn make_device(bench: NipsBenchmark, pes: u32) -> Arc<VirtualDevice> {
    Arc::new(VirtualDevice::paper(&bench.build_spn(), pes))
}

fn make_model(bench: NipsBenchmark, pes: u32) -> ModelSpec {
    let config = RuntimeConfig::builder()
        .block_samples(1024)
        .threads_per_pe(2)
        .build()
        .expect("valid config");
    let scheduler =
        Arc::new(Scheduler::new(make_device(bench, pes), config).expect("scheduler starts"));
    ModelSpec::new(bench.name(), scheduler, bench.num_vars() as u32, 256)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let connections: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let requests: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);

    // 1. Serve two models from one process; port 0 = kernel-assigned.
    let server = SpnServer::serve(
        ServerConfig {
            batch: BatchPolicy {
                max_batch_samples: 4096,
                max_batch_delay: Duration::from_micros(500),
            },
            ..ServerConfig::default()
        },
        vec![
            make_model(NipsBenchmark::Nips10, 2),
            make_model(NipsBenchmark::Nips80, 2),
        ],
    )
    .expect("server starts");
    let addr = server.local_addr();
    println!("serving NIPS10 + NIPS80 on {addr}");

    // 2. One hand-rolled client: results over the wire are
    //    bit-identical to a direct runtime run on an equal device.
    let bench = NipsBenchmark::Nips10;
    let nf = bench.num_vars() as u32;
    let dataset = Arc::new(bench.dataset(64, 42));
    let direct: Vec<f64> = SpnRuntime::new(
        make_device(bench, 2),
        RuntimeConfig::builder()
            .block_samples(1024)
            .build()
            .unwrap(),
    )
    .run(&dataset, JobOptions::default())
    .expect("direct inference")
    .values
    .iter()
    .map(|p| p.ln())
    .collect();

    let mut client = Client::connect(addr).expect("client connects");
    let served = client
        .request(bench.name())
        .samples(dataset.raw(), 64, nf)
        .send()
        .expect("served inference");
    let identical = served
        .iter()
        .zip(&direct)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    println!(
        "loopback vs direct on {} x {} samples: bit-identical = {identical}",
        bench.name(),
        served.len()
    );
    assert!(identical, "serving must not change results");

    // 3. Concurrent load against the big model: the micro-batcher
    //    coalesces the small requests into shared scheduler jobs.
    let report = LoadConfig {
        addr,
        model: NipsBenchmark::Nips80.name().to_string(),
        num_features: NipsBenchmark::Nips80.num_vars() as u32,
        domain: 255,
        connections,
        requests_per_connection: requests,
        samples_per_request: 4,
        deadline_ms: 0,
        seed: 7,
    }
    .run()
    .expect("load run succeeds");
    println!("load: {}", report.summary());

    // 4. The server's own view, as the `Stats` opcode reports it.
    let snap = server.metrics_snapshot();
    println!(
        "server: {} requests, {} samples, {} batches ({:.1} samples/batch)",
        snap.requests_total,
        snap.samples_total,
        snap.batches_total,
        snap.samples_total as f64 / snap.batches_total.max(1) as f64,
    );
    println!("stats JSON:\n{}", client.stats().expect("stats opcode"));

    // 5. Graceful shutdown: queued work drains, then the port closes.
    drop(client);
    drop(server);
    println!("server drained and shut down");
}
