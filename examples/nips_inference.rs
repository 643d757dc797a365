//! End-to-end accelerated inference on a NIPS benchmark: the full paper
//! pipeline — benchmark SPN → compiled datapath → multi-core virtual
//! device with per-core HBM channels → multi-threaded host runtime —
//! with results verified against the reference evaluator, and the
//! virtual-time performance model reporting what the real card would
//! sustain.
//!
//! ```sh
//! cargo run --release -p examples --bin nips_inference [NIPS10|...|NIPS80] [num_pes]
//! ```

use spn_core::{Evaluator, NipsBenchmark, Query};
use spn_hw::DatapathProgram;
use spn_runtime::perf::{simulate, PerfConfig};
use spn_runtime::{JobOptions, RuntimeConfig, SpnRuntime, VirtualDevice};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let bench = args
        .next()
        .and_then(|s| NipsBenchmark::from_name(&s))
        .unwrap_or(NipsBenchmark::Nips10);
    let num_pes: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    println!(
        "benchmark: {} ({} input bytes/sample)",
        bench.name(),
        bench.num_vars()
    );
    let spn = bench.build_spn();
    println!("SPN: {:?}", spn.stats());

    // "Synthesize" the accelerator: compile the SPN to a datapath in the
    // paper's CFP format and instantiate PEs on the virtual card.
    let counts = DatapathProgram::compile(&spn).op_counts();
    println!(
        "datapath: {} lookups, {} multipliers, {} adders",
        counts.lookups,
        counts.total_muls(),
        counts.adds
    );
    let device = Arc::new(VirtualDevice::paper(&spn, num_pes));

    // The runtime discovers the PE configuration from the device —
    // the paper's configuration-readout mode.
    let pe0 = device.query_pe(0).expect("PE 0 exists");
    println!(
        "device: {num_pes} PEs, PE0 reports {} vars, {} B in / {} B out per sample",
        pe0.num_vars, pe0.input_bytes, pe0.result_bytes
    );

    // Run a real batch through the real threads.
    let samples = 200_000;
    let data = bench.dataset(samples, 2024);
    let rt = SpnRuntime::new(
        Arc::clone(&device),
        RuntimeConfig::builder()
            .block_samples(16 * 1024)
            .threads_per_pe(2)
            .build()
            .expect("valid runtime config"),
    );
    let t0 = std::time::Instant::now();
    let probs = rt
        .run(&data, JobOptions::default())
        .expect("inference succeeds")
        .values;
    let host_secs = t0.elapsed().as_secs_f64();
    if let Some(metrics) = rt.metrics_snapshot() {
        println!(
            "runtime metrics: {} blocks, {:.1} MiB H2D, {:.1} MiB D2H",
            metrics.blocks_executed,
            metrics.h2d_bytes as f64 / (1 << 20) as f64,
            metrics.d2h_bytes as f64 / (1 << 20) as f64,
        );
    }

    // Verify against the reference evaluator.
    let mut ev = Evaluator::new(&spn);
    let mut max_rel: f64 = 0.0;
    for (row, &p) in data.rows().zip(&probs) {
        let reference = ev.eval_bytes(&Query::Complete, row).exp();
        max_rel = max_rel.max(((p - reference) / reference).abs());
    }
    println!(
        "\nfunctional run: {samples} samples in {host_secs:.2}s host time; \
         max relative error vs f64 reference: {max_rel:.2e} (CFP rounding)"
    );

    // What would the real card sustain? Ask the virtual-time model.
    let perf = simulate(&PerfConfig::paper_setup(bench, num_pes));
    println!(
        "modelled card performance at {num_pes} PEs: {:.1} M samples/s \
         (DMA {:.0}% busy, PEs {:.0}% busy)",
        perf.samples_per_sec / 1e6,
        perf.dma_utilization * 100.0,
        perf.pe_utilization * 100.0
    );
    let mut no_xfer = PerfConfig::paper_setup(bench, num_pes);
    no_xfer.include_transfers = false;
    let ideal = simulate(&no_xfer);
    println!(
        "without host transfers it would be {:.1} M samples/s — the PCIe \
         bottleneck costs {:.0}%",
        ideal.samples_per_sec / 1e6,
        (1.0 - perf.samples_per_sec / ideal.samples_per_sec) * 100.0
    );
}
