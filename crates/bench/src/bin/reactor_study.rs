//! Reactor connection-scaling study — the perf-gate record for the
//! epoll serving engine. One server answers the identical seeded
//! request stream at increasing connection counts; the committed
//! `BENCH_reactor.json` records how throughput and tail latency hold
//! up as the engine multiplexes more sockets over its two event loops.
//! That the reactor serves bit-identical replies is proved by the
//! committed-trace replay tests, not here.
//!
//! Methodology: as in `serving_study`, the backend device is *paced*
//! (a fixed per-sample sleep holding the PE) so device capacity is a
//! portable constant and every point is dominated by queueing plus
//! the serving engine's own overhead. The load driver dials every
//! connection before the clock starts (the dial time is reported
//! separately, under an ungated `dial_ms_observed` key) and then keeps
//! one request in flight per connection. Each point runs three times
//! and records the median of each metric.
//!
//! Points are labelled `R{C}` and carry gateable keys
//! (`samples_per_sec` higher-better, `p50_ms`/`p99_ms` lower-better)
//! for `spn bench diff`. The quick sweep is a labelled subset so CI
//! diffs it against the committed baseline.

use bench::{jobj, write_study_record, StudyArgs, Table};
use serde::Serialize;
use serde_json::Value;
use spn_arith::AnyFormat;
use spn_core::NipsBenchmark;
use spn_hw::{AcceleratorConfig, DatapathProgram};
use spn_runtime::{RuntimeConfig, Scheduler, VirtualDevice};
use spn_server::{clamp_connections, BatchPolicy, LoadConfig, ModelSpec, ServerConfig, SpnServer};
use spn_telemetry::{RunKind, RunRecord};
use std::sync::Arc;
use std::time::Duration;

const PACING_US: u64 = 50;
const PES: u32 = 2;
const SAMPLES_PER_REQUEST: u32 = 1;
const MODEL: NipsBenchmark = NipsBenchmark::Nips10;
const SEED: u64 = 11;
const RUNS: usize = 5;
const REQUESTS_PER_CONNECTION: usize = 16;

fn start_server(connections: usize) -> SpnServer {
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
            loop_threads: 2,
            max_connections: connections + 64,
            ..ServerConfig::default()
        },
        vec![spec],
    )
    .unwrap()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Serve `connections` × `requests` [`RUNS`] times, each on a fresh
/// server, and record the per-metric medians.
fn run_point(connections: usize, requests: usize) -> Value {
    let reports: Vec<_> = (0..RUNS)
        .map(|_| {
            let mut server = start_server(connections);
            let report = LoadConfig {
                addr: server.local_addr(),
                model: MODEL.name().to_string(),
                num_features: MODEL.num_vars() as u32,
                domain: 255,
                connections,
                requests_per_connection: requests,
                samples_per_request: SAMPLES_PER_REQUEST,
                deadline_ms: 0,
                seed: SEED,
            }
            .run()
            .expect("load run");
            server.shutdown();
            report
        })
        .collect();
    for r in &reports {
        assert_eq!(r.connections, connections);
        assert_eq!(r.rejected_requests, 0, "C={connections}: {}", r.summary());
        assert_eq!(r.transport_errors, 0, "C={connections}: {}", r.summary());
    }
    let med = |f: fn(&spn_server::LoadReport) -> f64| median(reports.iter().map(f).collect());
    jobj(vec![
        ("name", Value::String(format!("R{connections}"))),
        ("connections", connections.serialize()),
        ("ok_requests", reports[0].ok_requests.serialize()),
        ("samples_per_sec", med(|r| r.samples_per_sec).serialize()),
        ("p50_ms", med(|r| r.p50_ms).serialize()),
        ("p99_ms", med(|r| r.p99_ms).serialize()),
        (
            "dial_ms_observed",
            med(|r| r.dial.as_secs_f64() * 1e3).serialize(),
        ),
    ])
}

fn main() {
    let args = StudyArgs::parse();
    let want: &[usize] = if args.quick { &[64] } else { &[64, 256, 1000] };
    // Same per-connection length in both modes, so a quick R64 is the
    // committed R64's exact workload.
    let requests = REQUESTS_PER_CONNECTION;
    // Both ends live in this process: two fds per connection plus the
    // server/listener/epoll overhead.
    let budget = clamp_connections(2 * want.last().unwrap() + 256, 256);
    let sweep: Vec<usize> = want.iter().map(|&c| c.min(budget / 2)).collect();
    assert_eq!(
        sweep, want,
        "fd budget too small for the study sweep (have {budget})"
    );

    println!(
        "Reactor study: {} on a {PES}-PE device paced at {PACING_US} µs/sample, \
         C -> {}, median of {RUNS} runs per point\n",
        MODEL.name(),
        sweep.last().unwrap()
    );

    let mut table = Table::new(vec![
        "connections",
        "ok requests",
        "samples/s",
        "p50 [ms]",
        "p99 [ms]",
        "dial [ms]",
    ]);
    let mut points = Vec::new();
    for &c in &sweep {
        let point = run_point(c, requests);
        let num = |k: &str| point[k].as_f64().unwrap_or(f64::NAN);
        table.row(vec![
            c.to_string(),
            format!("{}", num("ok_requests")),
            format!("{:.0}", num("samples_per_sec")),
            format!("{:.2}", num("p50_ms")),
            format!("{:.2}", num("p99_ms")),
            format!("{:.1}", num("dial_ms_observed")),
        ]);
        points.push(point);
    }
    table.print();

    let config = jobj(vec![
        (
            "methodology",
            Value::String(
                "closed-loop seeded load (one epoll load driver, every connection \
                 dialled before the clock starts and keeping one request in \
                 flight) against one in-process spn-server reactor over a \
                 per-sample paced 2-PE device; each point is the per-metric \
                 median of three runs, with dial time reported separately"
                    .to_string(),
            ),
        ),
        ("model", Value::String(MODEL.name().to_string())),
        ("pacing_us_per_sample", PACING_US.serialize()),
        ("pes", PES.serialize()),
        ("samples_per_request", SAMPLES_PER_REQUEST.serialize()),
        ("requests_per_connection", requests.serialize()),
        ("connections", sweep.serialize()),
        ("loop_threads", 2u32.serialize()),
        ("runs_per_point", RUNS.serialize()),
        ("seed", SEED.serialize()),
        ("quick", Value::Bool(args.quick)),
    ]);
    let metrics = jobj(vec![("points", Value::Array(points))]);
    let record = RunRecord::new("reactor_study", RunKind::Bench, config, metrics);
    write_study_record(
        &record,
        args.out.as_deref().unwrap_or("BENCH_reactor.json"),
        args.runs.as_deref(),
    );
}
