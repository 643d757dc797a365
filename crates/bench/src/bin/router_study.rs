//! Router scaling study — the acceptance record for the cluster
//! front-end: aggregate inference throughput behind one `spn-router`
//! as the backend count sweeps 1 → 4. Writes the committed
//! `BENCH_router.json` at the repo root (plus the usual `results/`
//! copy).
//!
//! Methodology: every backend is an in-process `spn-server` over a
//! *paced* virtual device — 1 PE whose launch path sleeps a fixed
//! per-sample budget while holding the PE, exactly like a real
//! accelerator occupies its datapath. Pacing makes each backend's
//! capacity a known constant (1/pacing samples/s) that is independent
//! of host CPU contention, so the sweep measures what the router
//! actually adds: placement and fan-out across independent devices.
//! The offered load is a closed-loop schedule through the one load
//! driver (`spn_server::drive`): one lane per model shard (all the
//! same underlying SPN), each lane's feature blocks a pure function of
//! the run seed via `request_seed`, so every point replays the
//! identical request stream. Each lane's request count is sized so a
//! point lasts about `load_secs` at the paced capacity of its N
//! backends. A point panics if the kernel's `ListenOverflows` counter
//! rose while it ran.

use bench::{
    jobj, no_listen_overflows, paced_scheduler, paced_server, write_study_record, StudyArgs, Table,
};
use serde::Serialize;
use serde_json::Value;
use spn_core::NipsBenchmark;
use spn_router::{HealthPolicy, RouterConfig, SpnRouter};
use spn_server::{drive, request_seed, ScheduledRequest, ServerConfig, SpnServer};
use spn_telemetry::{RunKind, RunRecord};
use std::time::Duration;

/// Modelled device time per sample. 100 µs ⇒ each backend caps out at
/// 10 000 samples/s, far below what the host could push through one
/// unpaced simulator — so N backends genuinely multiply capacity.
const PACING_US: u64 = 100;
/// Model shards spread over the ring (all the same NIPS10 SPN).
const SHARDS: usize = 16;
/// Samples per request.
const SAMPLES_PER_REQUEST: u32 = 16;
/// Load window per sweep point, at the paced capacity.
const LOAD_SECS: f64 = 2.5;
/// Replicas per shard (capped at the backend count).
const REPLICATION: usize = 2;
const SEED: u64 = 7;

#[derive(Serialize)]
struct Point {
    backends: usize,
    ok_requests: u64,
    rejected_requests: u64,
    samples: u64,
    elapsed_s: f64,
    samples_per_sec: f64,
    speedup_vs_1: f64,
}

fn shard_names() -> Vec<String> {
    (0..SHARDS).map(|i| format!("shard-{i:02}")).collect()
}

/// One backend: a 1-PE paced device, one scheduler, every shard name
/// registered onto it.
fn start_backend(bench: NipsBenchmark) -> SpnServer {
    let scheduler = paced_scheduler(bench, 1, Duration::from_micros(PACING_US), 512);
    paced_server(
        &scheduler,
        bench,
        &shard_names(),
        4096,
        ServerConfig::default(),
    )
}

/// The closed-loop schedule: one lane per shard, each sending
/// `requests` seeded requests back to back.
fn schedule(bench: NipsBenchmark, requests: usize) -> Vec<ScheduledRequest> {
    let nf = bench.num_vars() as u32;
    shard_names()
        .into_iter()
        .enumerate()
        .flat_map(|(lane, model)| {
            (0..requests).map(move |req| ScheduledRequest {
                lane: lane as u32,
                due_ns: 0,
                model: model.clone(),
                num_samples: SAMPLES_PER_REQUEST,
                num_features: nf,
                domain: 255,
                seed: request_seed(SEED, lane as u64, req as u64),
                deadline_ms: 0,
            })
        })
        .collect()
}

fn sweep_point(bench: NipsBenchmark, n: usize, load_secs: f64) -> Point {
    let servers: Vec<SpnServer> = (0..n).map(|_| start_backend(bench)).collect();
    let router = SpnRouter::start(RouterConfig {
        backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        replication: REPLICATION,
        health: HealthPolicy::default(),
        ..RouterConfig::default()
    })
    .unwrap();

    // Enough requests per lane to keep N paced backends busy for
    // about `load_secs`.
    let capacity = n as f64 * 1e6 / PACING_US as f64;
    let requests =
        (load_secs * capacity / (SHARDS as f64 * SAMPLES_PER_REQUEST as f64)).ceil() as usize;
    let report = no_listen_overflows(&format!("N={n}"), || {
        drive(router.local_addr(), &schedule(bench, requests)).expect("load run")
    });
    drop(router);
    for mut s in servers {
        s.shutdown();
    }
    Point {
        backends: n,
        ok_requests: report.ok_requests,
        rejected_requests: report.rejected_requests + report.transport_errors,
        samples: report.ok_samples,
        elapsed_s: report.elapsed.as_secs_f64(),
        samples_per_sec: report.samples_per_sec,
        speedup_vs_1: 0.0, // filled by the caller
    }
}

fn main() {
    let args = StudyArgs::parse();
    let bench = NipsBenchmark::Nips10;
    // Quick mode (CI's perf-gate candidate): sweep 1 -> 2 backends on
    // a shorter window. `speedup_vs_1` and the pacing-pinned
    // `samples_per_sec` stay comparable with the full baseline; the
    // diff matches points by their `backends` label.
    let max_backends = if args.quick { 2 } else { 4 };
    let load_secs = if args.quick { 1.0 } else { LOAD_SECS };
    println!(
        "Router scaling study: {SHARDS} shards of {}, {} µs/sample pacing, \
         {load_secs} s per point\n",
        bench.name(),
        PACING_US
    );

    let mut points = Vec::new();
    for n in 1..=max_backends {
        let mut p = sweep_point(bench, n, load_secs);
        let base = points
            .first()
            .map(|b: &Point| b.samples_per_sec)
            .unwrap_or(p.samples_per_sec);
        p.speedup_vs_1 = p.samples_per_sec / base;
        eprintln!(
            "  N={}: {} ok / {} rejected, {:.0} samples/s ({:.2}x)",
            n, p.ok_requests, p.rejected_requests, p.samples_per_sec, p.speedup_vs_1
        );
        points.push(p);
    }

    let mut table = Table::new(vec![
        "backends",
        "ok requests",
        "rejected",
        "samples/s",
        "speedup vs 1",
    ]);
    for p in &points {
        table.row(vec![
            p.backends.to_string(),
            p.ok_requests.to_string(),
            p.rejected_requests.to_string(),
            format!("{:.0}", p.samples_per_sec),
            format!("{:.2}x", p.speedup_vs_1),
        ]);
    }
    table.print();

    let at_max = points.last().map(|p| p.speedup_vs_1).unwrap_or(0.0);
    let config = jobj(vec![
        (
            "methodology",
            Value::String(
                "closed-loop load (one epoll load driver, 1 lane per shard, \
                 requests sized to load_secs at paced capacity) through \
                 spn-router over N in-process spn-server backends, each a 1-PE \
                 virtual device paced at a fixed per-sample budget so backend \
                 capacity is a known constant; identical seeded request stream \
                 (request_seed) at every point; replication capped at backend count"
                    .to_string(),
            ),
        ),
        ("pacing_us_per_sample", PACING_US.serialize()),
        ("shards", SHARDS.serialize()),
        ("samples_per_request", SAMPLES_PER_REQUEST.serialize()),
        ("load_secs", load_secs.serialize()),
        ("replication", REPLICATION.serialize()),
        ("seed", SEED.serialize()),
        ("max_backends", max_backends.serialize()),
        ("quick", Value::Bool(args.quick)),
    ]);
    let metrics = jobj(vec![("points", points.serialize())]);
    let record = RunRecord::new("router_study", RunKind::Bench, config, metrics);
    write_study_record(
        &record,
        args.out.as_deref().unwrap_or("BENCH_router.json"),
        args.runs.as_deref(),
    );

    println!("\nspeedup at N={max_backends}: {at_max:.2}x (target >= 2.5x at N=4)");
}
