//! `bulk_plan`: closed-loop `SpnRuntime::run` over a seeded NIPS80
//! dataset on the host plan, no network — the paper's bulk use case.

use crate::common::{self, Oracle, RunCtx};
use crate::report::{int, num, obj, text, Report};
use perfbench::stats::{self, Latency, QuietHalf};
use serde_json::Value;
use spn_core::{Dataset, NipsBenchmark};
use spn_runtime::{
    ExecBackend, ExecProvenance, JobOptions, RuntimeConfig, SpanKind, SpnRuntime, TraceCollector,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: NipsBenchmark = NipsBenchmark::Nips80;
const PES: u32 = 2;
/// Scheduler block size: each run fans out into four blocks, two per PE.
const BLOCK_SAMPLES: u64 = 1024;
/// Samples per `SpnRuntime::run` call.
const RUN_SAMPLES: usize = 4096;
/// Distinct run inputs; runs cycle through them. 32 × 4096 NIPS80
/// samples is 10 MiB of input, so a run does not find the input of the
/// run before it still in cache.
const CHUNKS: usize = 32;
/// Runs a window needs for its p99 to be reportable.
const MIN_RUNS: usize = 1100;
/// Checked runs that warm a freshly built runtime.
const WARMUP_RUNS: usize = 4;

struct Chunk {
    data: Dataset,
    expected: Vec<u64>,
}

fn chunks(seed: u64) -> Vec<Chunk> {
    let nv = MODEL.num_vars();
    let data = MODEL.dataset(CHUNKS * RUN_SAMPLES, seed);
    let probs = common::expected_probabilities(MODEL, Oracle::TreeWalk, data.raw());
    (0..CHUNKS)
        .map(|c| {
            let rows = c * RUN_SAMPLES..(c + 1) * RUN_SAMPLES;
            Chunk {
                data: Dataset::from_raw(
                    data.raw()[rows.start * nv..rows.end * nv].to_vec(),
                    nv,
                    256,
                ),
                expected: probs[rows].iter().map(|p| p.to_bits()).collect(),
            }
        })
        .collect()
}

fn opts() -> JobOptions {
    JobOptions::builder()
        .backend(ExecBackend::HostPlan)
        .build()
        .expect("valid job options")
}

/// One checked run: `(ok, mismatched, plan served from cache)`.
fn run_once(rt: &SpnRuntime, chunk: &Chunk) -> (bool, bool, bool) {
    match rt.run(&chunk.data, opts()) {
        Ok(r) => {
            let same = r.values.len() == chunk.expected.len()
                && r.values
                    .iter()
                    .zip(&chunk.expected)
                    .all(|(v, &e)| v.to_bits() == e);
            let hit = matches!(
                r.provenance,
                ExecProvenance::CompiledPlan { cache_hit: true }
            );
            (same, !same, hit)
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            (false, false, false)
        }
    }
}

fn build(trace: Option<Arc<TraceCollector>>, chunks: &[Chunk], report: &mut Report) -> SpnRuntime {
    let config = RuntimeConfig::builder()
        .block_samples(BLOCK_SAMPLES)
        .threads_per_pe(1)
        .build()
        .expect("valid runtime config");
    let rt = SpnRuntime::with_trace(common::device(MODEL.build_spn(), PES), config, trace);
    for c in chunks.iter().take(WARMUP_RUNS) {
        let (ok, bad, _) = run_once(&rt, c);
        report.ops(1, u64::from(!ok));
        report.mismatches += u64::from(bad);
    }
    rt
}

/// Closed-loop runs for at least `span` and `min_runs`, of which the
/// runs that completed in the quieter half of the window's one-second
/// sub-windows are kept (see `perfbench::stats::quiet_half`).
struct Window {
    /// Latencies of the kept runs.
    latencies_ms: Vec<f64>,
    /// Length of the quiet sub-windows together.
    quiet: Duration,
    /// Runs over the whole window.
    runs: usize,
    cache_hits: u64,
    start: Instant,
    wall: Duration,
    cpu: Duration,
    steal_share: f64,
}

fn window(
    rt: &SpnRuntime,
    chunks: &[Chunk],
    span: Duration,
    min_runs: usize,
    report: &mut Report,
) -> Window {
    let cpu0 = perfbench::procfs::cpu_time().unwrap_or_default();
    let start = Instant::now();
    let sampler = perfbench::procfs::StealSampler::start(start);
    let mut done = Vec::new();
    let mut cache_hits = 0;
    let cap = span * 3;
    while (start.elapsed() < span || done.len() < min_runs) && start.elapsed() < cap {
        let t0 = Instant::now();
        let (ok, bad, hit) = run_once(rt, &chunks[done.len() % chunks.len()]);
        done.push((start.elapsed(), t0.elapsed().as_secs_f64() * 1e3));
        report.ops(1, u64::from(!ok));
        report.mismatches += u64::from(bad);
        cache_hits += u64::from(hit);
    }
    let wall = start.elapsed();
    let ticks = sampler.finish();
    let quiet = QuietHalf::from_ticks(&ticks, wall);
    Window {
        latencies_ms: done
            .iter()
            .filter(|(t, _)| quiet.contains(*t))
            .map(|&(_, l)| l)
            .collect(),
        quiet: Duration::from_secs_f64(quiet.seconds()),
        runs: done.len(),
        cache_hits,
        start,
        wall,
        cpu: perfbench::procfs::cpu_time()
            .unwrap_or_default()
            .saturating_sub(cpu0),
        steal_share: stats::steal_shares(&[ticks[0], ticks[ticks.len() - 1]])[0],
    }
}

fn window_doc(w: &Window) -> Value {
    let lat = Latency::of(&w.latencies_ms).expect("window ran");
    obj(vec![
        ("runs", int(w.runs as u64)),
        ("quiet_runs", int(w.latencies_ms.len() as u64)),
        ("wall_s", num(w.wall.as_secs_f64())),
        ("quiet_s", num(w.quiet.as_secs_f64())),
        ("steal_share", num(w.steal_share)),
        ("p50_ms", num(lat.p50_ms)),
        ("p99_ms", lat.p99_ms.map_or(Value::Null, num)),
    ])
}

/// Run `bulk_plan`.
pub fn run(ctx: &RunCtx, report: &mut Report) {
    let chunks = chunks(ctx.seed);
    report.note(
        "workload_config",
        obj(vec![
            ("model", text(MODEL.name())),
            ("backend", text("HostPlan")),
            ("pes", int(u64::from(PES))),
            ("block_samples", int(BLOCK_SAMPLES)),
            ("samples_per_run", int(RUN_SAMPLES as u64)),
            ("distinct_inputs", int(CHUNKS as u64)),
            ("min_runs", int(MIN_RUNS as u64)),
        ]),
    );
    if ctx.trace {
        traced(ctx, &chunks, report);
        return;
    }
    let (rt, setup_s) = common::timed_setups(report, |r| build(None, &chunks, r));
    report.metric("setup_s", setup_s, common::SETUPS as u64);
    // The quieter half must still hold enough runs for a p99.
    let w = window(
        &rt,
        &chunks,
        Duration::from_secs_f64(ctx.seconds),
        2 * MIN_RUNS,
        report,
    );
    let runs = w.latencies_ms.len() as u64;
    let lat = Latency::of(&w.latencies_ms).expect("window ran");
    let p99 = lat.p99_ms.expect("window sized for a reportable p99");
    let secs = w.quiet.as_secs_f64();
    report.metric(
        "samples_per_s",
        (runs as f64 * RUN_SAMPLES as f64) / secs,
        runs,
    );
    report.info("max_rate_rps", runs as f64 / secs, "1/s", runs);
    report.metric("p50_ms", lat.p50_ms, runs);
    report.info("p99_ms", p99, "ms", runs);
    // One request size: both size classes are every run.
    report.info("small_p99_ms", p99, "ms", runs);
    report.metric("large_p50_ms", lat.p50_ms, runs);
    report.note("window", window_doc(&w));
    drop(rt);
    report.metric(
        "peak_rss_mib",
        perfbench::procfs::peak_rss_mib().expect("VmHWM readable"),
        1,
    );
}

fn traced(ctx: &RunCtx, chunks: &[Chunk], report: &mut Report) {
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    let rt = build(None, chunks, report);
    let before = rt.metrics_snapshot().expect("scheduler running");
    let w = window(&rt, chunks, half, 0, report);
    let after = rt.metrics_snapshot().expect("scheduler running");
    let runs = w.runs as u64;
    let untraced = Latency::of(&w.latencies_ms).expect("window ran");
    let secs = w.wall.as_secs_f64();
    let shares: Vec<f64> = after
        .pe_busy_secs
        .iter()
        .zip(&before.pe_busy_secs)
        .map(|(a, b)| (a - b) / secs)
        .collect();
    report.metric(
        "scheduler.pe_busy_share_min",
        shares.iter().copied().fold(f64::INFINITY, f64::min),
        PES.into(),
    );
    report.metric(
        "scheduler.pe_busy_share_max",
        shares.iter().copied().fold(0.0, f64::max),
        PES.into(),
    );
    let jobs = after.jobs_submitted - before.jobs_submitted;
    report.metric(
        "scheduler.blocks_per_job",
        (after.blocks_executed - before.blocks_executed) as f64 / jobs as f64,
        jobs,
    );
    report.metric(
        "scheduler.block_retries",
        (after.block_retries - before.block_retries) as f64,
        jobs,
    );
    report.metric(
        "plan_cache.hit_ratio",
        w.cache_hits as f64 / runs as f64,
        runs,
    );
    report.metric(
        "process.cpu_us_per_op",
        w.cpu.as_secs_f64() * 1e6 / runs as f64,
        runs,
    );
    let block = &chunks[0].data.raw()[..BLOCK_SAMPLES as usize * MODEL.num_vars()];
    common::plan_metrics(report, MODEL, block);
    common::not_exercised(
        report,
        &[
            "router.added_p50_ms",
            "router.backend_share_max",
            "router.failovers",
            "reactor.events_per_request",
            "reactor.loop_iterations_per_request",
            "protocol.decode_us_per_request",
            "batcher.queue_wait_p50_ms",
            "batcher.queue_wait_p99_ms",
            "batcher.requests_per_batch",
            "batcher.batch_samples_p50",
            "device.ns_per_sample",
            "device.modelled_samples_per_s",
            "driver.late_p99_ms",
            "span.router_us",
            "span.server_us",
            "span.queue_us",
            "span.reply_us",
        ],
    );
    let untraced_doc = window_doc(&w);
    drop(rt);

    let collector = Arc::new(TraceCollector::new());
    let epoch = Instant::now();
    let rt = build(Some(Arc::clone(&collector)), chunks, report);
    let tw = window(&rt, chunks, half, 0, report);
    let traced = Latency::of(&tw.latencies_ms).expect("window ran");
    let from_us = tw.start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let spans: Vec<_> = collector
        .spans()
        .into_iter()
        .filter(|s| s.ts_us >= from_us)
        .collect();
    let truns = tw.runs as f64;
    report.metric(
        "span.e2e_mean_us",
        tw.latencies_ms.iter().sum::<f64>() * 1e3 / tw.latencies_ms.len() as f64,
        tw.latencies_ms.len() as u64,
    );
    let exec: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::PlanExec)
        .map(|s| s.dur_us)
        .collect();
    report.metric(
        "span.execute_us",
        exec.iter().sum::<f64>() / exec.len().max(1) as f64,
        exec.len() as u64,
    );
    report.metric(
        "span.spans_per_op",
        spans.len() as f64 / truns,
        truns as u64,
    );
    report.metric(
        "trace.overhead_p50_ms",
        traced.p50_ms - untraced.p50_ms,
        truns as u64,
    );
    report.metric(
        "trace.overhead_share",
        (traced.p50_ms - untraced.p50_ms) / untraced.p50_ms,
        truns as u64,
    );
    report.note(
        "phases",
        obj(vec![
            ("untraced", untraced_doc),
            ("traced", window_doc(&tw)),
        ]),
    );
    drop(rt);
    report.note(
        "peak_rss_mib",
        num(perfbench::procfs::peak_rss_mib().unwrap_or(0.0)),
    );
}
