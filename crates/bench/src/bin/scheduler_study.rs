//! Scheduler scaling study — the perf-gate record for the concurrent
//! block scheduler (the criterion bench `runtime_end_to_end` measures
//! the same path at host speed; this study pins it to portable
//! numbers). Throughput of a fixed batch of jobs as the paced virtual
//! card's PE count sweeps 1 → 4. Writes the committed
//! `BENCH_scheduler.json` at the repo root (a provenance-stamped
//! `RunRecord`), plus the usual `results/` copy; `--quick` shrinks the
//! sweep for CI, `--out PATH` redirects the artifact and `--runs DIR`
//! appends to a run store.
//!
//! Methodology: the device is *paced* — its launch path sleeps a fixed
//! per-sample budget while holding the PE, so each PE's capacity is a
//! known constant (1/pacing samples/s) independent of host speed. The
//! same jobs are submitted at every point; what the sweep measures is
//! the scheduler's ability to keep N PEs busy (block splitting, queue
//! discipline, per-PE worker threads), as `speedup_vs_1`.
//!
//! `spn bench diff` compares the pacing-pinned `samples_per_sec` and
//! `speedup_vs_1` columns; points are matched by the `name` label
//! (`P1`..`P4`), so the quick sweep diffs cleanly against the full
//! committed baseline.

use bench::{jobj, paced_scheduler, write_study_record, StudyArgs, Table};
use serde::Serialize;
use serde_json::Value;
use spn_core::NipsBenchmark;
use spn_runtime::JobOptions;
use spn_telemetry::{RunKind, RunRecord};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Modelled device time per sample. 20 µs ⇒ one PE caps out at
/// 50 000 samples/s, far below what the host could push through the
/// unpaced simulator — so N PEs genuinely multiply capacity.
const PACING_US: u64 = 20;
/// Jobs submitted concurrently at every point (enough blocks in
/// flight to feed 4 PEs).
const JOBS: usize = 4;
const BLOCK_SAMPLES: u64 = 256;
const MODEL: NipsBenchmark = NipsBenchmark::Nips10;
const SEED: u64 = 11;

#[derive(Serialize)]
struct Point {
    name: String,
    pes: u32,
    samples: u64,
    elapsed_s: f64,
    samples_per_sec: f64,
    speedup_vs_1: f64,
}

fn sweep_point(pes: u32, samples_per_job: usize) -> (u64, f64) {
    let scheduler = paced_scheduler(MODEL, pes, Duration::from_micros(PACING_US), BLOCK_SAMPLES);
    let opts = JobOptions::default();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..JOBS)
        .map(|j| {
            let data = Arc::new(MODEL.dataset(samples_per_job, SEED.wrapping_add(j as u64)));
            scheduler.submit_blocking(data, opts).unwrap()
        })
        .collect();
    let mut total = 0u64;
    for h in handles {
        total += h.wait().expect("paced job completes").len() as u64;
    }
    (total, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = StudyArgs::parse();
    let pes_sweep: &[u32] = if args.quick { &[1, 2] } else { &[1, 2, 3, 4] };
    let samples_per_job = if args.quick { 512 } else { 2048 };

    println!(
        "Scheduler scaling study: {JOBS} jobs of {samples_per_job} samples ({}), \
         {PACING_US} µs/sample pacing, PEs 1 -> {}\n",
        MODEL.name(),
        pes_sweep.last().unwrap()
    );

    let mut table = Table::new(vec!["PEs", "samples", "samples/s", "speedup vs 1"]);
    let mut base_rate = 0.0f64;
    let mut points = Vec::new();
    for &pes in pes_sweep {
        // Best of two runs: pacing pins the true rate, so the faster
        // run is the correct one and a transient host stall (a paged-
        // out worker, a noisy neighbour) cannot fail the perf gate.
        let (samples, elapsed) = (0..2)
            .map(|_| sweep_point(pes, samples_per_job))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let rate = samples as f64 / elapsed;
        if pes == 1 {
            base_rate = rate;
        }
        let speedup = rate / base_rate;
        table.row(vec![
            pes.to_string(),
            samples.to_string(),
            format!("{rate:.0}"),
            format!("{speedup:.2}x"),
        ]);
        points.push(Point {
            name: format!("P{pes}"),
            pes,
            samples,
            elapsed_s: elapsed,
            samples_per_sec: rate,
            speedup_vs_1: speedup,
        });
    }
    table.print();

    let config = jobj(vec![
        (
            "methodology",
            Value::String(
                "fixed batch of concurrent jobs on a per-sample paced virtual \
                 card (PE capacity a known constant); PE count sweeps while the \
                 offered work is identical, so speedup_vs_1 isolates the \
                 scheduler's ability to keep PEs busy"
                    .to_string(),
            ),
        ),
        ("model", Value::String(MODEL.name().to_string())),
        ("pacing_us_per_sample", PACING_US.serialize()),
        ("jobs", JOBS.serialize()),
        ("samples_per_job", samples_per_job.serialize()),
        ("block_samples", BLOCK_SAMPLES.serialize()),
        ("pes", pes_sweep.serialize()),
        ("quick", Value::Bool(args.quick)),
    ]);
    let metrics = jobj(vec![("points", points.serialize())]);
    let record = RunRecord::new("scheduler_study", RunKind::Bench, config, metrics);
    write_study_record(
        &record,
        args.out.as_deref().unwrap_or("BENCH_scheduler.json"),
        args.runs.as_deref(),
    );

    let top = points.last().unwrap();
    println!("\nspeedup at {} PEs: {:.2}x", top.pes, top.speedup_vs_1);
}
