//! `perfbench`: run one benchmark workload and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload online_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A record of the run
//! goes to `--out` (default `perfbench/out`). `--write-manifest`
//! rewrites `BENCHMARK.json` in the current directory. The command
//! exits non-zero when any operation failed or any output differs
//! from its oracle.

mod bulk;
mod common;
mod online;
mod report;

use common::RunCtx;
use perfbench::manifest::{self, END_TO_END, PER_LAYER};
use perfbench::procfs;
use report::{int, num, obj, text, Report};
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// Load threads (and connections) at most; fewer when the machine
/// has fewer CPUs.
const MAX_LOAD_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = manifest::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1] [--out DIR]\n       perfbench --write-manifest",
        names.join("|")
    )
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    while let Some(flag) = it.next() {
        if flag == "--write-manifest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if manifest::workload(&args.workload).is_none() {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            return match std::fs::write("BENCHMARK.json", manifest::benchmark_json()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cannot write BENCHMARK.json: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = procfs::nproc();
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        threads: MAX_LOAD_THREADS.min(nproc),
    };
    let mut report = Report::new();
    report.note("workload", text(&args.workload));
    report.note("seed", int(args.seed));
    report.note("seconds", int(args.seconds));
    report.note("trace", Value::Bool(args.trace));
    report.note("nproc", int(nproc as u64));
    report.note("driver_threads", int(ctx.threads as u64));
    report.note("connections", int(ctx.threads as u64));

    let overflows_before = procfs::listen_overflows();
    match args.workload.as_str() {
        "bulk_plan" => bulk::run(&ctx, &mut report),
        "online_small" => online::run(&online::SMALL, &ctx, &mut report),
        "online_mixed" => online::run(&online::MIXED, &ctx, &mut report),
        other => unreachable!("workload {other} passed validation"),
    }
    // Handshakes the kernel dropped during the run count as failed
    // operations: such a client waited out SYN retransmits, and that
    // wait must never hide inside a latency figure.
    let overflows = match (overflows_before, procfs::listen_overflows()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    report.failed += overflows;
    report.note("listen_overflows", int(overflows));
    report.note(
        "error_ratio",
        num(report.failed as f64 / report.attempted.max(1) as f64),
    );
    report.note(
        "process",
        obj(vec![(
            "cpu_s",
            num(procfs::cpu_time().unwrap_or_default().as_secs_f64()),
        )]),
    );

    let wanted = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let name = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if report.finish(wanted, &name, &args.out) {
        ExitCode::SUCCESS
    } else {
        eprintln!("run failed: some operation failed or returned bits that differ from its oracle");
        ExitCode::FAILURE
    }
}
