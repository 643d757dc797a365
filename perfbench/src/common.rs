//! Pieces every workload shares: the device and scheduler a stack runs
//! on, the correctness oracles, set-up timing and the per-layer
//! micro-timings.

use crate::report::Report;
use perfbench::stats;
use spn_arith::AnyFormat;
use spn_core::{CompiledPlan, Evaluator, NipsBenchmark, PlanExecutor, Query, Spn};
use spn_hw::{AcceleratorConfig, AcceleratorCore, DatapathProgram};
use spn_runtime::{PlanCache, RuntimeConfig, Scheduler, TraceCollector, VirtualDevice};
use spn_server::{protocol::write_frame, Frame, FrameDecoder, InferRequest, Opcode, SpanCtx};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Device channel capacity: room for a few 256-sample NIPS80 blocks,
/// which is all one control thread per PE ever has in flight (the
/// host-plan path never touches it). Keeping it small keeps peak RSS
/// from depending on whether the allocator happened to back a channel
/// with fresh or with reused, already-touched pages.
const CHANNEL_BYTES: u64 = 64 << 10;

/// The parameters of one run, from the command line.
pub struct RunCtx {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Load threads, one blocking connection each.
    pub threads: usize,
}

/// A virtual device for `model` on `pes` PEs in the paper-default
/// CFP format, carrying its SPN so host-plan jobs are accepted.
pub fn device(spn: Spn, pes: u32) -> Arc<VirtualDevice> {
    let program = DatapathProgram::compile(&spn);
    Arc::new(
        VirtualDevice::new(
            program,
            AnyFormat::paper_default(),
            AcceleratorConfig::paper_default(),
            pes,
            CHANNEL_BYTES,
        )
        .with_model(Arc::new(spn)),
    )
}

/// A scheduler over `device` with `block_samples`-sample blocks, one
/// control thread per PE, and its own plan cache.
pub fn scheduler(
    device: Arc<VirtualDevice>,
    block_samples: u64,
    trace: Option<Arc<TraceCollector>>,
) -> (Arc<Scheduler>, Arc<PlanCache>) {
    let config = RuntimeConfig::builder()
        .block_samples(block_samples)
        .threads_per_pe(1)
        .build()
        .expect("valid runtime config");
    let cache = Arc::new(PlanCache::new());
    let sched =
        Scheduler::with_cache(device, config, trace, Arc::clone(&cache)).expect("scheduler starts");
    (Arc::new(sched), cache)
}

/// Which oracle gives the expected bits of a backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Oracle {
    /// Tree-walk `Evaluator`: exact f64, what the host plan must match.
    TreeWalk,
    /// `AcceleratorCore::run_sample`: the CFP datapath, what the device
    /// path must match.
    Core,
}

/// Expected linear probabilities for every row of `rows`
/// (`num_vars` bytes each), computed on two threads.
pub fn expected_probabilities(model: NipsBenchmark, oracle: Oracle, rows: &[u8]) -> Vec<f64> {
    let nv = model.num_vars();
    let spn = model.build_spn();
    let n = rows.len() / nv;
    let half = n / 2 * nv;
    let (a, b) = rows.split_at(half);
    let eval = |part: &[u8]| -> Vec<f64> {
        match oracle {
            Oracle::TreeWalk => {
                let mut ev = Evaluator::new(&spn);
                part.chunks(nv)
                    .map(|r| ev.eval_bytes(&Query::Complete, r).exp())
                    .collect()
            }
            Oracle::Core => {
                let core = AcceleratorCore::new(
                    AcceleratorConfig::paper_default(),
                    DatapathProgram::compile(&spn),
                    AnyFormat::paper_default(),
                );
                part.chunks(nv).map(|r| core.run_sample(r)).collect()
            }
        }
    };
    let (mut left, right) = std::thread::scope(|s| {
        let h = s.spawn(|| eval(b));
        (eval(a), h.join().expect("oracle thread"))
    });
    left.extend(right);
    left
}

/// Median of repeated set-ups: runs `build` [`SETUPS`] times, keeps
/// the last result, and records every set-up time in the report.
pub fn timed_setups<T>(report: &mut Report, mut build: impl FnMut(&mut Report) -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let built = build(report);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    let median = stats::median(&times).expect("at least one set-up");
    report.note(
        "setup_times_s",
        serde_json::Value::Array(times.iter().map(|&t| crate::report::num(t)).collect()),
    );
    (last.expect("at least one set-up"), median)
}

/// Call `f` in five batches, each lasting a fifth of `budget` and at
/// least three calls, and return the median per-call time.
fn time_per_call(budget: Duration, mut f: impl FnMut()) -> Duration {
    let mut per_call = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut reps = 0u32;
        while reps < 3 || t0.elapsed() < budget / 5 {
            f();
            reps += 1;
        }
        per_call.push(t0.elapsed().as_secs_f64() / f64::from(reps));
    }
    Duration::from_secs_f64(stats::median(&per_call).expect("five batches"))
}

/// `plan.*`: `PlanExecutor::eval_batch_raw` time per sample at a batch
/// of `rows` (`model.num_vars()` bytes each), plus the plan's size.
pub fn plan_metrics(report: &mut Report, model: NipsBenchmark, rows: &[u8]) {
    let plan = CompiledPlan::compile(&model.build_spn());
    let mut ex = PlanExecutor::new(&plan);
    let mut out = Vec::with_capacity(rows.len());
    let n = rows.len() / model.num_vars();
    let t = time_per_call(Duration::from_millis(500), || {
        out.clear();
        ex.eval_batch_raw(
            &Query::Complete,
            black_box(rows),
            model.num_vars(),
            &mut out,
        );
        black_box(&out);
    });
    report.metric(
        "plan.ns_per_sample",
        t.as_secs_f64() * 1e9 / n as f64,
        n as u64,
    );
    let st = plan.stats();
    report.metric("plan.ops_per_sample", st.ops as f64, 1);
    report.metric("plan.table_bytes", st.table_bytes as f64, 1);
}

/// `device.*`: `AcceleratorCore::run_job` time per sample at a job of
/// `rows`, and the virtual-time model's end-to-end rate for the same
/// model and PE count.
pub fn device_metrics(report: &mut Report, model: NipsBenchmark, pes: u32, rows: &[u8]) {
    let spn = model.build_spn();
    let core = AcceleratorCore::new(
        AcceleratorConfig::paper_default(),
        DatapathProgram::compile(&spn),
        AnyFormat::paper_default(),
    );
    let n = rows.len() / model.num_vars();
    let t = time_per_call(Duration::from_millis(500), || {
        black_box(core.run_job(black_box(rows)));
    });
    report.metric(
        "device.ns_per_sample",
        t.as_secs_f64() * 1e9 / n as f64,
        n as u64,
    );
    let mut cfg = spn_runtime::PerfConfig::paper_setup(model, pes);
    cfg.total_samples = 1 << 24;
    let modelled = spn_runtime::simulate(&cfg).samples_per_sec;
    report.metric("device.modelled_samples_per_s", modelled, cfg.total_samples);
}

/// `protocol.decode_us_per_request`: `FrameDecoder` plus
/// `InferRequest::decode` over the wire bytes of `payloads`.
pub fn decode_metric(
    report: &mut Report,
    model: &str,
    num_features: u32,
    payloads: &[(&[u8], u32)],
) {
    let frames: Vec<Vec<u8>> = payloads
        .iter()
        .map(|&(data, samples)| {
            let req = InferRequest {
                model: model.to_string(),
                deadline_ms: 0,
                num_samples: samples,
                num_features,
                data: data.to_vec(),
                trace: false,
                ctx: SpanCtx::NONE,
            };
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &Frame::request(Opcode::Infer, req.encode()))
                .expect("encode into memory");
            bytes
        })
        .collect();
    let t = time_per_call(Duration::from_millis(500), || {
        let mut dec = FrameDecoder::new();
        for bytes in &frames {
            let mut rest = black_box(&bytes[..]);
            let frame = loop {
                let (used, frame) = dec.feed(rest).expect("well-formed frame");
                rest = &rest[used..];
                if let Some(frame) = frame {
                    break frame;
                }
            };
            black_box(InferRequest::decode(&frame.payload).expect("well-formed request"));
        }
    });
    report.metric(
        "protocol.decode_us_per_request",
        t.as_secs_f64() * 1e6 / frames.len() as f64,
        frames.len() as u64,
    );
}

/// Zero every per-layer metric in `names`: the workload does not
/// exercise those layers.
pub fn not_exercised(report: &mut Report, names: &[&str]) {
    for n in names {
        report.metric(n, 0.0, 0);
    }
}
