//! Compiled plan vs tree-walk study — the acceptance record for the
//! plan compiler: per-sample latency of the tree-walking [`Evaluator`]
//! oracle against the batched [`PlanExecutor`] across batch sizes, on
//! the NIPS models. Writes the committed `BENCH_plan.json` at the repo
//! root (a provenance-stamped `RunRecord`), plus the usual `results/`
//! copy; `--quick` shrinks the sweep for CI, `--out PATH` redirects
//! the artifact and `--runs DIR` appends to a run store.
//!
//! Methodology: each (path, batch) cell is timed over enough
//! repetitions to exceed a fixed wall-clock budget and the *best*
//! per-sample time is kept — minimum-of-N is robust against scheduler
//! noise, and both paths get identical data and identical treatment.
//!
//! `spn bench diff` compares only the `speedup` column across runs:
//! the ratio cancels the host's absolute speed, so it is the one
//! number here that is comparable across machines.
//!
//! The record also carries each model's transcendental floor: the
//! plan's `exp`/`ln` calls per sample ([`spn_core::PlanStats`]) times
//! this host's measured libm throughput, before and after the
//! executor's `exp(0)` shortcut (which skips each sum's max term). The
//! gap between the floor and `plan_ns_per_sample` is the executor's
//! own overhead: leaf gathers, vector adds and maxima, dispatch.

use bench::{jobj, write_study_record, StudyArgs, Table};
use serde::Serialize;
use serde_json::Value;
use spn_core::{CompiledPlan, Dataset, Evaluator, NipsBenchmark, PlanExecutor, Query, Spn};
use spn_telemetry::{RunKind, RunRecord};
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Point {
    model: &'static str,
    batch: usize,
    treewalk_ns_per_sample: f64,
    plan_ns_per_sample: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Floor {
    model: &'static str,
    exp_per_sample: usize,
    ln_per_sample: usize,
    /// Every `exp` and `ln` call at the measured libm cost.
    floor_ns_per_sample: f64,
    /// The same with each sum's max term skipped by the shortcut.
    shortcut_floor_ns_per_sample: f64,
}

/// Best per-sample nanoseconds over repeated timed runs of `f`
/// (which evaluates `batch` samples per call).
fn best_ns_per_sample(batch: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    // Warm up caches and lazy allocations.
    f();
    let mut best = f64::INFINITY;
    let t_all = Instant::now();
    while t_all.elapsed() < budget {
        let t0 = Instant::now();
        f();
        let ns = t0.elapsed().as_nanos() as f64 / batch as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Best nanoseconds per call of `f` over `args` (independent calls,
/// results stored: libm throughput, not latency).
fn libm_ns(args: &[f64], budget: Duration, f: fn(f64) -> f64) -> f64 {
    let mut out = vec![0.0; args.len()];
    best_ns_per_sample(args.len(), budget, || {
        for (o, &x) in out.iter_mut().zip(args) {
            *o = f(std::hint::black_box(x));
        }
        std::hint::black_box(&out);
    })
}

fn measure(
    spn: &Spn,
    plan: &CompiledPlan,
    data: &Dataset,
    batch: usize,
    budget: Duration,
) -> (f64, f64) {
    let slab = &data.raw()[..batch * data.num_features()];
    let nf = data.num_features();

    let mut ev = Evaluator::new(spn);
    let tree = best_ns_per_sample(batch, budget, || {
        let mut acc = 0.0;
        for row in slab.chunks_exact(nf) {
            acc += ev.eval_bytes(&Query::Complete, row);
        }
        std::hint::black_box(acc);
    });

    let mut ex = PlanExecutor::new(plan);
    let mut out = Vec::with_capacity(batch);
    let fast = best_ns_per_sample(batch, budget, || {
        out.clear();
        ex.eval_batch_raw(&Query::Complete, slab, nf, &mut out);
        std::hint::black_box(out.last().copied());
    });
    (tree, fast)
}

fn main() {
    let args = StudyArgs::parse();
    // Quick mode (CI's perf-gate candidate): a subset of models and
    // batch sizes on a shorter budget. The diff matches points by
    // (model, batch) label, so a subset diffs cleanly against the
    // full committed baseline.
    let batches: &[usize] = if args.quick {
        &[1, 64, 4096]
    } else {
        &[1, 8, 64, 256, 4096]
    };
    let models: &[NipsBenchmark] = if args.quick {
        &[NipsBenchmark::Nips10, NipsBenchmark::Nips20]
    } else {
        &[
            NipsBenchmark::Nips10,
            NipsBenchmark::Nips20,
            NipsBenchmark::Nips30,
            NipsBenchmark::Nips40,
            NipsBenchmark::Nips80,
        ]
    };
    let budget = Duration::from_millis(if args.quick { 40 } else { 120 });

    println!("Compiled plan vs tree-walk oracle (complete-evidence query)\n");
    let mut table = Table::new(vec![
        "model",
        "batch",
        "treewalk [ns/sample]",
        "plan [ns/sample]",
        "speedup",
    ]);

    // Arguments shaped like the executor's: `x − m` in [-30, 0) for
    // `exp`, the weighted sum `s` in [1, 3) for `ln`.
    let ramp = |lo: f64, hi: f64| -> Vec<f64> {
        (0..4096)
            .map(|i| lo + (hi - lo) * ((i * 7919) % 4096) as f64 / 4096.0)
            .collect()
    };
    let exp_ns = libm_ns(&ramp(-30.0, -1e-3), budget, f64::exp);
    let ln_ns = libm_ns(&ramp(1.0, 3.0), budget, f64::ln);

    let mut compile_micros = Vec::new();
    let mut points = Vec::new();
    let mut floors = Vec::new();
    for &bench in models {
        let spn = bench.build_spn();
        let data = bench.dataset(4096, 42);

        let t0 = Instant::now();
        let plan = CompiledPlan::compile(&spn);
        compile_micros.push((bench.name().to_string(), t0.elapsed().as_secs_f64() * 1e6));
        let st = plan.stats();
        let (exps, lns) = (st.exp_per_sample as f64, st.ln_per_sample as f64);
        floors.push(Floor {
            model: bench.name(),
            exp_per_sample: st.exp_per_sample,
            ln_per_sample: st.ln_per_sample,
            floor_ns_per_sample: exps * exp_ns + lns * ln_ns,
            shortcut_floor_ns_per_sample: (exps - lns) * exp_ns + lns * ln_ns,
        });

        for &batch in batches {
            let (tree, fast) = measure(&spn, &plan, &data, batch, budget);
            let speedup = tree / fast;
            table.row(vec![
                bench.name().to_string(),
                batch.to_string(),
                format!("{tree:.1}"),
                format!("{fast:.1}"),
                format!("{speedup:.2}x"),
            ]);
            points.push(Point {
                model: bench.name(),
                batch,
                treewalk_ns_per_sample: tree,
                plan_ns_per_sample: fast,
                speedup,
            });
        }
    }
    table.print();

    println!("\nlibm throughput: exp {exp_ns:.2} ns, ln {ln_ns:.2} ns per call\n");
    let mut floor_table = Table::new(vec![
        "model",
        "exp/sample",
        "ln/sample",
        "floor [ns/sample]",
        "after exp(0) shortcut",
    ]);
    for f in &floors {
        floor_table.row(vec![
            f.model.to_string(),
            f.exp_per_sample.to_string(),
            f.ln_per_sample.to_string(),
            format!("{:.1}", f.floor_ns_per_sample),
            format!("{:.1}", f.shortcut_floor_ns_per_sample),
        ]);
    }
    floor_table.print();

    let worst_big_batch = points
        .iter()
        .filter(|p| p.batch >= 64)
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);

    let config = jobj(vec![
        (
            "methodology",
            Value::String(
                "best-of-N per-sample latency over a fixed budget per cell; \
                 single thread; identical data; Query::Complete"
                    .to_string(),
            ),
        ),
        (
            "budget_ms_per_cell",
            (budget.as_millis() as u64).serialize(),
        ),
        ("batches", batches.serialize()),
        (
            "models",
            models
                .iter()
                .map(|m| m.name().to_string())
                .collect::<Vec<_>>()
                .serialize(),
        ),
        ("quick", Value::Bool(args.quick)),
    ]);
    let metrics = jobj(vec![
        ("compile_micros", compile_micros.serialize()),
        ("points", points.serialize()),
        ("libm_exp_ns", exp_ns.serialize()),
        ("libm_ln_ns", ln_ns.serialize()),
        ("floors", floors.serialize()),
    ]);
    let record = RunRecord::new("plan_study", RunKind::Bench, config, metrics);
    write_study_record(
        &record,
        args.out.as_deref().unwrap_or("BENCH_plan.json"),
        args.runs.as_deref(),
    );

    println!("\nworst speedup at batch >= 64: {worst_big_batch:.2}x (target >= 3x)");
}
