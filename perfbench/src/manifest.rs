//! The benchmark's workloads and metrics, and the `BENCHMARK.json`
//! manifest rendered from them. `perfbench --write-manifest` rewrites
//! the manifest; a test keeps the committed copy in step with this
//! module.

/// Seconds one run measures (`--seconds` default).
pub const RUN_SECONDS: u64 = 20;

/// Directories holding the benchmark, relative to the repository root.
pub const PATHS: [&str; 1] = ["perfbench"];

/// A workload: a name and the one-line reason it exists.
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
}

/// The workloads, in the order the manifest lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "bulk_plan",
        why: "paper's bulk use case: repeated SpnRuntime::run on NIPS80 over the host plan on 2 PEs; \
              plan executor and block fan-out do the work, no serving layer",
    },
    Workload {
        name: "online_small",
        why: "open-loop 1-sample NIPS10 requests through the router to 2 reactor servers on the host \
              plan; per-request overhead dominates, plan work is negligible",
    },
    Workload {
        name: "online_mixed",
        why: "open-loop NIPS80 requests of 1-4 samples plus multi-block ones, direct to one server on \
              the 2-PE CFP device; small requests batch behind large ones",
    },
];

/// One reported metric.
pub struct Metric {
    /// Key in the result line.
    pub name: &'static str,
    /// Unit printed with the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every untraced run. The p99
/// latencies and the online workloads' highest sustainable rate
/// (`max_rate_rps`) are printed and recorded too, but they are not
/// gated: see `METHODOLOGY.md`.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("samples_per_s", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("large_p50_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.2),
];

/// Per-layer metrics, printed by every traced run (zero where the
/// workload does not exercise the layer).
pub const PER_LAYER: [Metric; 31] = [
    layer("router.added_p50_ms", "ms", "lower"),
    layer("router.backend_share_max", "share", "lower"),
    layer("router.failovers", "count", "lower"),
    layer("reactor.events_per_request", "events/req", "lower"),
    layer("reactor.loop_iterations_per_request", "iter/req", "lower"),
    layer("protocol.decode_us_per_request", "us", "lower"),
    layer("batcher.queue_wait_p50_ms", "ms", "lower"),
    layer("batcher.queue_wait_p99_ms", "ms", "lower"),
    layer("batcher.requests_per_batch", "req/batch", "higher"),
    layer("batcher.batch_samples_p50", "samples", "higher"),
    layer("scheduler.pe_busy_share_min", "share", "higher"),
    layer("scheduler.pe_busy_share_max", "share", "higher"),
    layer("scheduler.blocks_per_job", "blocks/job", "higher"),
    layer("scheduler.block_retries", "count", "lower"),
    layer("plan_cache.hit_ratio", "share", "higher"),
    layer("plan.ns_per_sample", "ns", "lower"),
    layer("plan.ops_per_sample", "ops", "lower"),
    layer("plan.table_bytes", "bytes", "lower"),
    layer("device.ns_per_sample", "ns", "lower"),
    layer("device.modelled_samples_per_s", "1/s", "higher"),
    layer("process.cpu_us_per_op", "us", "lower"),
    layer("driver.late_p99_ms", "ms", "lower"),
    layer("span.e2e_mean_us", "us", "lower"),
    layer("span.router_us", "us", "lower"),
    layer("span.server_us", "us", "lower"),
    layer("span.queue_us", "us", "lower"),
    layer("span.execute_us", "us", "lower"),
    layer("span.reply_us", "us", "lower"),
    layer("span.spans_per_op", "spans/op", "lower"),
    layer("trace.overhead_p50_ms", "ms", "lower"),
    layer("trace.overhead_share", "share", "lower"),
];

/// Look up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_line(m: &Metric) -> String {
    let mut line = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quoted(m.name),
        quoted(m.unit),
        quoted(m.better)
    );
    if let Some(b) = m.bound {
        line.push_str(&format!(", \"bound\": {b}"));
    }
    line.push('}');
    line
}

fn list(items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
    format!("[\n{}\n  ]", items.join(",\n"))
}

/// The full text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.iter().map(|c| quoted(c)).collect::<Vec<_>>().join(", "),
        PATHS.iter().map(|p| quoted(p)).collect::<Vec<_>>().join(", "),
        RUN_SECONDS,
        list(WORKLOADS.iter().map(|w| format!("{{\"name\": {}, \"why\": {}}}", quoted(w.name), quoted(w.why)))),
        list(END_TO_END.iter().map(metric_line)),
        list(PER_LAYER.iter().map(metric_line)),
    )
}
