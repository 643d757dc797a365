//! The online workloads: seeded open-loop requests over TCP through
//! the real serving stack (router, reactor, protocol, batcher,
//! scheduler, executor), every reply checked bit for bit.

use crate::common::{self, Oracle, RunCtx};
use crate::report::{int, num, obj, text, Report};
use perfbench::load::{
    self, drive, lateness_growth, poisson_schedule, stream_seed, Outcome, WallClock,
};
use perfbench::search::{self, Probe};
use perfbench::stats::{self, Latency, QuietHalf};
use serde_json::Value;
use sim_core::SplitMix64;
use spn_core::NipsBenchmark;
use spn_router::{RouterConfig, SpnRouter};
use spn_runtime::{ExecBackend, JobOptions, PlanCache, Scheduler, SpanKind, TraceCollector};
use spn_server::{Client, ModelSpec, ServerConfig, SpnServer, TelemetrySnapshot};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduler block size of the online stacks (the batcher's jobs are
/// split into blocks of this many samples across the PEs).
const BLOCK_SAMPLES: u64 = 256;
/// Closed-loop requests per connection that warm a freshly built stack.
const WARMUP_REQUESTS: usize = 50;
/// Requests a latency class needs for its p99 to be reportable.
const MIN_TAIL_REQUESTS: f64 = 1100.0;
/// Steal share above which the reference phase is run again.
const MAX_PHASE_STEAL: f64 = 0.10;
/// Steal share above which a max-rate probe is run again.
const MAX_PROBE_STEAL: f64 = 0.05;
/// Extra attempts a disturbed probe gets.
const PROBE_RETRIES: u64 = 1;

/// One online workload.
pub struct Spec {
    /// Served model.
    pub model: NipsBenchmark,
    /// Backend every batch runs on.
    pub backend: ExecBackend,
    /// Oracle the replies must match.
    pub oracle: Oracle,
    /// Backend servers.
    pub servers: usize,
    /// Whether clients go through an `SpnRouter` in front of them.
    pub routed: bool,
    /// PEs per server.
    pub pes: u32,
    /// Pool payloads of 1..=`small_max` samples.
    pub pool_small: usize,
    /// Largest small request, in samples.
    pub small_max: u32,
    /// Pool payloads of `large_min..=large_max` samples.
    pub pool_large: usize,
    /// Smallest large request, in samples.
    pub large_min: u32,
    /// Largest large request, in samples.
    pub large_max: u32,
    /// Offered rate at which latency is reported, requests/s.
    pub reference_rps: f64,
    /// Offered-rate ladder of the max-rate search, requests/s.
    pub steps: &'static [f64],
    /// p99 latency limit of the max-rate search, ms.
    pub limit_ms: f64,
}

/// 1-sample NIPS10 requests, router in front of two host-plan servers.
pub const SMALL: Spec = Spec {
    model: NipsBenchmark::Nips10,
    backend: ExecBackend::HostPlan,
    oracle: Oracle::TreeWalk,
    servers: 2,
    routed: true,
    pes: 2,
    pool_small: 4096,
    small_max: 1,
    pool_large: 0,
    large_min: 0,
    large_max: 0,
    reference_rps: 500.0,
    steps: &[
        250.0, 300.0, 360.0, 430.0, 520.0, 620.0, 750.0, 900.0, 1080.0, 1300.0, 1550.0, 1870.0,
        2240.0, 2690.0, 3220.0, 3870.0, 4640.0, 5570.0,
    ],
    limit_ms: 50.0,
};

/// NIPS80 requests of 1-4 samples plus a 5% share of 4-8-block ones,
/// direct to one server on the 2-PE CFP device.
pub const MIXED: Spec = Spec {
    model: NipsBenchmark::Nips80,
    backend: ExecBackend::Device,
    oracle: Oracle::Core,
    servers: 1,
    routed: false,
    pes: 2,
    pool_small: 380,
    small_max: 4,
    pool_large: 20,
    large_min: 4 * BLOCK_SAMPLES as u32,
    large_max: 8 * BLOCK_SAMPLES as u32,
    reference_rps: 200.0,
    steps: &[
        50.0, 60.0, 72.0, 86.0, 100.0, 120.0, 145.0, 175.0, 210.0, 250.0, 300.0, 360.0, 430.0,
        520.0, 620.0, 750.0, 900.0,
    ],
    limit_ms: 250.0,
};

/// One request body of the seeded pool and its expected reply bits.
pub struct Payload {
    data: Vec<u8>,
    samples: u32,
    expected: Vec<u64>,
}

impl Spec {
    fn has_large(&self) -> bool {
        self.pool_large > 0
    }

    fn num_features(&self) -> u32 {
        self.model.num_vars() as u32
    }

    /// Mean samples per request over the pool (payloads are drawn
    /// uniformly from it).
    fn mean_samples(&self, pool: &[Payload]) -> f64 {
        pool.iter().map(|p| f64::from(p.samples)).sum::<f64>() / pool.len() as f64
    }

    /// Share of requests in the small class.
    fn small_share(&self) -> f64 {
        self.pool_small as f64 / (self.pool_small + self.pool_large) as f64
    }
}

/// The seeded payload pool with oracle answers: replies are `ln` of
/// the backend's linear probability, so the expected bits are too.
pub fn pool(spec: &Spec, seed: u64) -> Vec<Payload> {
    let mut rng = SplitMix64::new(seed ^ 0x504F_4F4C);
    let mut sizes: Vec<u32> = (0..spec.pool_small)
        .map(|_| 1 + rng.next_below(u64::from(spec.small_max)) as u32)
        .collect();
    sizes.extend((0..spec.pool_large).map(|_| {
        spec.large_min + rng.next_below(u64::from(spec.large_max - spec.large_min + 1)) as u32
    }));
    let total: usize = sizes.iter().map(|&s| s as usize).sum();
    let data = spec.model.dataset(total, seed);
    let probs = common::expected_probabilities(spec.model, spec.oracle, data.raw());
    let nf = spec.model.num_vars();
    let mut at = 0usize;
    sizes
        .into_iter()
        .map(|s| {
            let n = s as usize;
            let p = Payload {
                data: data.raw()[at * nf..(at + n) * nf].to_vec(),
                samples: s,
                expected: probs[at..at + n].iter().map(|p| p.ln().to_bits()).collect(),
            };
            at += n;
            p
        })
        .collect()
}

/// A running stack plus its load connections. Field order is drop
/// order: connections close before the router and servers drain.
struct Stack {
    clients: Vec<Client>,
    router: Option<SpnRouter>,
    servers: Vec<SpnServer>,
    schedulers: Vec<Arc<Scheduler>>,
    caches: Vec<Arc<PlanCache>>,
}

/// Send one pooled request on `client`; returns `(ok, mismatched)`.
fn round_trip(client: &mut Client, spec: &Spec, p: &Payload) -> (bool, bool) {
    match client
        .request(spec.model.name())
        .samples(&p.data, p.samples, spec.num_features())
        .send()
    {
        Ok(v) => {
            let same = v.len() == p.expected.len()
                && v.iter().zip(&p.expected).all(|(x, &e)| x.to_bits() == e);
            (same, !same)
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            let _ = client.reconnect();
            (false, false)
        }
    }
}

/// Build servers (and router), dial one connection per load thread
/// and warm the stack up with checked closed-loop requests.
fn build(
    spec: &Spec,
    ctx: &RunCtx,
    pool: &[Payload],
    trace: Option<Arc<TraceCollector>>,
    report: &mut Report,
) -> Stack {
    let opts = JobOptions::builder()
        .backend(spec.backend)
        .build()
        .expect("valid job options");
    let mut servers = Vec::new();
    let mut schedulers = Vec::new();
    let mut caches = Vec::new();
    for _ in 0..spec.servers {
        let dev = common::device(spec.model.build_spn(), spec.pes);
        let (sched, cache) = common::scheduler(dev, BLOCK_SAMPLES, trace.clone());
        let model = ModelSpec::new(
            spec.model.name(),
            Arc::clone(&sched),
            spec.num_features(),
            256,
        )
        .with_opts(opts);
        let config = ServerConfig {
            trace: trace.clone(),
            ..ServerConfig::default()
        };
        servers.push(SpnServer::serve(config, vec![model]).expect("server starts"));
        schedulers.push(sched);
        caches.push(cache);
    }
    let router = spec.routed.then(|| {
        SpnRouter::start(RouterConfig {
            backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
            trace: trace.clone(),
            ..RouterConfig::default()
        })
        .expect("router starts")
    });
    let target = router
        .as_ref()
        .map_or_else(|| servers[0].local_addr(), SpnRouter::local_addr);
    let mut clients: Vec<Client> = (0..ctx.threads)
        .map(|_| {
            let mut c = Client::connect(target).expect("dial the stack");
            c.set_io_timeout(Some(Duration::from_secs(30)))
                .expect("set timeout");
            c
        })
        .collect();
    for (t, c) in clients.iter_mut().enumerate() {
        for i in 0..WARMUP_REQUESTS {
            let (ok, bad) = round_trip(c, spec, &pool[(t * 7919 + i * 31) % pool.len()]);
            report.ops(1, u64::from(!ok));
            report.mismatches += u64::from(bad);
        }
    }
    Stack {
        clients,
        router,
        servers,
        schedulers,
        caches,
    }
}

/// One open-loop phase at `rate` requests/s over `span`.
struct Phase {
    outcomes: Vec<Outcome>,
    abandoned: usize,
    mismatches: u64,
    start: Instant,
    wall: Duration,
    cpu: Duration,
    /// Steal share of each one-second sub-window (for the record).
    shares: Vec<f64>,
    /// The quieter half of its one-second sub-windows.
    quiet: QuietHalf,
    /// Steal share over the whole phase.
    steal_share: f64,
}

impl Phase {
    fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !o.ok).count() as u64
    }

    /// Requests that fell due in the quieter half of the phase.
    fn quiet_outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().filter(|o| self.quiet.contains(o.due))
    }

    /// Latencies in ms of quiet-half requests whose size passes `keep`.
    fn latencies_ms(&self, pool: &[Payload], keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.quiet_outcomes()
            .filter(|o| keep(pool[o.payload].samples))
            .map(|o| o.latency().as_secs_f64() * 1e3)
            .collect()
    }

    /// Latency over the quiet half.
    fn latency(&self, pool: &[Payload]) -> Latency {
        Latency::of(&self.latencies_ms(pool, |_| true)).expect("phase completed requests")
    }

    /// Tail latency over every request of the phase: the p99, or for a
    /// probe too short to hold ten requests beyond its p99, the latency
    /// with ten beyond it. Infinite when not even that many completed.
    fn tail_all_ms(&self) -> f64 {
        let mut v: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.latency().as_secs_f64() * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        match stats::tail_quantile(&v, 0.99) {
            Some(p99) => p99,
            None if v.len() > stats::MIN_BEYOND => v[v.len() - stats::MIN_BEYOND - 1],
            None => f64::INFINITY,
        }
    }
}

/// One open-loop phase to run: its seed stream, rate, length, and how
/// far behind schedule the load generator may fall before abandoning it.
struct Plan {
    seed: u64,
    id: u64,
    rate: f64,
    span: Duration,
    give_up: Duration,
}

fn run_phase(clients: &mut [Client], spec: &Spec, pool: &[Payload], plan: Plan) -> Phase {
    let Plan {
        seed,
        id: phase_id,
        rate,
        span,
        give_up,
    } = plan;
    let threads = clients.len();
    let cpu0 = perfbench::procfs::cpu_time().unwrap_or_default();
    let start = Instant::now() + Duration::from_millis(20);
    let sampler = perfbench::procfs::StealSampler::start(start);
    let results: Vec<(load::DriveReport, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let sched = poisson_schedule(
                    stream_seed(seed, phase_id, t as u64),
                    rate / threads as f64,
                    span,
                    pool.len(),
                );
                s.spawn(move || {
                    let clock = WallClock::starting_at(start);
                    let mut mismatches = 0u64;
                    let rep = drive(&clock, &sched, give_up, |i| {
                        let (ok, bad) = round_trip(client, spec, &pool[i]);
                        mismatches += u64::from(bad);
                        ok
                    });
                    (rep, mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let wall = start.elapsed();
    let ticks = sampler.finish();
    let shares = stats::steal_shares(&ticks);
    let steal_share = stats::steal_shares(&[ticks[0], ticks[ticks.len() - 1]])[0];
    let cpu = perfbench::procfs::cpu_time()
        .unwrap_or_default()
        .saturating_sub(cpu0);
    let mut outcomes = Vec::new();
    let mut abandoned = 0;
    let mut mismatches = 0;
    for (rep, m) in results {
        outcomes.extend(rep.outcomes);
        abandoned += rep.abandoned;
        mismatches += m;
    }
    outcomes.sort_by_key(|o| o.due);
    Phase {
        outcomes,
        abandoned,
        mismatches,
        start,
        wall,
        cpu,
        quiet: QuietHalf::from_ticks(&ticks, wall),
        shares,
        steal_share,
    }
}

/// Count a phase's requests into the report. Requests the load generator
/// abandoned count as failed unless `abandon_ok` (overload probes end
/// by abandoning their backlog on purpose).
fn tally(report: &mut Report, ph: &Phase, abandon_ok: bool) {
    let abandoned = if abandon_ok { 0 } else { ph.abandoned as u64 };
    report.ops(
        ph.outcomes.len() as u64 + abandoned,
        ph.failed() + abandoned,
    );
    report.mismatches += ph.mismatches;
}

/// What [`saturate`] measured.
struct Saturation {
    requests: u64,
    failed: u64,
    mismatches: u64,
    /// Samples answered per second over the quieter half of the phase.
    samples_per_s: f64,
}

/// Closed loop for `span`: each connection sends seeded pool payloads
/// back to back. Throughput is taken over the quieter half of the
/// phase's one-second sub-windows, as in the bulk workload.
fn saturate(
    clients: &mut [Client],
    spec: &Spec,
    pool: &[Payload],
    seed: u64,
    span: Duration,
) -> Saturation {
    let start = Instant::now();
    let sampler = perfbench::procfs::StealSampler::start(start);
    // Per connection: (completion offset, samples) of each answered
    // request, failures, mismatches.
    type Conn = (Vec<(Duration, u32)>, u64, u64);
    let per_thread: Vec<Conn> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mut rng = SplitMix64::new(stream_seed(seed, 1, t as u64));
                    let (mut done, mut failed, mut mismatches) = (Vec::new(), 0, 0);
                    while start.elapsed() < span {
                        let p = &pool[rng.next_below(pool.len() as u64) as usize];
                        let (ok, bad) = round_trip(client, spec, p);
                        if ok {
                            done.push((start.elapsed(), p.samples));
                        }
                        failed += u64::from(!ok);
                        mismatches += u64::from(bad);
                    }
                    (done, failed, mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let quiet = QuietHalf::from_ticks(&sampler.finish(), start.elapsed());
    let mut sat = Saturation {
        requests: 0,
        failed: 0,
        mismatches: 0,
        samples_per_s: 0.0,
    };
    let mut quiet_samples = 0u64;
    for (done, failed, mismatches) in per_thread {
        sat.requests += done.len() as u64 + failed;
        sat.failed += failed;
        sat.mismatches += mismatches;
        quiet_samples += done
            .iter()
            .filter(|(t, _)| quiet.contains(*t))
            .map(|&(_, n)| u64::from(n))
            .sum::<u64>();
    }
    sat.samples_per_s = quiet_samples as f64 / quiet.seconds();
    sat
}

/// Span long enough for `share` of requests at `rate` to give a
/// reportable p99, and at least `min`.
fn span_for(rate: f64, share: f64, min: f64) -> Duration {
    Duration::from_secs_f64(min.max(MIN_TAIL_REQUESTS / (rate * share)))
}

/// Record entry of a phase; its latencies are over the quiet half,
/// which an abandoned overload probe may have left empty.
fn phase_doc(ph: &Phase, pool: &[Payload], rate: f64) -> Value {
    let lat = Latency::of(&ph.latencies_ms(pool, |_| true));
    obj(vec![
        ("offered_rps", num(rate)),
        ("requests", int(ph.outcomes.len() as u64)),
        ("abandoned", int(ph.abandoned as u64)),
        ("failed", int(ph.failed())),
        ("wall_s", num(ph.wall.as_secs_f64())),
        ("p50_ms", lat.map_or(Value::Null, |l| num(l.p50_ms))),
        (
            "p99_ms",
            lat.and_then(|l| l.p99_ms).map_or(Value::Null, num),
        ),
        ("quiet_requests", int(lat.map_or(0, |l| l.count as u64))),
        ("steal_share", num(ph.steal_share)),
        (
            "subwindow_steal_shares",
            Value::Array(ph.shares.iter().map(|&x| num(x)).collect()),
        ),
    ])
}

/// Run an online workload: untraced end-to-end metrics, or the traced
/// per-layer breakdown.
pub fn run(spec: &Spec, ctx: &RunCtx, report: &mut Report) {
    let pool = pool(spec, ctx.seed);
    report.note(
        "workload_config",
        obj(vec![
            ("model", text(spec.model.name())),
            ("backend", text(&format!("{:?}", spec.backend))),
            ("servers", int(spec.servers as u64)),
            ("routed", Value::Bool(spec.routed)),
            ("pes_per_server", int(u64::from(spec.pes))),
            ("block_samples", int(BLOCK_SAMPLES)),
            ("pool_payloads", int(pool.len() as u64)),
            ("mean_samples_per_request", num(spec.mean_samples(&pool))),
            ("reference_rps", num(spec.reference_rps)),
            (
                "rate_steps_rps",
                Value::Array(spec.steps.iter().map(|&r| num(r)).collect()),
            ),
            ("p99_limit_ms", num(spec.limit_ms)),
        ]),
    );
    if ctx.trace {
        traced(spec, ctx, &pool, report);
    } else {
        untraced(spec, ctx, &pool, report);
    }
}

fn untraced(spec: &Spec, ctx: &RunCtx, pool: &[Payload], report: &mut Report) {
    let (mut stack, setup_s) = common::timed_setups(report, |r| build(spec, ctx, pool, None, r));
    report.metric("setup_s", setup_s, common::SETUPS as u64);

    // Latency figures come from the requests that fell due in the
    // quieter half of the phase's one-second sub-windows, which must
    // still hold enough small requests for a reportable p99.
    let span = span_for(
        spec.reference_rps,
        spec.small_share() / 2.0,
        ctx.seconds / 2.0,
    );
    // Steal on this kind of host also comes in stretches longer than a
    // phase, which no choice of sub-windows can avoid: a phase that
    // lost more than `MAX_PHASE_STEAL` of its CPU time is run once more
    // and the calmer attempt is kept.
    let give_up = Duration::from_secs(2);
    let reference = || Plan {
        seed: ctx.seed,
        id: 0,
        rate: spec.reference_rps,
        span,
        give_up,
    };
    let mut ph = run_phase(&mut stack.clients, spec, pool, reference());
    tally(report, &ph, false);
    let mut attempt_steal = vec![num(ph.steal_share)];
    if ph.steal_share > MAX_PHASE_STEAL {
        let again = run_phase(&mut stack.clients, spec, pool, reference());
        tally(report, &again, false);
        attempt_steal.push(num(again.steal_share));
        if again.steal_share < ph.steal_share {
            ph = again;
        }
    }
    report.note(
        "reference_attempt_steal_shares",
        Value::Array(attempt_steal),
    );
    let all = ph.latency(pool);
    let small =
        Latency::of(&ph.latencies_ms(pool, |s| s <= spec.small_max)).expect("small requests");
    let large = if spec.has_large() {
        Latency::of(&ph.latencies_ms(pool, |s| s >= spec.large_min)).expect("large requests")
    } else {
        small
    };
    report.metric("p50_ms", all.p50_ms, all.count as u64);
    report.metric("large_p50_ms", large.p50_ms, large.count as u64);
    report.info(
        "p99_ms",
        all.p99_ms
            .expect("reference phase sized for a reportable p99"),
        "ms",
        all.count as u64,
    );
    report.info(
        "small_p99_ms",
        small
            .p99_ms
            .expect("small class sized for a reportable p99"),
        "ms",
        small.count as u64,
    );
    report.note("reference_phase", phase_doc(&ph, pool, spec.reference_rps));

    // Saturation: every connection sends back to back, so the stack
    // runs as fast as the load generator's connections let it.
    let sat = saturate(
        &mut stack.clients,
        spec,
        pool,
        ctx.seed,
        Duration::from_secs_f64(ctx.seconds * 0.4),
    );
    report.ops(sat.requests, sat.failed);
    report.mismatches += sat.mismatches;
    report.metric("samples_per_s", sat.samples_per_s, sat.requests);
    report.note(
        "saturation",
        obj(vec![
            ("requests", int(sat.requests)),
            ("samples_per_s", num(sat.samples_per_s)),
        ]),
    );

    // Max-rate search over the fixed ladder. A probe is too short to
    // split into sub-windows, so one the hypervisor disturbed (more
    // than `MAX_PROBE_STEAL` of its CPU time stolen) is run again.
    let (probe_min, probe_max) = (ctx.seconds / 10.0, ctx.seconds / 4.0);
    let probe_give_up = Duration::from_secs_f64((spec.limit_ms * 10.0 / 1e3).max(0.25));
    let mut phase_id = 100;
    let mut probe_docs = Vec::new();
    let result = search::search(spec.steps, |rate| {
        let mut attempt = 0;
        let ph = loop {
            phase_id += 1;
            attempt += 1;
            let ph = run_phase(
                &mut stack.clients,
                spec,
                pool,
                Plan {
                    seed: ctx.seed,
                    id: phase_id,
                    rate,
                    span: span_for(rate, 1.0, probe_min).min(Duration::from_secs_f64(probe_max)),
                    give_up: probe_give_up,
                },
            );
            tally(report, &ph, true);
            if ph.steal_share <= MAX_PROBE_STEAL || attempt > PROBE_RETRIES {
                break ph;
            }
        };
        // Score: how far past the p99 limit and past the allowed growth
        // in lateness (half the limit) the probe ran; a failed or
        // abandoned request counts as lateness at the give-up bound.
        let p99 = ph.tail_all_ms();
        let slack_ms = spec.limit_ms / 2.0;
        let growth_ms = lateness_growth(&ph.outcomes).as_secs_f64() * 1e3;
        let mut score = (p99 / spec.limit_ms).max(growth_ms / slack_ms);
        if ph.failed() > 0 || ph.abandoned > 0 {
            score = score.max(probe_give_up.as_secs_f64() * 1e3 / slack_ms);
        }
        let mut doc = phase_doc(&ph, pool, rate);
        if let Value::Object(ref mut kv) = doc {
            kv.push(("p99_all_ms".into(), num(p99.min(1e9))));
            kv.push(("lateness_growth_ms".into(), num(growth_ms)));
            kv.push(("attempts".into(), int(attempt)));
            kv.push(("score".into(), num(score.min(1e9))));
        }
        probe_docs.push(doc);
        Probe { rate, score }
    });
    report.info(
        "max_rate_rps",
        result.max_rate,
        "1/s",
        result.probes.len() as u64,
    );
    report.note(
        "search",
        obj(vec![
            ("max_rate_rps", num(result.max_rate)),
            (
                "highest_passing_step_rps",
                result.highest_pass.map_or(Value::Null, num),
            ),
            ("capped", Value::Bool(result.capped)),
            ("probes", Value::Array(probe_docs)),
        ]),
    );
    drop(stack);
    report.metric(
        "peak_rss_mib",
        perfbench::procfs::peak_rss_mib().expect("VmHWM readable"),
        1,
    );
}

/// Counters summed over a stack's servers, schedulers and router.
#[derive(Default, Clone)]
struct Counters {
    requests: u64,
    batches: u64,
    events: u64,
    iterations: u64,
    jobs: u64,
    blocks: u64,
    retries: u64,
    plan_misses: u64,
    pe_busy: Vec<f64>,
    backend_requests: Vec<u64>,
    failovers: u64,
}

impl Counters {
    fn read(stack: &Stack) -> Counters {
        let mut c = Counters::default();
        for s in &stack.servers {
            let t = s.telemetry_snapshot();
            let serving = t.server.as_ref().expect("server section");
            c.requests += serving.requests_total;
            c.batches += serving.batches_total;
            let r = t.reactor.as_ref().expect("reactor section");
            c.events += r.readiness_events;
            c.iterations += r.loop_iterations;
        }
        for sch in &stack.schedulers {
            let m = sch.metrics_snapshot();
            c.jobs += m.jobs_submitted;
            c.blocks += m.blocks_executed;
            c.retries += m.block_retries;
            c.pe_busy.extend(m.pe_busy_secs);
        }
        c.plan_misses = stack
            .caches
            .iter()
            .map(|k| k.telemetry().cache_misses)
            .sum();
        if let Some(r) = &stack.router {
            let t = r.telemetry_snapshot();
            let rt = t.router.expect("router section");
            c.failovers = rt.failovers_total;
            c.backend_requests = rt.backends.values().map(|b| b.requests_total).collect();
        }
        c
    }

    fn since(&self, before: &Counters) -> Counters {
        let sub = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Counters {
            requests: self.requests - before.requests,
            batches: self.batches - before.batches,
            events: self.events - before.events,
            iterations: self.iterations - before.iterations,
            jobs: self.jobs - before.jobs,
            blocks: self.blocks - before.blocks,
            retries: self.retries - before.retries,
            plan_misses: self.plan_misses - before.plan_misses,
            pe_busy: sub(&self.pe_busy, &before.pe_busy),
            backend_requests: self
                .backend_requests
                .iter()
                .zip(&before.backend_requests)
                .map(|(a, b)| a - b)
                .collect(),
            failovers: self.failovers - before.failovers,
        }
    }
}

/// The busiest server's telemetry (the one that answered most requests).
fn busiest(stack: &Stack) -> TelemetrySnapshot {
    stack
        .servers
        .iter()
        .map(SpnServer::telemetry_snapshot)
        .max_by_key(|t| t.server.as_ref().map_or(0, |s| s.requests_total))
        .expect("at least one server")
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn traced(spec: &Spec, ctx: &RunCtx, pool: &[Payload], report: &mut Report) {
    let half = span_for(spec.reference_rps, 0.5, ctx.seconds / 2.0);
    let give_up = Duration::from_secs(2);
    let rate = spec.reference_rps;

    // Untraced stack: counters and always-on histograms over one
    // reference phase, then (routed workloads) the same schedule
    // straight to a backend for the router's added latency.
    let mut stack = build(spec, ctx, pool, None, report);
    let before = Counters::read(&stack);
    // Every phase of the traced run replays the same schedule.
    let reference = || Plan {
        seed: ctx.seed,
        id: 0,
        rate,
        span: half,
        give_up,
    };
    let ph = run_phase(&mut stack.clients, spec, pool, reference());
    tally(report, &ph, false);
    let d = Counters::read(&stack).since(&before);
    let untraced = ph.latency(pool);
    let busy = busiest(&stack);
    let serving = busy.server.as_ref().expect("server section");
    report.metric(
        "reactor.events_per_request",
        ratio(d.events as f64, d.requests as f64),
        d.requests,
    );
    report.metric(
        "reactor.loop_iterations_per_request",
        ratio(d.iterations as f64, d.requests as f64),
        d.requests,
    );
    report.metric(
        "batcher.queue_wait_p50_ms",
        serving.queue_wait_seconds.p50 * 1e3,
        serving.queue_wait_seconds.count,
    );
    report.metric(
        "batcher.queue_wait_p99_ms",
        serving.queue_wait_seconds.p99 * 1e3,
        serving.queue_wait_seconds.count,
    );
    report.metric(
        "batcher.requests_per_batch",
        ratio(d.requests as f64, d.batches as f64),
        d.batches,
    );
    report.metric(
        "batcher.batch_samples_p50",
        serving.batch_samples.p50,
        serving.batch_samples.count,
    );
    let wall = ph.wall.as_secs_f64();
    let shares: Vec<f64> = d.pe_busy.iter().map(|b| b / wall).collect();
    report.metric(
        "scheduler.pe_busy_share_min",
        shares.iter().copied().fold(f64::INFINITY, f64::min),
        shares.len() as u64,
    );
    report.metric(
        "scheduler.pe_busy_share_max",
        shares.iter().copied().fold(0.0, f64::max),
        shares.len() as u64,
    );
    report.metric(
        "scheduler.blocks_per_job",
        ratio(d.blocks as f64, d.jobs as f64),
        d.jobs,
    );
    report.metric("scheduler.block_retries", d.retries as f64, d.jobs);
    report.metric(
        "process.cpu_us_per_op",
        ratio(ph.cpu.as_secs_f64() * 1e6, ph.outcomes.len() as f64),
        ph.outcomes.len() as u64,
    );
    let mut late: Vec<f64> = ph
        .outcomes
        .iter()
        .map(|o| o.lateness().as_secs_f64() * 1e3)
        .collect();
    late.sort_by(f64::total_cmp);
    report.metric(
        "driver.late_p99_ms",
        stats::tail_quantile(&late, 0.99).expect("reference phase sized for a reportable p99"),
        late.len() as u64,
    );
    match spec.backend {
        ExecBackend::HostPlan => {
            report.metric(
                "plan_cache.hit_ratio",
                1.0 - ratio(d.plan_misses as f64, d.jobs as f64),
                d.jobs,
            );
            let rows: Vec<u8> = pool[0].data.clone();
            common::plan_metrics(report, spec.model, &rows);
            common::not_exercised(
                report,
                &["device.ns_per_sample", "device.modelled_samples_per_s"],
            );
        }
        _ => {
            common::not_exercised(
                report,
                &[
                    "plan_cache.hit_ratio",
                    "plan.ns_per_sample",
                    "plan.ops_per_sample",
                    "plan.table_bytes",
                ],
            );
            let large = pool
                .iter()
                .find(|p| p.samples >= spec.large_min)
                .expect("a large payload");
            common::device_metrics(report, spec.model, spec.pes, &large.data);
        }
    }
    let frames: Vec<(&[u8], u32)> = pool.iter().map(|p| (&p.data[..], p.samples)).collect();
    common::decode_metric(report, spec.model.name(), spec.num_features(), &frames);
    let mut phases = vec![("untraced", phase_doc(&ph, pool, rate))];
    report.note("untraced_telemetry", telemetry_doc(&stack));
    if spec.routed {
        let total: u64 = d.backend_requests.iter().sum();
        let max = d.backend_requests.iter().copied().max().unwrap_or(0);
        report.metric(
            "router.backend_share_max",
            ratio(max as f64, total as f64),
            total,
        );
        report.metric("router.failovers", d.failovers as f64, d.requests);
        let mut direct: Vec<Client> = (0..ctx.threads)
            .map(|_| Client::connect(stack.servers[0].local_addr()).expect("dial a backend"))
            .collect();
        let dph = run_phase(&mut direct, spec, pool, reference());
        tally(report, &dph, false);
        let dl = dph.latency(pool);
        report.metric(
            "router.added_p50_ms",
            untraced.p50_ms - dl.p50_ms,
            dl.count as u64,
        );
        phases.push(("direct", phase_doc(&dph, pool, rate)));
    } else {
        common::not_exercised(
            report,
            &[
                "router.added_p50_ms",
                "router.backend_share_max",
                "router.failovers",
            ],
        );
    }
    drop(stack);

    // Traced stack: the same reference phase with every span collector on.
    let collector = Arc::new(TraceCollector::new());
    let epoch = Instant::now();
    let mut stack = build(spec, ctx, pool, Some(Arc::clone(&collector)), report);
    let tph = run_phase(&mut stack.clients, spec, pool, reference());
    tally(report, &tph, false);
    let traced_lat = tph.latency(pool);
    report.metric(
        "trace.overhead_p50_ms",
        traced_lat.p50_ms - untraced.p50_ms,
        traced_lat.count as u64,
    );
    report.metric(
        "trace.overhead_share",
        (traced_lat.p50_ms - untraced.p50_ms) / untraced.p50_ms,
        traced_lat.count as u64,
    );
    span_metrics(report, &collector, &stack, &tph, epoch);
    phases.push(("traced", phase_doc(&tph, pool, rate)));
    report.note("traced_telemetry", telemetry_doc(&stack));
    report.note("phases", obj(phases));
    drop(stack);
    report.note(
        "peak_rss_mib",
        num(perfbench::procfs::peak_rss_mib().unwrap_or(0.0)),
    );
}

fn telemetry_doc(stack: &Stack) -> Value {
    let mut docs: Vec<Value> = stack
        .servers
        .iter()
        .map(|s| serde_json::from_str(&s.telemetry_snapshot().to_json()).expect("telemetry parses"))
        .collect();
    if let Some(r) = &stack.router {
        docs.push(
            serde_json::from_str(&r.telemetry_snapshot().to_json()).expect("telemetry parses"),
        );
    }
    Value::Array(docs)
}

/// Mean span time per request of each layer over the traced phase.
fn span_metrics(
    report: &mut Report,
    collector: &TraceCollector,
    stack: &Stack,
    ph: &Phase,
    epoch: Instant,
) {
    let from_us = ph.start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let spans: Vec<_> = collector
        .spans()
        .into_iter()
        .filter(|s| s.ts_us >= from_us)
        .collect();
    let n = ph.outcomes.len() as f64;
    let mean = |kinds: &[SpanKind]| -> (f64, u64) {
        let sel: Vec<f64> = spans
            .iter()
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| s.dur_us)
            .collect();
        (ratio(sel.iter().sum(), sel.len() as f64), sel.len() as u64)
    };
    let e2e_us = ph
        .outcomes
        .iter()
        .map(|o| o.latency().as_secs_f64() * 1e6)
        .sum::<f64>()
        / n;
    report.metric("span.e2e_mean_us", e2e_us, n as u64);
    let (queue, nq) = mean(&[SpanKind::RequestQueued]);
    report.metric("span.queue_us", queue, nq);
    // Per block: the host plan records one plan-exec span, the device
    // one h2d, execute and d2h span each.
    let blocks = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::PlanExec | SpanKind::Execute))
        .count() as f64;
    let exec_total: f64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                SpanKind::PlanExec | SpanKind::H2D | SpanKind::Execute | SpanKind::D2H
            )
        })
        .map(|s| s.dur_us)
        .sum();
    report.metric("span.execute_us", ratio(exec_total, blocks), blocks as u64);
    let (reply, nr) = mean(&[SpanKind::ReplyWritten]);
    report.metric("span.reply_us", reply, nr);
    // Server-side end-to-end time, from the always-on histogram
    // (request-weighted across servers).
    let (mut sum, mut count) = (0.0, 0u64);
    for s in &stack.servers {
        let t = s.telemetry_snapshot();
        let e = t.server.expect("server section").e2e_seconds;
        sum += e.mean * e.count as f64;
        count += e.count;
    }
    let server_us = ratio(sum, count as f64) * 1e6;
    report.metric("span.server_us", server_us, count);
    if stack.router.is_some() {
        let (pick, _) = mean(&[SpanKind::RoutePick]);
        let (rpc, nrpc) = mean(&[SpanKind::BackendRpc]);
        report.metric("span.router_us", pick + rpc - server_us, nrpc);
    } else {
        report.metric("span.router_us", 0.0, 0);
    }
    report.metric("span.spans_per_op", spans.len() as f64 / n, n as u64);
}
