//! Open-loop load: seeded arrival schedules and the due-time load loop.
//!
//! Each load thread owns one blocking connection and its own Poisson
//! arrival stream at `rate / threads`, so the merged stream is Poisson
//! at `rate`. A request is sent when it falls due or, if the
//! connection is still busy with an earlier request, as soon as that
//! one completes. Its latency is measured from the moment it was
//! **due**, not from when it was sent: a stall anywhere in the stack
//! is charged to every request that queued behind it, which is what a
//! user arriving on that schedule would see. How late the load generator sent
//! each request is reported separately as its lateness.

use sim_core::SplitMix64;
use std::time::{Duration, Instant};

/// One scheduled request: when it falls due (offset from the start of
/// the phase) and which pool payload it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, relative to the start of the phase.
    pub due: Duration,
    /// Index into the workload's payload pool.
    pub payload: usize,
}

/// Seed of load thread `thread` for phase `phase` of a run seeded
/// with `seed`: distinct, reproducible streams per thread and phase.
pub fn stream_seed(seed: u64, phase: u64, thread: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut s = rng.next_u64();
    for _ in 0..=thread {
        s = rng.next_u64();
    }
    s
}

/// Poisson arrivals at `rate_per_s` over `[0, span)`, each carrying a
/// payload drawn uniformly from a pool of `pool_len` entries. The same
/// arguments always give the same schedule.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    span: Duration,
    pool_len: usize,
) -> Vec<Arrival> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    assert!(pool_len > 0, "payload pool is empty");
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; `1 - u` keeps the log finite.
        t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        let due = Duration::from_secs_f64(t);
        if due >= span {
            return out;
        }
        out.push(Arrival {
            due,
            payload: rng.next_below(pool_len as u64) as usize,
        });
    }
}

/// Time source of the load loop; the tests substitute a virtual one.
pub trait Clock {
    /// Time elapsed since the start of the phase.
    fn now(&self) -> Duration;
    /// Block until [`Clock::now`] reaches `t` (returns at once if it has).
    fn sleep_until(&self, t: Duration);
}

/// The real clock, anchored at the start of a phase.
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose zero is `epoch`.
    pub fn starting_at(epoch: Instant) -> WallClock {
        WallClock { epoch }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        // `now` reads zero until the epoch is reached, so loop.
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            std::thread::sleep(t - now);
        }
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// When it fell due.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its reply had been received and checked.
    pub done: Duration,
    /// Whether the reply was `Ok` and matched the oracle bit for bit.
    pub ok: bool,
    /// The payload it carried.
    pub payload: usize,
}

impl Outcome {
    /// Latency from due time to checked reply.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the request was sent.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Everything one load thread saw in one phase.
#[derive(Debug, Clone, Default)]
pub struct DriveReport {
    /// One outcome per request sent, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// Requests never sent because the load generator fell more than the
    /// give-up bound behind schedule.
    pub abandoned: usize,
}

/// Run `arrivals` in order on one blocking connection. `send(payload)`
/// performs one round trip and returns whether the reply was correct.
/// If the loop falls more than `give_up` behind a request's due
/// time, it stops and counts the rest as abandoned, so an overloaded
/// phase ends instead of draining an ever-growing backlog.
pub fn drive<C: Clock>(
    clock: &C,
    arrivals: &[Arrival],
    give_up: Duration,
    mut send: impl FnMut(usize) -> bool,
) -> DriveReport {
    let mut report = DriveReport::default();
    for (i, a) in arrivals.iter().enumerate() {
        clock.sleep_until(a.due);
        let sent = clock.now();
        if sent.saturating_sub(a.due) > give_up {
            report.abandoned = arrivals.len() - i;
            break;
        }
        let ok = send(a.payload);
        report.outcomes.push(Outcome {
            due: a.due,
            sent,
            done: clock.now(),
            ok,
            payload: a.payload,
        });
    }
    report
}

/// How much the sending lateness grew over a phase: the median
/// lateness of the last quarter of requests minus that of the first
/// quarter (zero if it shrank). A backlog that keeps growing means the
/// offered rate is above what the stack sustains, even while its p99
/// still looks acceptable.
pub fn lateness_growth(outcomes: &[Outcome]) -> Duration {
    let q = outcomes.len() / 4;
    if q == 0 {
        return Duration::ZERO;
    }
    let med = |part: &[Outcome]| {
        let mut v: Vec<Duration> = part.iter().map(Outcome::lateness).collect();
        v.sort();
        v[v.len() / 2]
    };
    med(&outcomes[outcomes.len() - q..]).saturating_sub(med(&outcomes[..q]))
}
