//! Tests of the benchmark's own machinery: schedules, due-time
//! accounting, the percentile rule, the rate search and the manifest.

use perfbench::load::{
    drive, lateness_growth, poisson_schedule, stream_seed, Arrival, Clock, Outcome,
};
use perfbench::manifest::{self, benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::search::{search, Probe};
use perfbench::stats::{
    beyond, quantile, quiet_half, steal_shares, tail_quantile, Latency, QuietHalf,
};
use std::cell::Cell;
use std::time::Duration;

/// A virtual clock: sleeping jumps straight to the target time, and the
/// fake server below advances it by its service time.
struct VirtualClock(Cell<Duration>);

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        self.0.get()
    }

    fn sleep_until(&self, t: Duration) {
        if t > self.0.get() {
            self.0.set(t);
        }
    }
}

fn ms(x: f64) -> Duration {
    Duration::from_secs_f64(x / 1e3)
}

#[test]
fn same_seed_gives_same_arrivals_and_payloads() {
    let a = poisson_schedule(42, 1000.0, Duration::from_secs(2), 4096);
    let b = poisson_schedule(42, 1000.0, Duration::from_secs(2), 4096);
    assert_eq!(a, b);
    let c = poisson_schedule(43, 1000.0, Duration::from_secs(2), 4096);
    assert_ne!(a, c);
    // About rate × span arrivals, in order, inside the span.
    assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
    assert!(a
        .iter()
        .all(|x| x.due < Duration::from_secs(2) && x.payload < 4096));
    // Load threads and phases get distinct, reproducible streams.
    assert_eq!(stream_seed(7, 0, 1), stream_seed(7, 0, 1));
    assert_ne!(stream_seed(7, 0, 0), stream_seed(7, 0, 1));
    assert_ne!(stream_seed(7, 0, 0), stream_seed(7, 1, 0));
    assert_ne!(stream_seed(7, 0, 0), stream_seed(8, 0, 0));
}

#[test]
fn a_stall_is_charged_to_the_requests_queued_behind_it() {
    // Requests fall due every millisecond; the first one stalls the
    // connection for 5 ms, every other one takes 0.1 ms.
    let arrivals: Vec<Arrival> = (0..10)
        .map(|i| Arrival {
            due: ms(i as f64),
            payload: i,
        })
        .collect();
    let clock = VirtualClock(Cell::new(Duration::ZERO));
    let report = drive(&clock, &arrivals, Duration::from_secs(1), |p| {
        let service = if p == 0 { 5.0 } else { 0.1 };
        clock.0.set(clock.0.get() + ms(service));
        true
    });
    assert_eq!(report.abandoned, 0);
    let lat: Vec<f64> = report
        .outcomes
        .iter()
        .map(|o| o.latency().as_secs_f64() * 1e3)
        .collect();
    // Request 1 was due at 1 ms but could only be sent at 5 ms: its
    // latency is 4 ms of waiting plus 0.1 ms of service, not 0.1 ms.
    assert!((lat[0] - 5.0).abs() < 1e-9);
    assert!((lat[1] - 4.1).abs() < 1e-9, "{lat:?}");
    assert!((lat[2] - 3.2).abs() < 1e-9, "{lat:?}");
    assert!((report.outcomes[1].lateness().as_secs_f64() * 1e3 - 4.0).abs() < 1e-9);
    // The backlog drains: from request 6 on, each is sent when due.
    for o in &report.outcomes[6..] {
        assert_eq!(o.lateness(), Duration::ZERO);
        assert!((o.latency().as_secs_f64() * 1e3 - 0.1).abs() < 1e-9);
    }
}

#[test]
fn an_overloaded_phase_is_abandoned_and_flagged() {
    // Due every 1 ms, served in 2 ms: the backlog grows without bound.
    let arrivals: Vec<Arrival> = (0..1000)
        .map(|i| Arrival {
            due: ms(i as f64),
            payload: 0,
        })
        .collect();
    let clock = VirtualClock(Cell::new(Duration::ZERO));
    let report = drive(&clock, &arrivals, ms(100.0), |_| {
        clock.0.set(clock.0.get() + ms(2.0));
        true
    });
    assert!(report.abandoned > 0);
    assert_eq!(report.outcomes.len() + report.abandoned, 1000);
    assert!(lateness_growth(&report.outcomes) > ms(50.0));
    let steady: Vec<Outcome> = (0..100)
        .map(|i| Outcome {
            due: ms(i as f64),
            sent: ms(i as f64 + 0.05),
            done: ms(i as f64 + 0.5),
            ok: true,
            payload: 0,
        })
        .collect();
    assert_eq!(lateness_growth(&steady), Duration::ZERO);
}

#[test]
fn p99_is_reported_only_with_ten_samples_beyond_it() {
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(beyond(1000, 0.99), 10);
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail_quantile(&v, 0.99), Some(990.0));
    assert_eq!(tail_quantile(&v[..999], 0.99), None);
    assert_eq!(quantile(&v, 0.5), Some(500.0));
    assert_eq!(quantile(&[], 0.5), None);
    let small = Latency::of(&v[..500]).expect("non-empty");
    assert_eq!(small.count, 500);
    assert_eq!(small.p50_ms, 250.0);
    assert_eq!(small.p99_ms, None);
    let big = Latency::of(&v).expect("non-empty");
    assert_eq!(big.p99_ms, Some(990.0));
}

/// p99 of an M/M/1-like stack with capacity `cap`: flat at low load,
/// growing without bound as the offered rate approaches capacity.
fn curve(rate: f64, cap: f64) -> f64 {
    if rate >= cap {
        1e6
    } else {
        1.0 / (1.0 - rate / cap)
    }
}

#[test]
fn rate_search_finds_the_highest_passing_step() {
    let steps = [
        250.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 4000.0, 5000.0,
    ];
    let limit = 5.0;
    for cap in [600.0, 1900.0, 3300.0, 4400.0] {
        let mut calls = 0;
        let r = search(&steps, |rate| {
            calls += 1;
            Probe {
                rate,
                score: curve(rate, cap) / limit,
            }
        });
        let expect = steps.iter().copied().rfind(|&s| curve(s, cap) <= limit);
        assert_eq!(r.highest_pass, expect, "cap {cap}");
        // Bisecting 10 steps takes at most 4 probes, plus one repeat of
        // each bracketing step.
        assert!(calls <= 6, "took {calls} probes");
        let lo = expect.expect("some step passes");
        let hi = steps
            .iter()
            .copied()
            .find(|&s| s > lo)
            .expect("a failing step");
        assert!(
            r.max_rate >= lo && r.max_rate < hi,
            "cap {cap}: {} not in [{lo}, {hi})",
            r.max_rate
        );
        assert!(!r.capped);
    }
}

#[test]
fn rate_search_interpolates_where_the_score_crosses_one() {
    // ln(score) rises linearly from ln(0.5) at 100 to ln(2) at 200: it
    // crosses zero half-way.
    let r = search(&[100.0, 200.0], |rate| Probe {
        rate,
        score: if rate < 150.0 { 0.5 } else { 2.0 },
    });
    assert!((r.max_rate - 150.0).abs() < 1e-9, "{}", r.max_rate);
}

#[test]
fn rate_search_edges() {
    let steps = [100.0, 200.0, 400.0];
    let all = search(&steps, |rate| Probe { rate, score: 0.2 });
    assert!(all.capped);
    assert_eq!(all.max_rate, 400.0);
    let none = search(&steps, |rate| Probe { rate, score: 2.0 });
    assert_eq!(none.highest_pass, None);
    assert_eq!(none.max_rate, 50.0);
    // A probe that could not score (nothing completed) fails, and the
    // rate stays at the highest passing step.
    let dead = search(&steps, |rate| Probe {
        rate,
        score: if rate < 300.0 { 0.5 } else { f64::INFINITY },
    });
    assert_eq!(dead.highest_pass, Some(200.0));
    assert_eq!(dead.max_rate, 200.0);
}

#[test]
fn quiet_half_keeps_the_sub_windows_with_least_steal() {
    // Cumulative (steal, total) ticks: 1 s sub-windows with 1, 30, 0 and
    // 20 stolen ticks of 200, then a final half second with none.
    let ticks = [(0, 0), (1, 200), (31, 400), (31, 600), (51, 800), (51, 900)];
    let shares = steal_shares(&ticks);
    assert_eq!(shares.len(), 5);
    assert_eq!(quiet_half(&shares), vec![true, false, true, false, true]);
    let q = QuietHalf::from_ticks(&ticks, Duration::from_millis(4500));
    assert!(q.contains(Duration::from_millis(500)) && !q.contains(Duration::from_millis(1500)));
    assert!(q.contains(Duration::from_millis(4200)) && !q.contains(Duration::from_secs(9)));
    assert!((q.seconds() - 2.5).abs() < 1e-9);
}

#[test]
fn committed_manifest_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "run `perfbench --write-manifest` from the repository root"
    );
}

#[test]
fn manifest_names_and_units_are_well_formed() {
    let ok_name = |n: &str| {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    };
    let ok_unit = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(ok_unit(m.unit), "{}", m.unit);
        assert!(m.better == "lower" || m.better == "higher");
        names.push(m.name);
    }
    for m in &END_TO_END {
        let b = m.bound.expect("end-to-end metrics carry a bound");
        assert!(b > 0.0 && b <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    assert!(names.iter().all(|n| ok_name(n)));
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are unique");
    assert!((1..=60).contains(&manifest::RUN_SECONDS));
}
