//! Percentiles over latency samples.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of
//! `n` sorted samples is the sample at 1-based rank `ceil(q·n)`. A
//! tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie strictly beyond that rank, so a p99 over
//! a few hundred samples — which would be a max-of-N statistic — is
//! never printed as if it were a p99.

use std::time::Duration;

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples beyond the `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The `q`-quantile when at least [`MIN_BEYOND`] samples lie beyond
/// it, else `None`.
pub fn tail_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if beyond(sorted.len(), q) >= MIN_BEYOND {
        quantile(sorted, q)
    } else {
        None
    }
}

/// Median of unsorted values (mean of the middle pair for even counts),
/// or `None` when empty. Used to combine repeated measurements.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Latency summary of one set of requests, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples summarised.
    pub count: usize,
    /// Median.
    pub p50_ms: f64,
    /// 99th percentile, when at least [`MIN_BEYOND`] samples lie beyond it.
    pub p99_ms: Option<f64>,
}

impl Latency {
    /// Summarise unsorted latencies given in milliseconds; `None` when
    /// there are none.
    pub fn of(values_ms: &[f64]) -> Option<Latency> {
        let mut v = values_ms.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Latency {
            count: v.len(),
            p50_ms: quantile(&v, 0.5)?,
            p99_ms: tail_quantile(&v, 0.99),
        })
    }
}

/// Steal share of each sub-window between consecutive cumulative
/// `(steal, total)` tick samples.
pub fn steal_shares(samples: &[(u64, u64)]) -> Vec<f64> {
    samples
        .windows(2)
        .map(|w| {
            let total = w[1].1.saturating_sub(w[0].1);
            if total == 0 {
                0.0
            } else {
                w[1].0.saturating_sub(w[0].0) as f64 / total as f64
            }
        })
        .collect()
}

/// Mark the quieter half of the sub-windows: the `ceil(n/2)` with the
/// lowest steal share (earlier first on ties). On a shared host the
/// hypervisor's steal comes in bursts; metrics taken over the quieter
/// half of a run vary far less from run to run than metrics over all
/// of it, while a change to the program moves both alike.
pub fn quiet_half(shares: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]).then(a.cmp(&b)));
    let mut quiet = vec![false; shares.len()];
    for &i in order.iter().take(shares.len().div_ceil(2)) {
        quiet[i] = true;
    }
    quiet
}

/// The quieter half of a timed phase's one-second sub-windows, from
/// the [`crate::procfs::StealSampler`] samples taken over it.
pub struct QuietHalf {
    quiet: Vec<bool>,
    seconds: f64,
}

impl QuietHalf {
    /// Split a phase of length `wall` sampled by `ticks` (one sample at
    /// the start of each second and one at the end).
    pub fn from_ticks(ticks: &[(u64, u64)], wall: Duration) -> QuietHalf {
        let quiet = quiet_half(&steal_shares(ticks));
        let wall = wall.as_secs_f64();
        let seconds = quiet
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(i, _)| (wall - i as f64).clamp(0.0, 1.0))
            .sum();
        QuietHalf { quiet, seconds }
    }

    /// Whether offset `t` into the phase lies in a quiet sub-window.
    pub fn contains(&self, t: Duration) -> bool {
        self.quiet
            .get(t.as_secs() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Length of the quiet sub-windows together, in seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}
