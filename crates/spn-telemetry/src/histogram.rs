//! Lock-free log-bucketed histogram — the workspace's one histogram.
//!
//! [`AtomicHistogram`] buckets values log-linearly (8 sub-buckets per
//! octave, so a bucket is at most 9/8 wide), and every recording is a
//! relaxed atomic increment plus two CAS loops — no mutex on the
//! request hot path, and no `&mut self`, so one shared instance can
//! absorb recordings from every connection thread. Single-threaded
//! users (the virtual-time model in `spn-runtime::perf`) record
//! through the same type.
//!
//! Bucket indexing extracts the exponent and the top three mantissa
//! bits of `value / min` straight from the IEEE-754 representation
//! (HdrHistogram-style), so `record` is branch-light and allocation
//! free.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Compact six-number summary of a distribution: the shape every
/// telemetry snapshot embeds for a histogram. All-zero when the
/// histogram was empty (`count == 0`), so snapshots of idle systems
/// stay deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean (exact — tracked outside the buckets).
    pub mean: f64,
    /// Median, to bucket resolution.
    pub p50: f64,
    /// 95th percentile, to bucket resolution.
    pub p95: f64,
    /// 99th percentile, to bucket resolution.
    pub p99: f64,
    /// Largest recorded value (exact).
    pub max: f64,
}

/// log2(sub-buckets per octave).
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (bucket width factor 2^(1/8) ≈ 1.09).
const SUB: u64 = 1 << SUB_BITS;

/// Fixed-size lock-free histogram over positive values.
///
/// Values at or below `min` land in the underflow bucket (reported as
/// `min` by quantiles); values beyond `max` clamp
/// into the last bucket (quantiles then report the exact maximum
/// seen). `sum` and `max` are f64s maintained by CAS on their bit
/// patterns, so [`HistogramSummary::mean`] and `max` stay exact.
///
/// A concurrent [`AtomicHistogram::summary`] is not a point-in-time
/// atomic snapshot — counts recorded while it runs may or may not be
/// included — but every recording lands in exactly one bucket, so
/// totals are conserved.
#[derive(Debug)]
pub struct AtomicHistogram {
    min: f64,
    buckets: Box<[AtomicU64]>,
    /// Bit pattern of the running f64 sum.
    sum_bits: AtomicU64,
    /// Bit pattern of the largest recorded f64.
    max_bits: AtomicU64,
}

impl AtomicHistogram {
    /// Cover `[min, max]` at ≈ 9 % resolution (8 sub-buckets/octave).
    ///
    /// # Panics
    /// Panics unless `0 < min < max` (both finite).
    pub fn new(min: f64, max: f64) -> Self {
        assert!(
            min > 0.0 && max > min && max.is_finite(),
            "need 0 < min < max"
        );
        let octaves = (max / min).log2().ceil() as usize + 1;
        let n = 1 + octaves * SUB as usize;
        AtomicHistogram {
            min,
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Latency-flavoured default: 1 ns .. 10 s.
    pub fn latency() -> Self {
        AtomicHistogram::new(1e-9, 10.0)
    }

    /// Bucket index for `x`: 0 is the underflow bucket, then 8
    /// log-linear sub-buckets per octave of `x / min`.
    fn index(&self, x: f64) -> usize {
        let r = x / self.min;
        if r <= 1.0 {
            return 0; // underflow
        }
        let bits = r.to_bits();
        let exp = ((bits >> 52) & 0x7ff) - 1023; // r > 1 ⇒ biased exp ≥ 1023
        let frac = (bits >> (52 - SUB_BITS)) & (SUB - 1);
        let idx = 1 + exp * SUB + frac;
        (idx as usize).min(self.buckets.len() - 1)
    }

    /// Upper edge of bucket `idx` (≥ 1): `min · 2^e · (1 + (f+1)/8)`.
    fn upper_edge(&self, idx: usize) -> f64 {
        let j = (idx - 1) as u64;
        let exp = (j / SUB) as i32;
        let frac = j % SUB;
        self.min * 2f64.powi(exp) * (1.0 + (frac + 1) as f64 / SUB as f64)
    }

    /// Record one finite value (unit-agnostic). Non-finite values are
    /// ignored — JSON cannot carry them and a poisoned `sum` would
    /// corrupt the mean forever.
    pub fn record(&self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.buckets[self.index(x)].fetch_add(1, Relaxed);
        let mut cur = self.sum_bits.load(Relaxed);
        loop {
            let new = (f64::from_bits(cur) + x).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, new, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max_bits.load(Relaxed);
        while x > f64::from_bits(cur) {
            match self
                .max_bits
                .compare_exchange_weak(cur, x.to_bits(), Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record a wall-clock duration in seconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of recorded samples (sum over all buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Largest recorded value.
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Relaxed))
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| f64::from_bits(self.sum_bits.load(Relaxed)) / count as f64)
    }

    /// Approximate `q`-quantile: upper edge of the bucket holding the
    /// q-th sample, clamped to the exact maximum. `None` when empty.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // First bucket holds underflow (reported as `min`); the
                // last holds overflow clamps, whose edge underestimates —
                // report the exact maximum instead.
                if i == 0 {
                    return Some(self.min);
                }
                if i == counts.len() - 1 {
                    return Some(self.max());
                }
                return Some(self.upper_edge(i).min(self.max()));
            }
        }
        Some(self.max())
    }

    /// Six-number summary (all-zero when empty) — the form embedded in
    /// [`crate::TelemetrySnapshot`].
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        if count == 0 {
            return HistogramSummary::default();
        }
        HistogramSummary {
            count,
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            max: self.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_true_values() {
        let h = AtomicHistogram::new(1.0, 1e6);
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((450.0..600.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((900.0..1150.0).contains(&p99), "p99 {p99}");
        let mean = h.mean().unwrap();
        assert!((mean - 500.5).abs() < 1e-9, "mean is exact: {mean}");
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn resolution_bounded_by_one_sub_bucket() {
        let h = AtomicHistogram::latency();
        for _ in 0..100 {
            h.record(0.001234);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= 0.001234, "upper edge is above the sample: {p50}");
        assert!(p50 <= 0.001234 * 1.25, "within one sub-bucket: {p50}");
    }

    #[test]
    fn underflow_overflow_and_nan_behave() {
        let h = AtomicHistogram::new(1.0, 100.0);
        h.record(0.5); // underflow
        h.record(1e9); // clamps into last bucket
        h.record(f64::NAN); // ignored
        h.record(f64::INFINITY); // ignored
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25).unwrap(), 1.0); // underflow reports min
        assert_eq!(h.quantile(1.0).unwrap(), 1e9); // clamped to exact max
    }

    #[test]
    fn empty_is_none_and_summary_is_zero() {
        let h = AtomicHistogram::latency();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn durations_record_in_seconds() {
        let h = AtomicHistogram::latency();
        h.record_duration(Duration::from_micros(100));
        let p50 = h.quantile(0.5).unwrap();
        assert!((1e-4..1.25e-4).contains(&p50), "{p50}");
    }

    #[test]
    fn summary_matches_queries_and_is_zero_when_empty() {
        assert_eq!(
            AtomicHistogram::latency().summary(),
            HistogramSummary::default()
        );
        let h = AtomicHistogram::new(1.0, 1e6);
        for i in 1..=100 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, h.mean().unwrap());
        assert_eq!(s.p50, h.quantile(0.5).unwrap());
        assert_eq!(s.p95, h.quantile(0.95).unwrap());
        assert_eq!(s.p99, h.quantile(0.99).unwrap());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_quantile_panics() {
        AtomicHistogram::latency().quantile(1.5);
    }

    #[test]
    #[should_panic(expected = "0 < min < max")]
    fn bad_bounds_panic() {
        AtomicHistogram::new(1.0, 0.5);
    }
}
