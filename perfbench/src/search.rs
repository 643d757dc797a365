//! The search for a workload's highest sustainable offered rate.
//!
//! The offered rates are a fixed ascending ladder of steps. A probe
//! runs the workload open-loop at one step and scores how far it ran
//! past its limits: the larger of its p99 over the latency limit and its
//! growth in sending lateness over the allowed growth (see
//! `src/online.rs`); a failed or abandoned request makes the score
//! large. A probe passes when its score is at most 1. The search
//! bisects the ladder, assuming a step passes whenever a higher one does.
//!
//! The reported rate is interpolated between the highest passing step
//! and the lowest failing one, at the point where `ln(score)` crosses
//! zero linearly in the rate. Both bracketing steps are probed once more
//! and their scores averaged (geometrically) first: near capacity one
//! probe is noisy. A bare step index would flip by a whole step between
//! runs whenever the true capacity sits near a step; the interpolated
//! rate moves smoothly with it instead.

/// One probe of the ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// How far the probe ran past its limits; it passes at `<= 1`.
    pub score: f64,
}

impl Probe {
    fn pass(&self) -> bool {
        self.score <= 1.0
    }
}

/// Result of [`search`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Interpolated highest sustainable rate, requests per second.
    pub max_rate: f64,
    /// Highest step that passed, if any.
    pub highest_pass: Option<f64>,
    /// Whether the top step passed (the rate is then a lower bound).
    pub capped: bool,
    /// Every probe run, in order.
    pub probes: Vec<Probe>,
}

/// Bisect `steps` (ascending) for the highest passing step, calling
/// `probe(rate)` on at most `ceil(log2(steps.len() + 1))` of them, and
/// once more on each of the two steps that bracket the limit.
pub fn search(steps: &[f64], mut probe: impl FnMut(f64) -> Probe) -> SearchResult {
    assert!(!steps.is_empty(), "empty rate ladder");
    assert!(
        steps.windows(2).all(|w| w[0] < w[1]),
        "rate ladder must ascend"
    );
    let mut probes = Vec::new();
    // Invariant: every step <= lo passes, every step >= hi fails.
    let (mut lo, mut hi): (Option<usize>, usize) = (None, steps.len());
    let (mut lo_score, mut hi_score) = (0.0, f64::INFINITY);
    while hi > lo.map_or(0, |l| l + 1) {
        let mid = (lo.map_or(0, |l| l + 1) + hi - 1) / 2;
        let p = probe(steps[mid]);
        probes.push(p);
        if p.pass() {
            lo = Some(mid);
            lo_score = p.score;
        } else {
            hi = mid;
            hi_score = p.score;
        }
    }
    let Some(lo) = lo else {
        // Nothing passed: scale the lowest step down by its score, so
        // the rate still reflects the stack.
        return SearchResult {
            max_rate: steps[0] / hi_score.max(1.0),
            highest_pass: None,
            capped: false,
            probes,
        };
    };
    if hi == steps.len() {
        return SearchResult {
            max_rate: steps[lo],
            highest_pass: Some(steps[lo]),
            capped: true,
            probes,
        };
    }
    let lo_score = repeat(&mut probe, &mut probes, steps[lo], lo_score);
    let hi_score = repeat(&mut probe, &mut probes, steps[hi], hi_score);
    let frac = if hi_score <= 1.0 {
        1.0
    } else if lo_score >= 1.0 || !hi_score.is_finite() {
        0.0
    } else {
        // Scores of zero (an idle probe) are floored so the log exists.
        let lo_ln = lo_score.max(1e-3).ln();
        (-lo_ln / (hi_score.ln() - lo_ln)).clamp(0.0, 1.0)
    };
    SearchResult {
        max_rate: steps[lo] + (steps[hi] - steps[lo]) * frac,
        highest_pass: Some(steps[lo]),
        capped: false,
        probes,
    }
}

/// Probe `rate` again and return the geometric mean of its two scores.
fn repeat(
    probe: &mut impl FnMut(f64) -> Probe,
    probes: &mut Vec<Probe>,
    rate: f64,
    first: f64,
) -> f64 {
    let again = probe(rate);
    probes.push(again);
    let (a, b) = (first.max(1e-3), again.score.max(1e-3));
    if a.is_finite() && b.is_finite() {
        (a * b).sqrt()
    } else {
        f64::INFINITY
    }
}
