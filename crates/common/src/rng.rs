//! A tiny, fast, deterministic pseudo-random number generator.
//!
//! Workload generation and simulation must be bit-reproducible across runs
//! and configurations — the same seed must replay the same trace so that
//! MPKI comparisons between, say, LRU and DRRIP are apples-to-apples. The
//! [`SplitMix64`] generator (Steele, Lea & Flood 2014) is used for all
//! stochastic choices in the workspace: it is seedable, allocation-free,
//! and splittable (each thread's trace derives its own stream from the
//! workload seed and the thread id).

/// SplitMix64 PRNG.
///
/// # Example
///
/// ```
/// use slicc_common::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent child stream, keyed by `salt`.
    ///
    /// Used to give every simulated thread its own reproducible stream:
    /// `workload_rng.split(thread_id)`.
    pub fn split(&self, salt: u64) -> SplitMix64 {
        // Mix the salt through one SplitMix64 round so nearby salts
        // (thread 0, 1, 2, ...) produce uncorrelated streams.
        let mut child = SplitMix64::new(self.state ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        child.next_u64();
        child
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift (Lemire); bias is negligible for simulator purposes
        // (bound << 2^64) and the method is branch-free.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// The integer threshold [`SplitMix64::hit`] compares a draw's 53
    /// random bits against: `ceil(p * 2^53)`, saturating. A draw `k`
    /// passes `chance(p)` iff `k * 2^-53 < p`, iff `k < ceil(p * 2^53)`,
    /// since `p * 2^53` is exact and `k` an integer. NaN and `p <= 0`
    /// give 0 (never), and `p >= 1` gives at least `2^53` (always).
    pub fn odds(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// [`SplitMix64::chance`] with its probability pre-converted by
    /// [`SplitMix64::odds`]: the same draw, the same answer, and no
    /// float arithmetic.
    ///
    /// ```
    /// use slicc_common::SplitMix64;
    ///
    /// let (mut a, mut b) = (SplitMix64::new(9), SplitMix64::new(9));
    /// let odds = SplitMix64::odds(0.3);
    /// for _ in 0..100 {
    ///     assert_eq!(a.chance(0.3), b.hit(odds));
    /// }
    /// ```
    #[inline]
    pub fn hit(&mut self, odds: u64) -> bool {
        (self.next_u64() >> 11) < odds
    }

    /// Picks an index according to `weights` (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(!weights.is_empty() && total > 0.0, "weights must be non-empty with positive sum");
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn split_streams_are_independent_and_deterministic() {
        let root = SplitMix64::new(7);
        let mut c0 = root.split(0);
        let mut c0_again = root.split(0);
        let mut c1 = root.split(1);
        assert_eq!(c0.next_u64(), c0_again.next_u64());
        assert_ne!(c0.next_u64(), c1.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(4);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = SplitMix64::new(5);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[r.next_below(4) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "non-uniform: {counts:?}");
        }
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut r = SplitMix64::new(6);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[r.pick_weighted(&[1.0, 2.0, 1.0])] += 1;
        }
        assert!(counts[1] > counts[0] && counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(8);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn hit_matches_chance_draw_for_draw() {
        let edge = [f64::NAN, -0.5, 0.0, (-60f64).exp2(), 0.34, 1.0 - (-53f64).exp2(), 1.0, 1.5];
        for (i, &p) in edge.iter().enumerate() {
            let odds = SplitMix64::odds(p);
            let mut a = SplitMix64::new(0xabc ^ i as u64);
            let mut b = a.clone();
            for _ in 0..10_000 {
                assert_eq!(a.chance(p), b.hit(odds), "p = {p}");
                assert_eq!(a, b, "p = {p}: the RNG states diverged");
            }
        }
        // Random draws seldom land on the threshold itself: compare the
        // float and integer rules on the 53-bit draws around it.
        for &p in &edge {
            let odds = SplitMix64::odds(p);
            for k in [0u64, 1, odds.saturating_sub(1), odds, odds.saturating_add(1), (1 << 53) - 1]
            {
                let k = k.min((1 << 53) - 1);
                let float_rule = k as f64 * (1.0 / (1u64 << 53) as f64) < p;
                assert_eq!(float_rule, k < odds, "p = {p}, k = {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }
}
