//! Seeded arrival schedules for the open-loop load generator.

/// SplitMix64: a small seeded generator, so a schedule depends on the
/// workload seed alone and never on the program under test.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// Due times, in seconds from the phase start, of `count` arrivals of a
/// Poisson process at `rate_per_s`: exponential gaps by inversion.
///
/// The gaps are stratified: gap `i` inverts a uniform drawn from the
/// `i`-th of `count` equal strata, and the seed then shuffles their order.
/// Each gap is still exponentially distributed, but every seed gets the
/// same spread of short and long gaps, so tail latency varies less from
/// seed to seed than with independent draws.
pub fn poisson_arrivals(rng: &mut SplitMix64, rate_per_s: f64, count: usize) -> Vec<f64> {
    let mut gaps: Vec<f64> = (0..count)
        .map(|i| {
            let u = (i as f64 + rng.next_f64()) / count as f64;
            -(1.0 - u).ln() / rate_per_s
        })
        .collect();
    for i in (1..gaps.len()).rev() {
        gaps.swap(i, rng.below(i + 1));
    }
    let mut t = 0.0;
    gaps.into_iter()
        .map(|g| {
            t += g;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_arrivals(&mut SplitMix64::new(42), 100.0, 500);
        let b = poisson_arrivals(&mut SplitMix64::new(42), 100.0, 500);
        let c = poisson_arrivals(&mut SplitMix64::new(43), 100.0, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_is_increasing_at_the_requested_rate() {
        let a = poisson_arrivals(&mut SplitMix64::new(7), 200.0, 20_000);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 200.0).abs() < 2.0, "rate {rate}");
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 1.0 / 200.0).count();
        let share = long as f64 / a.len() as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.01, "share {share}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
