//! Order statistics for timing samples.

/// Fewest samples a reported percentile must have strictly above it.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile in `n` samples: the
/// smallest rank with at least `pct`% of the samples at or below it.
/// Integer arithmetic, so `p99` of 1000 samples is exactly rank 990.
pub fn nearest_rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), pct) - 1])
}

/// Samples strictly above the nearest-rank position of the `pct`-th
/// percentile.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, pct)
    }
}

/// Median and 99th percentile of one latency sample, with its size.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Latency {
    /// Samples summarized.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

/// Summarize `samples`. Fails when the p99 would rest on fewer than
/// [`MIN_TAIL`] samples beyond it (fewer than 1000 samples), since such a
/// tail is not a measurement.
pub fn latency(mut samples: Vec<f64>) -> Result<Latency, String> {
    let n = samples.len();
    if samples_beyond(n, 99) < MIN_TAIL {
        return Err(format!(
            "{n} samples leave {} beyond p99; at least {MIN_TAIL} are needed",
            samples_beyond(n, 99)
        ));
    }
    samples.sort_by(f64::total_cmp);
    Ok(Latency {
        count: n,
        p50: percentile(&samples, 50).unwrap_or(0.0),
        p99: percentile(&samples, 99).unwrap_or(0.0),
    })
}

/// Nearest-rank median of an unsorted slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 91), Some(10.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(nearest_rank(1000, 99), 990);
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        assert!(latency(vec![1.0; 999]).is_err());
        let l = latency((0..1000).map(f64::from).collect()).unwrap();
        assert_eq!(l.count, 1000);
        assert_eq!(l.p50, 499.0);
        assert_eq!(l.p99, 989.0);
    }

    #[test]
    fn latency_sorts_its_input() {
        let mut v: Vec<f64> = (0..2000).map(f64::from).collect();
        v.reverse();
        let l = latency(v).unwrap();
        assert_eq!((l.p50, l.p99), (999.0, 1979.0));
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
