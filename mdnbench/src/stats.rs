//! Percentiles computed from the benchmark's own samples.
//!
//! Every percentile is nearest-rank over raw samples, never interpolated
//! inside the registry's log2 buckets.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least a `q` share of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "percentile of no samples");
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of unsorted samples (nearest-rank, lower middle).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The highest percentile of `n` samples that leaves at least `beyond`
/// samples above it.
pub fn tail_quantile(n: usize, beyond: usize) -> f64 {
    n.saturating_sub(beyond).max(1) as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, tail_quantile(100, 10)), 90.0);
    }
}
