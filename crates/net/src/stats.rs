//! Time-series helpers for experiment plots.
//!
//! The figure harness turns packet logs and queue samples into the series
//! the paper plots: bytes-per-interval curves (Figure 3a), queue-length
//! evolutions (Figure 5a/5c).

use crate::node::RxRecord;
use std::time::Duration;

/// A sampled time series: `(t_seconds, value)` pairs in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// The samples.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample taken at `at`.
    pub fn push(&mut self, at: Duration, value: f64) {
        self.points.push((at.as_secs_f64(), value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been taken.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|p| p.1).reduce(f64::max)
    }

    /// Mean value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64)
        }
    }
}

/// Bucket a host receive log into bytes-per-interval over `[0, span)` —
/// Figure 3a's "bytes sent/received" curve.
pub fn rx_bytes_per_interval(log: &[RxRecord], interval: Duration, span: Duration) -> TimeSeries {
    assert!(!interval.is_zero(), "interval must be non-zero");
    let nbuckets = (span.as_secs_f64() / interval.as_secs_f64()).ceil() as usize;
    let mut buckets = vec![0u64; nbuckets.max(1)];
    for r in log {
        if r.at < span {
            let idx = (r.at.as_secs_f64() / interval.as_secs_f64()) as usize;
            if let Some(b) = buckets.get_mut(idx) {
                *b += r.size_bytes as u64;
            }
        }
    }
    let mut series = TimeSeries::new();
    for (i, &bytes) in buckets.iter().enumerate() {
        series.push(interval * (i as u32), bytes as f64);
    }
    series
}

/// Empirical CDF of a sample set: returns `(value, cumulative_fraction)`
/// pairs sorted by value — Figure 2b's processing-time CDF.
pub fn cdf(samples: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// The `q`-quantile (0..=1) of a sample set by nearest-rank, or `None` when
/// empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
    Some(sorted[rank.min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowKey, Ip};

    fn rec(at_ms: u64, size: u32) -> RxRecord {
        RxRecord {
            at: Duration::from_millis(at_ms),
            size_bytes: size,
            flow: FlowKey::tcp(Ip::v4(1, 1, 1, 1), 1, Ip::v4(2, 2, 2, 2), 2),
        }
    }

    #[test]
    fn bucketing_sums_per_interval() {
        let log = vec![rec(50, 100), rec(150, 200), rec(160, 50), rec(950, 10)];
        let s = rx_bytes_per_interval(&log, Duration::from_millis(100), Duration::from_secs(1));
        assert_eq!(s.len(), 10);
        assert_eq!(s.points[0].1, 100.0);
        assert_eq!(s.points[1].1, 250.0);
        assert_eq!(s.points[9].1, 10.0);
    }

    #[test]
    fn bucketing_ignores_records_past_span() {
        let log = vec![rec(50, 100), rec(5000, 999)];
        let s = rx_bytes_per_interval(&log, Duration::from_millis(100), Duration::from_secs(1));
        let total: f64 = s.points.iter().map(|p| p.1).sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let samples = [3.0, 1.0, 2.0, 2.0];
        let c = cdf(&samples);
        assert_eq!(c.len(), 4);
        assert!(c.windows(2).all(|w| w[1].0 >= w[0].0 && w[1].1 >= w[0].1));
        assert_eq!(c.last().unwrap().1, 1.0);
        assert_eq!(c[0], (1.0, 0.25));
    }

    #[test]
    fn cdf_empty() {
        assert!(cdf(&[]).is_empty());
    }

    #[test]
    fn quantiles() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.9), Some(90.0));
        assert_eq!(quantile(&samples, 1.0), Some(100.0));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn series_helpers() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        s.push(Duration::from_secs(1), 10.0);
        s.push(Duration::from_secs(2), 30.0);
        s.push(Duration::from_secs(3), 20.0);
        assert_eq!(s.max(), Some(30.0));
        assert_eq!(s.mean(), Some(20.0));
    }
}
