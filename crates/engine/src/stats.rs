//! Latency percentiles.

/// Summary statistics over a set of latencies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile — the saturation experiments' headline number (tail
    /// latency is what admission control exists to bound).
    pub p99_ms: f64,
    /// Maximum.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Compute from raw samples (microseconds). Empty input produces zeros.
    pub fn from_micros(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return LatencyStats {
                count: 0,
                mean_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
            };
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u64 = samples.iter().sum();
        let pct = |p: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            samples[idx] as f64 / 1000.0
        };
        LatencyStats {
            count,
            mean_ms: sum as f64 / count as f64 / 1000.0,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: *samples.last().expect("non-empty") as f64 / 1000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::from_micros(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn percentiles() {
        let samples: Vec<u64> = (1..=100).map(|i| i * 1000).collect(); // 1..100 ms
        let s = LatencyStats::from_micros(samples);
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 0.01);
        assert!((s.p50_ms - 50.0).abs() <= 1.0);
        assert!((s.p95_ms - 95.0).abs() <= 1.0);
        assert!((s.p99_ms - 99.0).abs() <= 1.0);
        assert_eq!(s.max_ms, 100.0);
    }
}
