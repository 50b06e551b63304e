//! Small statistics helpers for the benchmark harness.

use crate::units::SimDuration;

/// Online mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Exact percentile over a sample set (nearest-rank method).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.saturating_sub(1).min(samples.len() - 1)]
}

/// Jain's fairness index over per-client allocations.  1.0 = perfectly
/// fair; 1/n = one client got everything.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// One row of a figure series: an x value (bytes, matrix size, …) with
/// measured native/host and vPHI virtual times.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    pub x: u64,
    pub host: SimDuration,
    pub vphi: SimDuration,
}

impl SeriesPoint {
    /// vPHI time normalized to host (host = 1.0).
    pub fn normalized(&self) -> f64 {
        if self.host.is_zero() {
            f64::NAN
        } else {
            self.vphi.as_nanos() as f64 / self.host.as_nanos() as f64
        }
    }

    /// Absolute virtualization overhead.
    pub fn overhead(&self) -> SimDuration {
        self.vphi.saturating_sub(self.host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample stddev of this classic set is ~2.138.
        assert!((s.stddev() - 2.1380899).abs() < 1e-4);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0.0);
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn fairness_index() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[4.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn series_point_normalization() {
        let p = SeriesPoint {
            x: 1,
            host: SimDuration::from_micros(7),
            vphi: SimDuration::from_micros(382),
        };
        assert!((p.normalized() - 382.0 / 7.0).abs() < 1e-9);
        assert_eq!(p.overhead(), SimDuration::from_micros(375));
    }
}
