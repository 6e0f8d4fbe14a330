//! Exact order statistics over per-operation timings.
//!
//! Every timed operation keeps its own duration (no histogram buckets),
//! so a percentile is a measured sample, reported with the sample count
//! and the number of samples that lie beyond it.

use std::time::{Duration, Instant};

/// One exact percentile: the nearest-rank sample for quantile `q`.
#[derive(Clone, Copy, Debug)]
pub struct Percentile {
    /// The sample, in nanoseconds.
    pub ns: u64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly after this one in sorted order.
    pub beyond: usize,
}

impl Percentile {
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    pub fn us(&self) -> f64 {
        self.ns as f64 / 1e3
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> Percentile {
    if sorted.is_empty() {
        return Percentile { ns: 0, samples: 0, beyond: 0 };
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile { ns: sorted[rank - 1], samples: n, beyond: n - rank }
}

/// Sorts a copy of `ns` and returns its p50.
pub fn p50(ns: &[u64]) -> Percentile {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile(&v, 0.50)
}

/// Median of floating-point samples (mean of the middle pair for even
/// counts); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` once; returns its result and wall-clock nanoseconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, nanos(t0.elapsed()))
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Latency summary of a run: p50, p90, p99 over every operation.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    pub p50: Percentile,
    pub p90: Percentile,
    pub p99: Percentile,
}

impl LatencySummary {
    pub fn of(ns: &[u64]) -> LatencySummary {
        let mut v = ns.to_vec();
        v.sort_unstable();
        LatencySummary {
            p50: percentile(&v, 0.50),
            p90: percentile(&v, 0.90),
            p99: percentile(&v, 0.99),
        }
    }

    pub fn describe(&self) -> String {
        let one = |name: &str, p: &Percentile| {
            format!("{name} {:.3} ms ({} samples, {} beyond)", p.ms(), p.samples, p.beyond)
        };
        format!("{}; {}; {}", one("p50", &self.p50), one("p90", &self.p90), one("p99", &self.p99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let v: Vec<u64> = (1..=100).collect();
        let p = percentile(&v, 0.99);
        assert_eq!((p.ns, p.samples, p.beyond), (99, 100, 1));
        let p = percentile(&v, 0.50);
        assert_eq!((p.ns, p.beyond), (50, 50));
        assert_eq!(percentile(&[7], 0.9).ns, 7);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
