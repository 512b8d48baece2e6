//! Latency samples and the summary statistics the ledger reports.

/// Nanosecond samples in a buffer sized before the clock starts, so the
/// timed loop never allocates for bookkeeping.
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
        }
    }

    #[inline]
    pub fn push(&mut self, ns: u64) {
        debug_assert!(
            self.ns.len() < self.ns.capacity(),
            "sample buffer undersized"
        );
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Sorts and summarizes; `None` when no sample was taken.
    pub fn summary(&mut self) -> Option<Summary> {
        if self.ns.is_empty() {
            return None;
        }
        self.ns.sort_unstable();
        let us = |ns: u64| ns as f64 / 1e3;
        Some(Summary {
            n: self.ns.len(),
            p50_us: us(percentile(&self.ns, 50.0)),
            p95_us: us(percentile(&self.ns, 95.0)),
            p99_us: us(percentile(&self.ns, 99.0)),
            max_us: us(*self.ns.last().expect("non-empty")),
        })
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `p` % of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 95.0), 7);
        assert_eq!(percentile(&[1u64, 2, 3], 50.0), 2);
    }

    #[test]
    fn samples_summarize_in_microseconds() {
        let mut s = Samples::with_capacity(4);
        for ns in [4000, 1000, 3000, 2000] {
            s.push(ns);
        }
        let sum = s.summary().unwrap();
        assert_eq!(sum.n, 4);
        assert_eq!(sum.p50_us, 2.0);
        assert_eq!(sum.max_us, 4.0);
        assert!(Samples::with_capacity(0).summary().is_none());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }
}
