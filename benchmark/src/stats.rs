//! Order statistics for benchmark samples.
//!
//! Everything the ladder reports is a median with its quartiles and sample
//! count, never a best-of-N: a maximum rewards the luckiest round and hides
//! the spread that decides whether two commits differ at all.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of an ascending slice, the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A sample set reduced to what a report line carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        // Quartiles by the exclusive method, which is what Python's
        // `statistics.quantiles(values, n=4)` computes and therefore what
        // the acceptance spread is judged with.
        let quartile = |i: usize| {
            let n = s.len();
            if n == 1 {
                return s[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary { median: quantile_sorted(&s, 0.5), q1: quartile(1), q3: quartile(3), n: s.len() }
    }

    /// A single measured value: its own median and quartiles.
    pub fn single(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, n: 1 }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The tail percentile a sample of `n` supports: the highest percentile with
/// at least ten samples beyond it, capped at `cap` (0.95 for the latency
/// tail). `None` when fewer than 20 samples leave no percentile above the
/// median with ten samples beyond it.
pub fn supported_tail(n: usize, cap: f64) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(cap))
}

/// Geometric mean; the aggregate for rates of unlike jobs (the eight
/// applications), where an arithmetic mean would be the fastest app's.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    assert!(values.iter().all(|v| *v > 0.0), "geometric mean needs positive values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency percentiles over pooled nanosecond samples, in milliseconds:
/// `(p50, tail, tail_percentile)`. The tail is p95 when the sample supports
/// it and the highest supported percentile otherwise; with too few samples
/// for any tail it is the maximum and the percentile reads 1.0.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn latency_ms(samples_ns: &mut [u64]) -> (f64, f64, f64) {
    assert!(!samples_ns.is_empty(), "latency of no samples");
    samples_ns.sort_unstable();
    let at = |q: f64| {
        let pos = q * (samples_ns.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let (a, b) = (samples_ns[lo] as f64, samples_ns[hi] as f64);
        (a + (b - a) * (pos - lo as f64)) / 1e6
    };
    let tail_q = supported_tail(samples_ns.len(), 0.95).unwrap_or(1.0);
    (at(0.5), at(tail_q), tail_q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1,2,3,10], n=4) == [1.25, 2.5, 8.25]
        let s = Summary::of(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 8.25));
        assert!((s.spread() - 7.0 / 2.5).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(Summary::single(7.0).spread(), 0.0);
        assert_eq!(Summary::of(&[7.0]), Summary::single(7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19, 0.95), None);
        assert_eq!(supported_tail(20, 0.95), Some(0.5));
        assert_eq!(supported_tail(100, 0.95), Some(0.9));
        assert_eq!(supported_tail(200, 0.95), Some(0.95));
        assert_eq!(supported_tail(1_000_000, 0.95), Some(0.95));
        // 10 samples beyond p90 of 100: ranks 90..=99.
        let mut ns: Vec<u64> = (0..100).map(|i| i * 1_000_000).collect();
        let (p50, tail, q) = latency_ms(&mut ns);
        assert_eq!(q, 0.9);
        assert!((p50 - 49.5).abs() < 1e-9);
        assert!((tail - 89.1).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_rates() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0, 5.0, 5.0]) - 5.0).abs() < 1e-12);
    }
}
