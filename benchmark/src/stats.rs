//! Order statistics: nearest-rank percentiles, the tail percentile a
//! sample supports, and the quartiles `compare` reports.

/// Sorts ascending; `+∞` (a failed request) sorts last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// tolerance keeps float error from pushing an exact rank (p99.9 of
/// 10,000 is rank 9,990) up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` ∈ (0, 100] of an ascending slice, or
/// `None` for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// A tail percentile together with the sample size behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub p: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
}

/// The highest of p99.9 / p99 / p90 / p50 with at least ten samples
/// strictly beyond its rank; `None` below twenty samples.
pub fn supported_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let r = rank(p, n);
        (n >= r + 10 && r > 0).then(|| Tail { p, value: sorted[r - 1], n })
    })
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so the spreads this
/// tool prints match the ones a Python check computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let t = supported_tail(&ramp(1000)).unwrap();
        assert_eq!((t.p, t.value, t.n), (99.0, 990.0, 1000));
        // One sample short of p99's ten: fall back to p90.
        assert_eq!(supported_tail(&ramp(999)).unwrap().p, 90.0);
        assert_eq!(supported_tail(&ramp(10_000)).unwrap().p, 99.9);
        let t = supported_tail(&ramp(250)).unwrap();
        assert_eq!((t.p, t.value, t.n), (90.0, 225.0, 250));
        assert_eq!(supported_tail(&ramp(99)).unwrap().p, 50.0);
        assert_eq!(supported_tail(&ramp(19)), None);
    }

    #[test]
    fn failures_sort_last_and_surface_in_the_tail() {
        let mut v = ramp(99);
        v.push(f64::INFINITY);
        let s = sorted(v);
        assert_eq!(percentile(&s, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of a short sample.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(spread(&ramp(10)), Some(1.0));
    }
}
