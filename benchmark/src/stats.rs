//! Order statistics for the host-time samples.

/// Summary of one metric's samples across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of sorted `xs` (the
/// "inclusive" method: `q = 0` is the minimum, `q = 1` the maximum).
fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// Min, quartiles, median and max of `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Summary {
        n: v.len(),
        min: v[0],
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
        max: v[v.len() - 1],
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as `(percent, rank)`: the value to report is the
/// `rank`-th smallest (1-based). `None` below 20 samples, where not even
/// the median has ten beyond it.
pub fn top_percentile(n: usize) -> Option<(f64, usize)> {
    if n < 20 {
        return None;
    }
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find_map(|p| {
        // The small slack keeps 99.9 % of 10 000 at rank 9990 despite
        // binary rounding of the product.
        let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
        (n - rank >= 10).then_some((p, rank))
    })
}

/// The value of [`top_percentile`] in `xs`, with its percent.
pub fn top_percentile_of(xs: &[f64]) -> Option<(f64, f64)> {
    let (p, rank) = top_percentile(xs.len())?;
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Some((p, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        let s = summarize(&[7.0, 1.0, 3.0, 5.0, 9.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3, s.max), (5, 1.0, 3.0, 5.0, 7.0, 9.0));
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!((even.q1, even.q3), (1.75, 3.25));
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(7), None);
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some((50.0, 10)));
        assert_eq!(top_percentile(100), Some((90.0, 90)));
        assert_eq!(top_percentile(1000), Some((99.0, 990)));
        assert_eq!(top_percentile(2000), Some((99.0, 1980)));
        assert_eq!(top_percentile(10_000), Some((99.9, 9990)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(top_percentile_of(&xs), Some((99.0, 990.0)));
    }
}
