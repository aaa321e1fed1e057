//! Log-domain combinatorics.
//!
//! The delay-storage-buffer analysis needs `C(D−1, K−1)·(1/B)^(K−1)` for
//! `D` up to a few thousand — far beyond what `u64`/`f64` factorials can
//! hold directly, so everything is computed as natural logarithms.

/// Natural log of `n!`, by direct summation (exact to f64 rounding; `n`
/// stays small enough in this workspace that a Stirling approximation is
/// unnecessary).
pub fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Returns `f64::NEG_INFINITY` when `k > n` (an impossible choice has
/// probability zero).
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    // sum of ln((n-k+i)/i) is numerically stabler than three factorials
    (1..=k).map(|i| (((n - k + i) as f64) / (i as f64)).ln()).sum()
}

/// `C(n, k)` as an `f64` (may overflow to infinity for huge inputs; use
/// [`ln_choose`] in probability math).
pub fn choose(n: u64, k: u64) -> f64 {
    ln_choose(n, k).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_factorials_exact() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3_628_800f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn choose_matches_pascal() {
        assert!((choose(5, 2) - 10.0).abs() < 1e-9);
        assert!((choose(10, 5) - 252.0).abs() < 1e-6);
        assert!((choose(52, 5) - 2_598_960.0).abs() < 1.0);
        assert_eq!(choose(4, 9), 0.0);
        assert!((choose(7, 0) - 1.0).abs() < 1e-12);
        assert!((choose(7, 7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        for n in [10u64, 100, 999] {
            for k in [1u64, 3, 7] {
                assert!((ln_choose(n, k) - ln_choose(n, n - k)).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn large_values_stay_finite_in_log_domain() {
        let v = ln_choose(2000, 128);
        assert!(v.is_finite());
        assert!(v > 0.0);
    }
}
