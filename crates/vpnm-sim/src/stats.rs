//! Histograms for simulation accounting.

/// A histogram with logarithmic (power-of-two) buckets for latency and
/// occupancy distributions.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 counts `0..2`.
///
/// ```
/// use vpnm_sim::Histogram;
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(3);
/// h.record(1000);
/// assert_eq!(h.total(), 4);
/// assert_eq!(h.bucket_count(0), 2); // values 0 and 1
/// assert_eq!(h.bucket_count(1), 1); // value 3
/// assert_eq!(h.bucket_count(9), 1); // value 1000 in [512, 1024)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    total: u64,
    stats: RunningStatsMirror,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], total: 0, stats: RunningStatsMirror::default() }
    }
}

/// Small embedded copy of min/max/sum for the histogram without pulling in
/// the full Welford state (mean is recoverable from buckets only
/// approximately). Sentinel encoding (`min = u64::MAX`, `max = 0` when
/// empty; `total == 0` discriminates) keeps the per-sample update
/// branchless — `record` sits on simulation hot paths that run once per
/// modeled cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RunningStatsMirror {
    min: u64,
    max: u64,
    sum: u64,
}

impl Default for RunningStatsMirror {
    fn default() -> Self {
        RunningStatsMirror { min: u64::MAX, max: 0, sum: 0 }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. The sum saturates at `u64::MAX` (unreachable
    /// for the cycle-occupancy ranges simulations produce).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value) & 63] += 1;
        self.total += 1;
        self.stats.sum = self.stats.sum.saturating_add(value);
        self.stats.min = self.stats.min.min(value);
        self.stats.max = self.stats.max.max(value);
    }

    /// Records `n` identical samples in O(1).
    ///
    /// Exactly equivalent to calling [`record`](Self::record) `n` times:
    /// bucket counts and totals are plain integer adds, and the saturating
    /// sum is monotone, so `sum.saturating_add(value * n)` lands on the
    /// same value as `n` saturating single-sample adds (both reach
    /// `u64::MAX` precisely when the true sum would overflow).
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value) & 63] += n;
        self.total += n;
        self.stats.sum = self.stats.sum.saturating_add(value.saturating_mul(n));
        self.stats.min = self.stats.min.min(value);
        self.stats.max = self.stats.max.max(value);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Saturating sum of all recorded samples.
    ///
    /// Exposed so exact (non-lossy) histogram state can be serialized and
    /// reconstructed via [`from_parts`](Self::from_parts), e.g. for
    /// campaign checkpoints.
    pub fn sum(&self) -> u64 {
        self.stats.sum
    }

    /// Count in bucket `i` (`[2^i, 2^(i+1))`, with bucket 0 = `[0,2)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Exact mean of all recorded samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.stats.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.stats.min)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.stats.max)
        }
    }

    /// Approximate quantile `q` in `[0,1]`, resolved to bucket upper bounds.
    ///
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // upper bound of bucket i
                return Some(if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 });
            }
        }
        self.max()
    }

    /// Iterates over `(bucket_lower_bound, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }

    /// The inclusive lower bound of bucket `i` (0 for bucket 0, else `2^i`).
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Reconstructs a histogram from serialized parts: `(bucket index,
    /// count)` pairs plus the exact sum/min/max sidecar.
    ///
    /// Inverse of reading [`iter`](Self::iter)/[`sum`](Self::sum)/
    /// [`min`](Self::min)/[`max`](Self::max) back out; a checkpointed
    /// histogram round-trips bit-for-bit so merged resume runs equal
    /// uninterrupted ones. Empty histograms (`min`/`max` of `None`) use
    /// the sentinel encoding automatically.
    ///
    /// The parts may come from a file, so they are checked: `None` when a
    /// bucket index is ≥ 64 or the counts overflow `u64`.
    pub fn from_parts(
        bucket_counts: &[(usize, u64)],
        sum: u64,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Option<Self> {
        let mut h = Histogram::new();
        for &(i, c) in bucket_counts {
            let bucket = h.buckets.get_mut(i)?;
            *bucket = bucket.checked_add(c)?;
            h.total = h.total.checked_add(c)?;
        }
        h.stats.sum = sum;
        h.stats.min = min.unwrap_or(u64::MAX);
        h.stats.max = max.unwrap_or(0);
        Some(h)
    }

    /// Merges another histogram into this one (used when measurements are
    /// sharded across controller instances or worker threads).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.total += other.total;
        self.stats.sum = self.stats.sum.saturating_add(other.stats.sum);
        // The sentinels (`MAX`/`0` when empty) are identities of min/max.
        self.stats.min = self.stats.min.min(other.stats.min);
        self.stats.max = self.stats.max.max(other.stats.max);
    }
}

fn bucket_index(value: u64) -> usize {
    if value < 2 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// Sub-bucket precision bits of [`FineHistogram`]: each power-of-two
/// decade is split into `2^FINE_SUB_BITS` linear sub-buckets.
const FINE_SUB_BITS: u32 = 4;
const FINE_SUBS: usize = 1 << FINE_SUB_BITS; // 16
/// Values below this are stored exactly (one bucket per value).
const FINE_EXACT: u64 = 2 * FINE_SUBS as u64; // 32
/// First power-of-two decade that uses sub-bucketing.
const FINE_FIRST_DECADE: u32 = FINE_EXACT.trailing_zeros(); // 5
const FINE_BUCKETS: usize = FINE_EXACT as usize + (64 - FINE_FIRST_DECADE as usize) * FINE_SUBS;

/// A log-linear histogram with ~6% worst-case relative quantile error —
/// fine enough for operations-grade p99/p999 readouts.
///
/// [`Histogram`]'s pure power-of-two buckets resolve a quantile only to a
/// factor of 2, which is fine for occupancy forensics but too blunt for a
/// serving SLO ("p999 latency-to-deterministic-return"). `FineHistogram`
/// splits each power-of-two decade into 16 linear sub-buckets (the
/// HDR-histogram trick): values below 32 are exact, and above that a
/// reported quantile overshoots the true one by at most `1/16` of the
/// decade width. Memory stays fixed at 976 counters.
///
/// ```
/// use vpnm_sim::FineHistogram;
/// let mut h = FineHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p99 = h.quantile(0.99).unwrap();
/// assert!((990..=1023).contains(&p99)); // within one sub-bucket of 990
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FineHistogram {
    buckets: Vec<u64>,
    total: u64,
    stats: RunningStatsMirror,
}

impl Default for FineHistogram {
    fn default() -> Self {
        FineHistogram {
            buckets: vec![0; FINE_BUCKETS],
            total: 0,
            stats: RunningStatsMirror::default(),
        }
    }
}

impl FineHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn index(value: u64) -> usize {
        if value < FINE_EXACT {
            value as usize
        } else {
            let decade = 63 - value.leading_zeros();
            let sub = (value >> (decade - FINE_SUB_BITS)) as usize & (FINE_SUBS - 1);
            FINE_EXACT as usize + (decade - FINE_FIRST_DECADE) as usize * FINE_SUBS + sub
        }
    }

    /// The inclusive lower bound of bucket `i`.
    fn lower_bound(i: usize) -> u64 {
        if i < FINE_EXACT as usize {
            i as u64
        } else {
            let b = i - FINE_EXACT as usize;
            let decade = FINE_FIRST_DECADE + (b / FINE_SUBS) as u32;
            let sub = (b % FINE_SUBS) as u64;
            (1u64 << decade) + (sub << (decade - FINE_SUB_BITS))
        }
    }

    /// The inclusive upper bound of bucket `i`.
    fn upper_bound(i: usize) -> u64 {
        if i + 1 >= FINE_BUCKETS {
            u64::MAX
        } else {
            Self::lower_bound(i + 1) - 1
        }
    }

    /// Records one sample. The sum saturates at `u64::MAX`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in O(1); exactly equivalent to `n`
    /// single [`record`](Self::record) calls.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(value)] += n;
        self.total += n;
        self.stats.sum = self.stats.sum.saturating_add(value.saturating_mul(n));
        self.stats.min = self.stats.min.min(value);
        self.stats.max = self.stats.max.max(value);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Saturating sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.stats.sum
    }

    /// Exact mean of all recorded samples; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.stats.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.stats.min)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        if self.total == 0 {
            None
        } else {
            Some(self.stats.max)
        }
    }

    /// Quantile `q` in `[0,1]`, resolved to sub-bucket upper bounds
    /// (clamped to the exact max): ≤ ~6% relative error, exact for
    /// values below 32. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::upper_bound(i).min(self.stats.max));
            }
        }
        self.max()
    }

    /// Iterates over `(bucket_lower_bound, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::lower_bound(i), c))
    }

    /// Merges another histogram into this one (exact: bucket-wise sum
    /// plus saturating sidecars, same contract as [`Histogram::merge`]).
    pub fn merge(&mut self, other: &FineHistogram) {
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.total += other.total;
        self.stats.sum = self.stats.sum.saturating_add(other.stats.sum);
        self.stats.min = self.stats.min.min(other.stats.min);
        self.stats.max = self.stats.max.max(other.stats.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn histogram_mean_and_extremes() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.total(), 4);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(4));
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5).unwrap() >= 500 / 2); // coarse: bucketed
        assert!(h.quantile(1.0).unwrap() >= 999);
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_matches_sequential() {
        let samples: Vec<u64> = (0..200).map(|i| (i * 13) % 97).collect();
        let mut all = Histogram::new();
        for &v in &samples {
            all.record(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for &v in &samples[..70] {
            a.record(v);
        }
        for &v in &samples[70..] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a, all);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = Histogram::new();
        let mut loop_h = Histogram::new();
        for (v, n) in [(0u64, 3u64), (5, 17), (1023, 1), (7, 0), (u64::MAX, 2)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                loop_h.record(v);
            }
        }
        assert_eq!(bulk, loop_h);
        // Saturation corner: both paths pin the sum at u64::MAX.
        assert_eq!(bulk.sum(), u64::MAX);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 900, 1 << 40] {
            h.record(v);
        }
        let counts: Vec<(usize, u64)> =
            (0..64).filter(|&i| h.bucket_count(i) > 0).map(|i| (i, h.bucket_count(i))).collect();
        let rebuilt = Histogram::from_parts(&counts, h.sum(), h.min(), h.max());
        assert_eq!(rebuilt, Some(h));
        assert_eq!(Histogram::from_parts(&[], 0, None, None), Some(Histogram::new()));
    }

    #[test]
    fn from_parts_rejects_hostile_parts() {
        assert_eq!(Histogram::from_parts(&[(64, 1)], 0, None, None), None, "bucket index");
        let near_max = [(3, u64::MAX - 1), (3, 2)];
        assert_eq!(Histogram::from_parts(&near_max, 0, None, None), None, "one bucket overflows");
        let split = [(3, u64::MAX - 1), (4, 2)];
        assert_eq!(Histogram::from_parts(&split, 0, None, None), None, "the total overflows");
    }

    #[test]
    fn histogram_bucket_lower_bounds() {
        assert_eq!(Histogram::bucket_lower_bound(0), 0);
        assert_eq!(Histogram::bucket_lower_bound(1), 2);
        assert_eq!(Histogram::bucket_lower_bound(6), 64);
        assert_eq!(Histogram::bucket_lower_bound(63), 1u64 << 63);
    }

    #[test]
    fn fine_histogram_index_bounds_are_consistent() {
        // Every probe value must land in a bucket whose [lower, upper]
        // range contains it, and indices must be monotone in the value.
        let probes: Vec<u64> = (0..200u64)
            .chain((5..64).flat_map(|d| {
                let base = 1u64.checked_shl(d).unwrap_or(u64::MAX);
                [base.saturating_sub(1), base, base.saturating_add(base / 3), u64::MAX]
            }))
            .collect();
        let mut last = 0usize;
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for &v in &sorted {
            let i = FineHistogram::index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            assert!(FineHistogram::lower_bound(i) <= v, "lower bound exceeds {v}");
            assert!(v <= FineHistogram::upper_bound(i), "upper bound below {v}");
        }
        assert_eq!(FineHistogram::index(u64::MAX), FINE_BUCKETS - 1);
    }

    #[test]
    fn fine_histogram_quantile_error_is_bounded() {
        let mut h = FineHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 50_000u64), (0.99, 99_000), (0.999, 99_900)] {
            let got = h.quantile(q).unwrap() as f64;
            let rel = (got - exact as f64) / exact as f64;
            assert!((0.0..=0.0625).contains(&rel), "q={q} got={got} exact={exact}");
        }
        assert_eq!(h.quantile(1.0), Some(100_000));
        assert_eq!(FineHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn fine_histogram_exact_below_32() {
        let mut h = FineHistogram::new();
        for v in 0..32u64 {
            h.record_n(v, v + 1);
        }
        // With exact buckets the quantile is the true order statistic.
        assert_eq!(h.total(), 32 * 33 / 2);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        assert_eq!(h.sum(), (0..32u64).map(|v| v * (v + 1)).sum::<u64>());
    }

    #[test]
    fn fine_histogram_merge_matches_sequential() {
        let samples: Vec<u64> = (0..500).map(|i| (i * 7919) % 12_345).collect();
        let mut all = FineHistogram::new();
        let mut a = FineHistogram::new();
        let mut b = FineHistogram::new();
        for (k, &v) in samples.iter().enumerate() {
            all.record(v);
            if k % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
        a.merge(&FineHistogram::new());
        assert_eq!(a, all);
    }

    #[test]
    fn fine_histogram_record_n_matches_repeated_record() {
        let mut bulk = FineHistogram::new();
        let mut loop_h = FineHistogram::new();
        for (v, n) in [(0u64, 3u64), (33, 17), (1023, 1), (7, 0), (1 << 40, 2)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                loop_h.record(v);
            }
        }
        assert_eq!(bulk, loop_h);
    }

    #[test]
    fn histogram_iter_skips_empty() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(100);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (0, 1));
        assert_eq!(buckets[1], (64, 1));
    }
}
