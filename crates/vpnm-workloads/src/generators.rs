//! Address stream generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An infinite stream of cell addresses.
pub trait AddressGenerator {
    /// Produces the next address.
    fn next_addr(&mut self) -> u64;

    /// Fills `out` with the next `out.len()` addresses of the stream —
    /// identical, element for element, to that many [`next_addr`] calls
    /// (the default implementation *is* that loop, so determinism holds by
    /// construction). Batch consumers (benchmark loops, campaign shards)
    /// use this to amortize the per-call overhead of a boxed or enum
    /// generator over a whole batch.
    ///
    /// [`next_addr`]: AddressGenerator::next_addr
    fn fill_addrs(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next_addr();
        }
    }
}

/// Uniformly random addresses over `[0, space)` — the baseline pattern the
/// MTS analysis assumes (the universal hash makes *every* pattern look
/// like this one).
///
/// Backed by a SplitMix64 counter stream rather than a cryptographic RNG:
/// this generator runs *inside* the timed region of throughput benchmarks
/// and feeds the live-serving traffic loop, so producing an address must
/// cost a handful of arithmetic ops, not a ChaCha block. SplitMix64 easily
/// clears the statistical bar for synthetic uniform traffic, and the
/// stream is still a pure function of `seed`.
#[derive(Debug, Clone)]
pub struct UniformAddresses {
    space: u64,
    state: u64,
}

impl UniformAddresses {
    /// Creates a generator over `[0, space)`.
    ///
    /// # Panics
    ///
    /// Panics if `space == 0`.
    pub fn new(space: u64, seed: u64) -> Self {
        assert!(space > 0, "address space must be non-empty");
        UniformAddresses { space, state: seed }
    }
}

impl AddressGenerator for UniformAddresses {
    #[inline]
    fn next_addr(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = vpnm_hash::fast::mix64(self.state);
        // Lemire multiply-shift reduction: maps the 64-bit sample onto
        // `[0, space)` with bias below 2^-32 for any realistic space —
        // no modulo, no rejection loop.
        ((u128::from(z) * u128::from(self.space)) >> 64) as u64
    }
}

/// Constant-stride addresses `start, start+s, start+2s, …` (mod space) —
/// the classic bank-conflict killer for power-of-two banking (stride `B`
/// puts every access in one bank under low-bit selection).
#[derive(Debug, Clone)]
pub struct StrideAddresses {
    next: u64,
    stride: u64,
    space: u64,
}

impl StrideAddresses {
    /// Creates a strided stream.
    ///
    /// # Panics
    ///
    /// Panics if `space == 0` or `stride == 0`.
    pub fn new(start: u64, stride: u64, space: u64) -> Self {
        assert!(space > 0 && stride > 0);
        StrideAddresses { next: start % space, stride, space }
    }
}

impl AddressGenerator for StrideAddresses {
    fn next_addr(&mut self) -> u64 {
        let a = self.next;
        self.next = (self.next + self.stride) % self.space;
        a
    }
}

/// Heavy-tailed (approximately Zipf `s = 1`) flow IDs over arbitrarily
/// large spaces in O(1) memory — no precomputed CDF, so million-flow
/// spaces cost nothing to set up.
///
/// Samples are log-uniform: `flow = floor(space^(u^skew)) - 1` for
/// `u ~ U[0,1)`, so `P(flow < x) = ln(x)/ln(space)` at `skew = 1` and the
/// rank-frequency curve is `∝ 1/rank` — the classic Internet flow-size
/// distribution (a few elephant flows carry most packets, the mouse tail
/// carries the rest). `skew > 1` concentrates further onto the elephants;
/// `skew < 1` flattens toward uniform. Concretely, at `skew = 1` the top
/// 0.1% of a 2^20-flow space draws ~50% of all packets.
#[derive(Debug, Clone)]
pub struct HeavyTailFlows {
    space: u64,
    ln_space: f64,
    skew: f64,
    rng: StdRng,
}

impl HeavyTailFlows {
    /// Creates a heavy-tailed stream over `[0, space)`.
    ///
    /// # Panics
    ///
    /// Panics if `space < 2` (the log-uniform map needs a non-degenerate
    /// range) or `skew` is not a positive finite number.
    pub fn new(space: u64, skew: f64, seed: u64) -> Self {
        assert!(space >= 2, "flow space must have at least 2 flows");
        assert!(skew > 0.0 && skew.is_finite(), "skew must be positive and finite");
        HeavyTailFlows {
            space,
            ln_space: (space as f64).ln(),
            skew,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The flow-space size this stream draws from.
    pub fn space(&self) -> u64 {
        self.space
    }
}

impl AddressGenerator for HeavyTailFlows {
    fn next_addr(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        // IEEE 754 guarantees pow(x, 1.0) == x exactly, so the default
        // Zipf(1) mix can skip the expensive powf without perturbing a
        // single draw (pinned by `skew_one_fast_path_is_bit_identical`).
        let shaped = if self.skew == 1.0 { u } else { u.powf(self.skew) };
        let flow = (shaped * self.ln_space).exp() as u64;
        // exp(·) lands in [1, space); the clamp guards the u → 1 edge.
        flow.saturating_sub(1).min(self.space - 1)
    }
}

/// Cyclic repetition of a fixed address set: `[A]` gives the paper's
/// "A,A,A,A,…", `[A, B]` gives "A,B,A,B,…" (Section 3.4) — the patterns
/// the merging queue must absorb with bounded rows.
#[derive(Debug, Clone)]
pub struct RedundantPattern {
    pattern: Vec<u64>,
    pos: usize,
}

impl RedundantPattern {
    /// Creates a cyclic pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` is empty.
    pub fn new(pattern: Vec<u64>) -> Self {
        assert!(!pattern.is_empty(), "pattern must be non-empty");
        RedundantPattern { pattern, pos: 0 }
    }
}

impl AddressGenerator for RedundantPattern {
    fn next_addr(&mut self) -> u64 {
        let a = self.pattern[self.pos];
        self.pos = (self.pos + 1) % self.pattern.len();
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take<G: AddressGenerator>(g: &mut G, n: usize) -> Vec<u64> {
        (0..n).map(|_| g.next_addr()).collect()
    }

    #[test]
    fn uniform_stays_in_range_and_varies() {
        let mut g = UniformAddresses::new(100, 1);
        let v = take(&mut g, 1000);
        assert!(v.iter().all(|&a| a < 100));
        let distinct: std::collections::HashSet<_> = v.iter().collect();
        assert!(distinct.len() > 50);
    }

    #[test]
    fn uniform_deterministic() {
        let a = take(&mut UniformAddresses::new(1000, 9), 50);
        let b = take(&mut UniformAddresses::new(1000, 9), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn stride_pattern() {
        let mut g = StrideAddresses::new(0, 32, 128);
        assert_eq!(take(&mut g, 5), vec![0, 32, 64, 96, 0]);
    }

    #[test]
    fn heavy_tail_is_deterministic_and_in_range() {
        let space = 1u64 << 40; // far beyond what a CDF table could hold
        let a = take(&mut HeavyTailFlows::new(space, 1.0, 11), 200);
        let b = take(&mut HeavyTailFlows::new(space, 1.0, 11), 200);
        assert_eq!(a, b);
        assert!(a.iter().all(|&f| f < space));
        assert_eq!(HeavyTailFlows::new(space, 1.0, 11).space(), space);
    }

    #[test]
    fn skew_one_fast_path_is_bit_identical() {
        // The skew == 1.0 branch skips powf; IEEE 754 pow(x, 1.0) == x
        // exactly, so a generator forced through powf (skew nudged by
        // one ulp would change draws, so compare against the documented
        // identity directly) must agree bit for bit.
        let space = 1u64 << 30;
        let fast = take(&mut HeavyTailFlows::new(space, 1.0, 21), 10_000);
        let reference: Vec<u64> = {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(21);
            let ln_space = (space as f64).ln();
            (0..10_000)
                .map(|_| {
                    let u: f64 = rng.gen();
                    let flow = (u.powf(1.0) * ln_space).exp() as u64;
                    flow.saturating_sub(1).min(space - 1)
                })
                .collect()
        };
        assert_eq!(fast, reference);
    }

    #[test]
    fn heavy_tail_elephants_dominate() {
        // Log-uniform over 2^20 flows: the top 0.1% of flow IDs should
        // carry about ln(1049)/ln(2^20) ~ 50% of packets.
        let space = 1u64 << 20;
        let mut g = HeavyTailFlows::new(space, 1.0, 7);
        let v = take(&mut g, 50_000);
        let top = v.iter().filter(|&&f| f < space / 1000).count();
        let share = top as f64 / v.len() as f64;
        assert!((0.40..=0.60).contains(&share), "top-0.1% share was {share}");
    }

    #[test]
    fn heavy_tail_skew_knob_concentrates() {
        let space = 1u64 << 20;
        let head = |skew: f64| {
            let mut g = HeavyTailFlows::new(space, skew, 3);
            take(&mut g, 20_000).iter().filter(|&&f| f < 16).count()
        };
        assert!(head(2.0) > 2 * head(1.0), "skew=2 must beat skew=1 on the head");
    }

    #[test]
    fn redundant_cycles() {
        let mut g = RedundantPattern::new(vec![7]);
        assert_eq!(take(&mut g, 3), vec![7, 7, 7]);
        let mut g = RedundantPattern::new(vec![1, 2]);
        assert_eq!(take(&mut g, 5), vec![1, 2, 1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_rejected() {
        let _ = RedundantPattern::new(vec![]);
    }

    #[test]
    fn fill_addrs_matches_next_addr_sequence() {
        let mut a = UniformAddresses::new(1 << 20, 42);
        let mut b = a.clone();
        let expect = take(&mut a, 257);
        let mut got = vec![0u64; 257];
        b.fill_addrs(&mut got);
        assert_eq!(got, expect);
        // and across two consecutive batches
        let expect2 = take(&mut a, 31);
        let mut got2 = vec![0u64; 31];
        b.fill_addrs(&mut got2);
        assert_eq!(got2, expect2);
    }
}
