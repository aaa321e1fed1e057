//! Dietzfelbinger multiply–shift universal hashing.
//!
//! `h(x) = ((a·x + b) mod 2^w) >> (w − m)` with odd `a` is universal for
//! `m`-bit outputs and costs one multiply — a convenient software
//! cross-check for the H3 family and the default hash in the workload
//! generators' internal sampling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A multiply–shift hash from 64-bit addresses to `out_bits`-bit bank
/// indices.
///
/// ```
/// use vpnm_hash::MultiplyShiftHash;
/// let h = MultiplyShiftHash::from_seed(5, 3);
/// assert!(h.bank_of(99) < 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiplyShiftHash {
    a: u64,
    b: u64,
    out_bits: u32,
}

impl MultiplyShiftHash {
    /// Samples a key from `rng`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= out_bits <= 31`.
    pub fn new<R: Rng + ?Sized>(out_bits: u32, rng: &mut R) -> Self {
        assert!((1..=31).contains(&out_bits), "out_bits in 1..=31");
        MultiplyShiftHash { a: rng.gen::<u64>() | 1, b: rng.gen::<u64>(), out_bits }
    }

    /// Samples a key deterministically from a seed.
    pub fn from_seed(out_bits: u32, seed: u64) -> Self {
        Self::new(out_bits, &mut StdRng::seed_from_u64(seed))
    }

    /// The odd multiplier of the key.
    pub fn multiplier(&self) -> u64 {
        self.a
    }

    /// Maps `addr` to a bank index in `0..2^out_bits`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        (self.a.wrapping_mul(addr).wrapping_add(self.b) >> (64 - self.out_bits)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_is_odd() {
        for seed in 0..50 {
            assert_eq!(MultiplyShiftHash::from_seed(4, seed).multiplier() & 1, 1);
        }
    }

    #[test]
    fn deterministic_and_in_range() {
        let h = MultiplyShiftHash::from_seed(6, 11);
        let h2 = MultiplyShiftHash::from_seed(6, 11);
        for x in 0..500u64 {
            let b = h.bank_of(x);
            assert!(b < 64);
            assert_eq!(b, h2.bank_of(x));
        }
    }

    #[test]
    fn sequential_inputs_spread() {
        let h = MultiplyShiftHash::from_seed(5, 3);
        let mut seen = std::collections::HashSet::new();
        for x in 0..64u64 {
            seen.insert(h.bank_of(x * 32));
        }
        assert!(seen.len() > 8);
    }

    #[test]
    fn pairwise_collision_rate_bounded() {
        let (x, y) = (12u64, 99_991u64);
        let trials = 4000u32;
        let mut coll = 0u32;
        for seed in 0..trials {
            let h = MultiplyShiftHash::from_seed(5, u64::from(seed));
            if h.bank_of(x) == h.bank_of(y) {
                coll += 1;
            }
        }
        let rate = f64::from(coll) / f64::from(trials);
        // multiply-shift guarantees <= 2/m; typically near 1/m
        assert!(rate < 2.5 / 32.0, "collision rate {rate:.4}");
    }

    #[test]
    fn uniform_over_random_inputs() {
        let h = MultiplyShiftHash::from_seed(5, 8);
        let mut counts = [0u32; 32];
        for x in 0..32_000u64 {
            counts[h.bank_of(x.wrapping_mul(0x2545_F491_4F6C_DD1D)) as usize] += 1;
        }
        for &c in &counts {
            let dev = (f64::from(c) - 1000.0).abs() / 1000.0;
            assert!(dev < 0.25);
        }
    }
}
