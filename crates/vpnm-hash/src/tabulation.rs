//! Simple tabulation hashing.
//!
//! The address is split into 8-bit characters; each character indexes a
//! per-position table of random words which are XORed together. Simple
//! tabulation is 3-independent and, despite its simplicity, behaves like a
//! much higher-independence family in balls-into-bins settings — making it a
//! good third family for the statistical comparisons in the experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tabulation hash from 64-bit addresses to `out_bits`-bit bank indices.
///
/// The hardware realization is 8 parallel 256-entry SRAM lookups plus an
/// XOR tree, fully pipelined.
///
/// ```
/// use vpnm_hash::TabulationHash;
/// let h = TabulationHash::from_seed(5, 21);
/// assert!(h.bank_of(0xABCD_EF01) < 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabulationHash {
    tables: Box<[[u32; 256]; 8]>,
}

impl TabulationHash {
    /// Samples tables from `rng`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= out_bits <= 31`.
    pub fn new<R: Rng + ?Sized>(out_bits: u32, rng: &mut R) -> Self {
        assert!((1..=31).contains(&out_bits), "out_bits in 1..=31");
        let mask = (1u32 << out_bits) - 1;
        let mut tables = Box::new([[0u32; 256]; 8]);
        for t in tables.iter_mut() {
            for e in t.iter_mut() {
                *e = rng.gen::<u32>() & mask;
            }
        }
        TabulationHash { tables }
    }

    /// Samples tables deterministically from a seed.
    pub fn from_seed(out_bits: u32, seed: u64) -> Self {
        Self::new(out_bits, &mut StdRng::seed_from_u64(seed))
    }

    /// Maps `addr` to a bank index in `0..2^out_bits`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        let mut h = 0u32;
        for (i, t) in self.tables.iter().enumerate() {
            h ^= t[((addr >> (8 * i)) & 0xFF) as usize];
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let a = TabulationHash::from_seed(5, 4);
        let b = TabulationHash::from_seed(5, 4);
        for x in (0..10_000u64).step_by(7) {
            let v = a.bank_of(x);
            assert!(v < 32);
            assert_eq!(v, b.bank_of(x));
        }
    }

    #[test]
    fn single_byte_change_changes_hash_distribution() {
        let h = TabulationHash::from_seed(8, 5);
        // flipping one input byte re-randomizes the output completely
        let mut diffs = 0;
        for x in 0..1000u64 {
            if h.bank_of(x) != h.bank_of(x | 0x0100_0000) {
                diffs += 1;
            }
        }
        assert!(diffs > 900);
    }

    #[test]
    fn uniform_over_sequential_inputs() {
        // tabulation handles even sequential inputs well
        let h = TabulationHash::from_seed(5, 6);
        let mut counts = [0u32; 32];
        for x in 0..32_000u64 {
            counts[h.bank_of(x) as usize] += 1;
        }
        for &c in &counts {
            let dev = (f64::from(c) - 1000.0).abs() / 1000.0;
            assert!(dev < 0.25);
        }
    }

    #[test]
    fn pairwise_collision_rate_bounded() {
        let (x, y) = (7u64, 123_456u64);
        let trials = 4000u32;
        let mut coll = 0u32;
        for seed in 0..trials {
            let h = TabulationHash::from_seed(5, u64::from(seed));
            if h.bank_of(x) == h.bank_of(y) {
                coll += 1;
            }
        }
        let rate = f64::from(coll) / f64::from(trials);
        assert!((rate - 1.0 / 32.0).abs() < 0.015, "rate {rate:.4}");
    }
}
