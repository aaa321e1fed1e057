//! Invertible affine address randomizers.
//!
//! A bank *hash* tells you which bank an address maps to, but a memory
//! controller also has to *place* every line somewhere: the full mapping
//! from line address to (bank, row-within-bank) must be a bijection, or two
//! lines would collide in the same physical cell. [`AffinePermutation`]
//! provides that bijection: `p(x) = M·x ⊕ c` with `M` a random invertible
//! GF(2) matrix. The low `bank_bits` of `p(x)` select the bank, the
//! remaining bits the in-bank location — both uniformly randomized.
//!
//! This also supports the paper's re-keying escape hatch (Section 4): "a
//! further option is to change the universal mapping function and reorder
//! the data on the occurrence of multiple stalls". [`AffinePermutation::
//! relocation`] computes, for each line, where it moves under a new key.

use crate::gf2::{BitMatrix, ByteTables};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An invertible affine transform `p(x) = M·x ⊕ c` over `addr_bits`-bit
/// addresses, used as a bijective bank/row placement function.
///
/// ```
/// use vpnm_hash::AffinePermutation;
/// let p = AffinePermutation::from_seed(16, 4, 99);
/// // A permutation: 2^16 inputs map to 2^16 distinct outputs.
/// let x = 0x1234u64;
/// let y = p.apply(x);
/// assert_eq!(p.invert(y), x);
/// assert_eq!(p.bank_of(x), (y & 0xF) as u32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffinePermutation {
    forward: BitMatrix,
    inverse: BitMatrix,
    /// Byte-tabulated `forward`/`inverse`, so the hot `apply`/`invert`
    /// paths cost a few L1 loads instead of one popcount per output bit.
    /// Derived from the matrices at construction — never serialized,
    /// always in agreement.
    fwd_tab: ByteTables,
    inv_tab: ByteTables,
    offset: u64,
    addr_bits: u32,
    bank_bits: u32,
}

impl AffinePermutation {
    /// Samples a random invertible transform.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bank_bits < addr_bits <= 64` and
    /// `bank_bits <= 31`.
    pub fn new<R: Rng + ?Sized>(addr_bits: u32, bank_bits: u32, rng: &mut R) -> Self {
        assert!((2..=64).contains(&addr_bits), "addr_bits in 2..=64");
        assert!(bank_bits >= 1 && bank_bits < addr_bits && bank_bits <= 31);
        let forward = BitMatrix::random_invertible(addr_bits, rng);
        let inverse = forward.inverse().expect("sampled invertible");
        let offset =
            rng.gen::<u64>() & if addr_bits == 64 { u64::MAX } else { (1u64 << addr_bits) - 1 };
        let fwd_tab = ByteTables::new(&forward);
        let inv_tab = ByteTables::new(&inverse);
        AffinePermutation { forward, inverse, fwd_tab, inv_tab, offset, addr_bits, bank_bits }
    }

    /// Samples deterministically from a seed.
    pub fn from_seed(addr_bits: u32, bank_bits: u32, seed: u64) -> Self {
        Self::new(addr_bits, bank_bits, &mut StdRng::seed_from_u64(seed))
    }

    /// The randomized physical location of line `x`.
    #[inline]
    pub fn apply(&self, x: u64) -> u64 {
        self.fwd_tab.apply(x) ^ self.offset
    }

    /// Inverse mapping: which line lives at physical location `y`.
    #[inline]
    pub fn invert(&self, y: u64) -> u64 {
        self.inv_tab.apply(y ^ self.offset)
    }

    /// Batched [`AffinePermutation::apply`]: `out[i] = apply(xs[i])`,
    /// bit-identical to the per-element path.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn apply_batch(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "batch slices must match in length");
        self.fwd_tab.apply_batch(self.offset, xs, out);
    }

    /// Number of address bits in the permuted space.
    pub fn addr_bits(&self) -> u32 {
        self.addr_bits
    }

    /// Row-within-bank part of the placement (the bits above the bank
    /// index).
    #[inline]
    pub fn row_of(&self, x: u64) -> u64 {
        self.apply(x) >> self.bank_bits
    }

    /// For re-keying: where does the line currently at physical location
    /// `y` (under `self`) live under `new`? Data migration walks physical
    /// locations, so this is `new.apply(self.invert(y))`.
    pub fn relocation(&self, new: &AffinePermutation, y: u64) -> u64 {
        new.apply(self.invert(y))
    }

    /// Bank part of the placement: the low `bank_bits` of `apply(addr)`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        (self.apply(addr) & ((1u64 << self.bank_bits) - 1)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn is_a_bijection_on_small_space() {
        let p = AffinePermutation::from_seed(12, 3, 1);
        let mut seen = HashSet::new();
        for x in 0..(1u64 << 12) {
            let y = p.apply(x);
            assert!(y < (1 << 12));
            assert!(seen.insert(y), "duplicate output {y}");
            assert_eq!(p.invert(y), x);
        }
        assert_eq!(seen.len(), 1 << 12);
    }

    #[test]
    fn banks_perfectly_balanced() {
        // A bijection sends exactly 2^(addr-bank) lines to each bank.
        let p = AffinePermutation::from_seed(10, 4, 2);
        let mut counts = [0u32; 16];
        for x in 0..(1u64 << 10) {
            counts[p.bank_of(x) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 64));
    }

    #[test]
    fn row_and_bank_reassemble_location() {
        let p = AffinePermutation::from_seed(20, 5, 3);
        for x in (0..(1u64 << 20)).step_by(4097) {
            let loc = p.apply(x);
            assert_eq!((p.row_of(x) << 5) | u64::from(p.bank_of(x)), loc);
        }
    }

    #[test]
    fn relocation_consistent_with_rekey() {
        let old = AffinePermutation::from_seed(12, 3, 10);
        let new = AffinePermutation::from_seed(12, 3, 11);
        for y in (0..(1u64 << 12)).step_by(13) {
            let line = old.invert(y);
            assert_eq!(old.relocation(&new, y), new.apply(line));
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let a = AffinePermutation::from_seed(16, 4, 5);
        let b = AffinePermutation::from_seed(16, 4, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn stride_pattern_spreads() {
        let p = AffinePermutation::from_seed(32, 5, 6);
        let mut seen = HashSet::new();
        for i in 0..64u64 {
            seen.insert(p.bank_of(i * 32));
        }
        assert!(seen.len() > 8);
    }

    #[test]
    #[should_panic(expected = "bank_bits")]
    fn rejects_bank_bits_ge_addr_bits() {
        let _ = AffinePermutation::from_seed(8, 8, 0);
    }

    #[test]
    fn byte_tables_match_the_matrices_bit_for_bit() {
        // The tabulated hot path must agree with the defining mat-vec on
        // every width, including non-byte-aligned ones and stray high
        // bits beyond addr_bits (both mask identically).
        for (addr_bits, seed) in [(2u32, 1u64), (13, 2), (32, 3), (57, 4), (64, 5)] {
            let p = AffinePermutation::from_seed(addr_bits, 1, seed);
            let mut x = seed | 1;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                assert_eq!(p.apply(x), p.forward.mul_vec(x) ^ p.offset, "{addr_bits} bits");
                assert_eq!(p.invert(x), p.inverse.mul_vec(x ^ p.offset), "{addr_bits} bits");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// apply/invert round-trip for arbitrary dimensions and inputs.
        #[test]
        fn roundtrip(seed in any::<u64>(), addr_bits in 2u32..32, v in any::<u64>()) {
            let bank_bits = 1u32.max(addr_bits / 4).min(addr_bits - 1);
            let p = AffinePermutation::from_seed(addr_bits, bank_bits, seed);
            let mask = (1u64 << addr_bits) - 1;
            let x = v & mask;
            prop_assert_eq!(p.invert(p.apply(x)), x);
            prop_assert!(p.apply(x) <= mask);
        }

        /// bank_of is consistent with apply's low bits.
        #[test]
        fn bank_consistent(seed in any::<u64>(), v in any::<u64>()) {
            let p = AffinePermutation::from_seed(24, 4, seed);
            let x = v & 0xFF_FFFF;
            prop_assert_eq!(u64::from(p.bank_of(x)), p.apply(x) & 0xF);
            prop_assert_eq!(p.row_of(x), p.apply(x) >> 4);
        }

        /// The table-major `apply_batch` is bit-identical to per-element
        /// `apply`, for random keys, widths, and batch lengths.
        #[test]
        fn batch_bit_identical_to_scalar(
            seed in any::<u64>(),
            addr_bits in 2u32..=64,
            xs in proptest::collection::vec(any::<u64>(), 0..48),
        ) {
            let bank_bits = 1u32.max(addr_bits / 4).min(addr_bits - 1).min(31);
            let p = AffinePermutation::from_seed(addr_bits, bank_bits, seed);
            let mut out = vec![0u64; xs.len()];
            p.apply_batch(&xs, &mut out);
            for (i, &x) in xs.iter().enumerate() {
                prop_assert_eq!(out[i], p.apply(x), "apply({:#x})", x);
            }
        }
    }
}
