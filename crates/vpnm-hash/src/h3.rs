//! The Carter–Wegman **H3** universal hash family.
//!
//! H3 is the canonical *hardware* universal hash: for an `a`-bit input and
//! `m`-bit output, the key is an `m × a` random bit matrix `M`, and
//! `h(x) = M·x` over GF(2) — i.e. each output bit is an XOR (parity) tree
//! over a keyed subset of address bits. H3 is 2-universal when the matrix
//! is uniform, and XOR trees pipeline trivially, which is why the paper's
//! `HU` block (Figure 2) can be "fully pipelined" with only a constant
//! latency added to `D`.

use crate::gf2::{BitMatrix, ByteTables};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An H3 hash from `addr_bits`-bit addresses to `out_bits`-bit bank
/// indices.
///
/// ```
/// use vpnm_hash::H3Hash;
/// let h = H3Hash::from_seed(32, 5, 7);
/// assert!(h.bank_of(12345) < 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H3Hash {
    matrix: BitMatrix,
    /// Affine constant XORed into the output, making the family *strongly*
    /// universal (pairwise independent) rather than merely universal.
    offset: u64,
    addr_bits: u32,
    /// The key's byte-folded evaluation tables, derived from `matrix`.
    tables: ByteTables,
}

impl H3Hash {
    /// Samples a key from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `addr_bits`/`out_bits` are 0, exceed 64, or
    /// `out_bits > addr_bits` (can't produce more entropy than input), or
    /// `out_bits > 31` (bank index must fit `u32` with headroom).
    pub fn new<R: Rng + ?Sized>(addr_bits: u32, out_bits: u32, rng: &mut R) -> Self {
        assert!((1..=64).contains(&addr_bits), "addr_bits in 1..=64");
        assert!((1..=31).contains(&out_bits), "out_bits in 1..=31");
        assert!(out_bits <= addr_bits, "out_bits must not exceed addr_bits");
        let matrix = BitMatrix::random(out_bits, addr_bits, rng);
        let offset = rng.gen::<u64>() & ((1u64 << out_bits) - 1);
        Self::from_matrix(matrix, offset)
    }

    /// Samples a key deterministically from a seed.
    pub fn from_seed(addr_bits: u32, out_bits: u32, seed: u64) -> Self {
        Self::new(addr_bits, out_bits, &mut StdRng::seed_from_u64(seed))
    }

    /// Builds from an explicit key matrix and affine offset.
    ///
    /// # Panics
    ///
    /// Panics if the offset has bits beyond the matrix row count, or the
    /// matrix exceeds 31 output bits.
    pub fn from_matrix(matrix: BitMatrix, offset: u64) -> Self {
        let out_bits = matrix.num_rows();
        assert!(out_bits <= 31, "at most 31 output bits");
        assert!(offset & !((1u64 << out_bits) - 1) == 0, "offset wider than output");
        let addr_bits = matrix.num_cols();
        let tables = ByteTables::new(&matrix);
        H3Hash { matrix, offset, addr_bits, tables }
    }

    /// The number of input address bits consumed.
    pub fn addr_bits(&self) -> u32 {
        self.addr_bits
    }

    /// The key matrix.
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Maps `addr` to a bank index in `0..2^out_bits`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        (self.tables.apply(addr) ^ self.offset) as u32
    }

    /// Maps a batch of addresses at once: `out[i] = bank_of(addrs[i])`.
    /// Mirrors the pipelined hardware `HU` block, which hashes one
    /// address per cycle back-to-back.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` and `out` differ in length.
    pub fn bank_of_batch(&self, addrs: &[u64], out: &mut [u32]) {
        assert_eq!(addrs.len(), out.len(), "batch slices must match in length");
        // Vector path: 8 addresses per iteration, one AVX2 gather per
        // byte table, truncation to 32 bits commuting with XOR — the
        // result is bit-identical to `bank_of` per element.
        #[cfg(target_arch = "x86_64")]
        if crate::simd::fold_u32(&self.tables.tabs, self.offset as u32, addrs, out) {
            return;
        }
        // The table-major scalar fold: each byte table walks the whole
        // batch while it is hot in L1.
        self.tables.apply_batch_u32(self.offset as u32, addrs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = H3Hash::from_seed(32, 5, 42);
        let b = H3Hash::from_seed(32, 5, 42);
        for x in 0..1000u64 {
            assert_eq!(a.bank_of(x), b.bank_of(x));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = H3Hash::from_seed(32, 5, 1);
        let b = H3Hash::from_seed(32, 5, 2);
        assert!((0..1000u64).any(|x| a.bank_of(x) != b.bank_of(x)));
    }

    #[test]
    fn output_in_range() {
        let h = H3Hash::from_seed(48, 6, 9);
        for x in (0..100_000u64).step_by(37) {
            assert!(h.bank_of(x) < 64);
        }
    }

    #[test]
    fn roughly_uniform_over_random_inputs() {
        let h = H3Hash::from_seed(32, 5, 123);
        let mut counts = [0u32; 32];
        let n = 32_000u64;
        for x in 0..n {
            // use well-spread inputs
            counts[h.bank_of(x.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize] += 1;
        }
        let expect = (n / 32) as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.25, "bank {b} count {c} deviates {dev:.2} from {expect}");
        }
    }

    #[test]
    fn sequential_addresses_spread_across_banks() {
        // The whole point of randomization: a stride-1 (or stride-B) stream
        // must not land in one bank.
        let h = H3Hash::from_seed(32, 5, 77);
        let mut seen = std::collections::HashSet::new();
        for x in 0..64u64 {
            seen.insert(h.bank_of(x * 32)); // stride of num_banks — kills LowBitsHash
        }
        assert!(seen.len() > 8, "stride pattern hit only {} banks", seen.len());
    }

    #[test]
    fn pairwise_collision_rate_near_universal_bound() {
        // Estimate Pr_key[h(x)=h(y)] over keys for a few fixed pairs; a
        // universal family gives 1/32 with the affine offset making it exact.
        let pairs = [(1u64, 2u64), (100, 10_000), (0xFFFF_FFFF, 1)];
        for &(x, y) in &pairs {
            let mut coll = 0u32;
            let trials = 4000u32;
            for seed in 0..trials {
                let h = H3Hash::from_seed(32, 5, u64::from(seed) + 1000);
                if h.bank_of(x) == h.bank_of(y) {
                    coll += 1;
                }
            }
            let rate = f64::from(coll) / f64::from(trials);
            assert!((rate - 1.0 / 32.0).abs() < 0.015, "pair ({x},{y}) collision rate {rate:.4}");
        }
    }

    #[test]
    fn table_fold_matches_matrix_multiply() {
        // The byte tables are derived data; the fold must agree with the
        // naive per-row parity evaluation on every input, including
        // addresses with set bits beyond addr_bits (which both ignore).
        for (addr_bits, out_bits, seed) in [(32, 5, 11u64), (20, 4, 12), (64, 6, 13), (7, 3, 14)] {
            let h = H3Hash::from_seed(addr_bits, out_bits, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..2000 {
                let x: u64 = rng.gen();
                assert_eq!(
                    h.bank_of(x),
                    (h.matrix().mul_vec(x) ^ h.offset) as u32,
                    "mismatch at addr {x:#x} ({addr_bits}x{out_bits})"
                );
            }
        }
    }

    #[test]
    fn batch_matches_scalar() {
        for (addr_bits, out_bits, seed) in [(32, 5, 21u64), (64, 6, 22), (7, 3, 23)] {
            let h = H3Hash::from_seed(addr_bits, out_bits, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5151);
            let addrs: Vec<u64> = (0..777).map(|_| rng.gen()).collect();
            let mut out = vec![0u32; addrs.len()];
            h.bank_of_batch(&addrs, &mut out);
            let mut scalar = vec![0u32; addrs.len()];
            h.tables.apply_batch_u32(h.offset as u32, &addrs, &mut scalar);
            assert_eq!(out, scalar, "dispatching batch vs scalar batch");
            for (&a, &b) in addrs.iter().zip(&out) {
                assert_eq!(b, h.bank_of(a), "addr {a:#x}");
            }
        }
    }

    #[test]
    fn from_matrix_applies_offset() {
        let m = BitMatrix::identity(3);
        let h = H3Hash::from_matrix(m, 0b101);
        assert_eq!(h.bank_of(0b000), 0b101);
        assert_eq!(h.bank_of(0b111), 0b010);
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn from_matrix_rejects_wide_offset() {
        let _ = H3Hash::from_matrix(BitMatrix::identity(3), 0b1000);
    }

    #[test]
    #[should_panic(expected = "out_bits")]
    fn new_rejects_out_wider_than_addr() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = H3Hash::new(4, 5, &mut rng);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Three ways bit-identical: per-element `bank_of`, the
        /// table-major scalar batch, and the dispatching batch (AVX2
        /// where the host has it) — for random keys, widths, and batch
        /// lengths spanning the 8-lane vector boundary and the scalar
        /// tail.
        #[test]
        fn batch_bit_identical_to_scalar(
            seed in any::<u64>(),
            addr_bits in 1u32..=64,
            addrs in proptest::collection::vec(any::<u64>(), 0..48),
        ) {
            let out_bits = addr_bits.min(31);
            let h = H3Hash::from_seed(addr_bits, out_bits, seed);
            let mut out = vec![0u32; addrs.len()];
            h.bank_of_batch(&addrs, &mut out);
            let mut scalar = vec![0u32; addrs.len()];
            h.tables.apply_batch_u32(h.offset as u32, &addrs, &mut scalar);
            prop_assert_eq!(&out, &scalar, "dispatching batch vs scalar batch");
            for (&a, &b) in addrs.iter().zip(&out) {
                prop_assert_eq!(b, h.bank_of(a), "addr {:#x}", a);
            }
        }
    }
}
