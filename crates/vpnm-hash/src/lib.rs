//! Universal hashing substrate for Virtually Pipelined Network Memory.
//!
//! The VPNM controller (paper Section 3.2) maps memory lines to banks with a
//! *universal hash* so that no adversary can construct bank conflicts with
//! better-than-random probability without directly observing conflicts —
//! and latency normalization ensures conflicts are never observable. This
//! crate provides the hash machinery:
//!
//! * [`gf2`] — dense bit-matrix linear algebra over GF(2): rank, inversion,
//!   random invertible matrices. This is the foundation for hardware-style
//!   XOR-network hashes.
//! * [`h3`] — the classic Carter–Wegman **H3** family (each output bit is a
//!   parity over a keyed subset of input bits), the standard hardware
//!   universal hash; what the paper's `HU` block would synthesize to.
//! * [`multiply_shift`] — Dietzfelbinger's multiply–shift family, a cheaper
//!   software-friendly 2-universal alternative used for cross-checking.
//! * [`tabulation`] — simple tabulation hashing (3-independent), a third
//!   family for statistical comparison.
//! * [`permute`] — *invertible* affine GF(2) address randomizers. Unlike a
//!   bare bank hash, an invertible transform defines a bijective placement
//!   of memory lines onto (bank, row) pairs, so every physical line is used
//!   exactly once — this is how an actual controller must randomize
//!   placement.
//! * [`channel`] — the fabric-level *channel-select* stage: bijective
//!   `address -> (channel, local address)` splits (low bits, high bits,
//!   or a keyed invertible permutation) used by `vpnm-core`'s
//!   multi-channel `VpnmFabric` to stripe requests over independent
//!   controllers.
//! * [`fast`] — the workspace's canonical *non-adversarial* SplitMix64
//!   mixer and hasher for simulator-internal maps and keystreams;
//!   never used for bank selection.
//!
//! All hashers implement [`BankHasher`], the interface consumed by
//! `vpnm-core`.
//!
//! # Example
//!
//! ```
//! use vpnm_hash::{BankHasher, H3Hash};
//!
//! // 32-bit addresses hashed onto 32 banks (5 bank bits).
//! let h = H3Hash::from_seed(32, 5, 0xDEAD_BEEF);
//! let b = h.bank_of(0x1234_5678);
//! assert!(b < 32);
//! // Deterministic for a fixed key:
//! assert_eq!(b, H3Hash::from_seed(32, 5, 0xDEAD_BEEF).bank_of(0x1234_5678));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod channel;
pub mod fast;
pub mod gf2;
pub mod h3;
pub mod multiply_shift;
pub mod permute;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod simd;
pub mod tabulation;

pub use channel::{ChannelSelect, ChannelSelector};
pub use fast::{splitmix64, FastHashMap, FastHashSet, FastHasher};
pub use gf2::BitMatrix;
pub use h3::H3Hash;
pub use multiply_shift::MultiplyShiftHash;
pub use permute::AffinePermutation;
pub use tabulation::TabulationHash;

/// A keyed function from memory-line addresses to bank indices.
///
/// Implementations must be *universal* (collision probability of any fixed
/// address pair over the key choice is at most `1/num_banks`) for the VPNM
/// worst-case analysis (paper Sections 3.2 and 5) to hold.
pub trait BankHasher {
    /// Number of banks the hash maps onto (a power of two).
    fn num_banks(&self) -> u32;

    /// Maps `addr` to a bank index in `0..num_banks()`.
    fn bank_of(&self, addr: u64) -> u32;

    /// Maps a batch of addresses at once: `out[i] = bank_of(addrs[i])`.
    ///
    /// Semantically identical to the scalar loop; implementations may
    /// override it to amortize per-call overhead (e.g. [`H3Hash`] hoists
    /// its byte-fold table walk outside the address loop). Mirrors the
    /// pipelined hardware `HU` block, which hashes one address per cycle
    /// back-to-back.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` and `out` differ in length.
    fn bank_of_batch(&self, addrs: &[u64], out: &mut [u32]) {
        assert_eq!(addrs.len(), out.len(), "batch slices must match in length");
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.bank_of(a);
        }
    }

    /// The pipeline latency of a hardware realization of this hash, in
    /// interface cycles. The paper notes the universal hash "can be fully
    /// pipelined" (Section 3.4): it adds a constant to the normalized delay
    /// `D` but no throughput cost.
    fn latency_cycles(&self) -> u64 {
        1
    }
}

/// Blanket impl so trait objects and references can be passed where a
/// generic `BankHasher` is expected.
impl<T: BankHasher + ?Sized> BankHasher for &T {
    fn num_banks(&self) -> u32 {
        (**self).num_banks()
    }
    fn bank_of(&self, addr: u64) -> u32 {
        (**self).bank_of(addr)
    }
    fn bank_of_batch(&self, addrs: &[u64], out: &mut [u32]) {
        (**self).bank_of_batch(addrs, out)
    }
    fn latency_cycles(&self) -> u64 {
        (**self).latency_cycles()
    }
}

/// A trivial non-randomized "hash" that selects the low address bits as the
/// bank index — what a conventional controller does, and the baseline the
/// paper's randomization is compared against (an adversary defeats this
/// with a simple stride of `num_banks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowBitsHash {
    bank_bits: u32,
}

impl LowBitsHash {
    /// Creates a selector of the low `bank_bits` address bits.
    ///
    /// # Panics
    ///
    /// Panics if `bank_bits` is 0 or greater than 32.
    pub fn new(bank_bits: u32) -> Self {
        assert!((1..=32).contains(&bank_bits), "bank_bits must be in 1..=32");
        LowBitsHash { bank_bits }
    }
}

impl BankHasher for LowBitsHash {
    fn num_banks(&self) -> u32 {
        1 << self.bank_bits
    }

    fn bank_of(&self, addr: u64) -> u32 {
        (addr & ((1 << self.bank_bits) - 1)) as u32
    }

    fn latency_cycles(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_bits_hash_is_modulo() {
        let h = LowBitsHash::new(3);
        assert_eq!(h.num_banks(), 8);
        for a in 0..64u64 {
            assert_eq!(h.bank_of(a), (a % 8) as u32);
        }
        assert_eq!(h.latency_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "bank_bits")]
    fn low_bits_rejects_zero() {
        let _ = LowBitsHash::new(0);
    }

    #[test]
    fn trait_object_usable() {
        let h = LowBitsHash::new(2);
        let dynref: &dyn BankHasher = &h;
        assert_eq!(dynref.bank_of(5), 1);
        assert_eq!(dynref.num_banks(), 4);
        fn takes_generic<H: BankHasher>(h: H) -> u32 {
            h.bank_of(6)
        }
        assert_eq!(takes_generic(h), 2);
    }
}
