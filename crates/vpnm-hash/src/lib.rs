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
//! Each family has an inherent `bank_of`; `vpnm-core`'s `HashEngine`,
//! a closed enum over the families, is the one dispatch the controller
//! calls. Every bank hash except [`LowBitsHash`] is *universal* (any
//! fixed address pair collides with probability at most `1/banks` over
//! the key choice), which the VPNM worst-case analysis (paper Sections
//! 3.2 and 5) needs.
//!
//! # Example
//!
//! ```
//! use vpnm_hash::H3Hash;
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
pub use fast::{splitmix64, FastHashMap, FastHasher};
pub use gf2::BitMatrix;
pub use h3::H3Hash;
pub use multiply_shift::MultiplyShiftHash;
pub use permute::AffinePermutation;
pub use tabulation::TabulationHash;

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

    /// Maps `addr` to a bank index in `0..2^bank_bits`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        (addr & ((1 << self.bank_bits) - 1)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_bits_hash_is_modulo() {
        let h = LowBitsHash::new(3);
        for a in 0..64u64 {
            assert_eq!(h.bank_of(a), (a % 8) as u32);
        }
    }

    #[test]
    #[should_panic(expected = "bank_bits")]
    fn low_bits_rejects_zero() {
        let _ = LowBitsHash::new(0);
    }
}
