//! The controller's universal hash unit (`HU` in paper Figure 2).
//!
//! [`HashEngine`] is a closed enum over the hash families provided by
//! `vpnm-hash` and the one dispatch over them, so configs remain plain
//! data and the controller avoids generic/dynamic dispatch in its hot
//! path. A family's pipeline latency is stated once, in
//! [`HashKind::latency_cycles`].

use std::fmt;
use vpnm_hash::{AffinePermutation, H3Hash, LowBitsHash, MultiplyShiftHash, TabulationHash};

/// Which universal hash family the controller uses for its bank mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// Carter–Wegman H3 (XOR network) — the hardware-canonical choice and
    /// the default.
    H3,
    /// Dietzfelbinger multiply–shift.
    MultiplyShift,
    /// Simple tabulation.
    Tabulation,
    /// Invertible affine GF(2) permutation (bijective placement).
    Affine,
    /// **Not universal**: plain low-order address bits, as a conventional
    /// controller would use. Provided for the adversary experiments that
    /// show why randomization is necessary.
    LowBits,
}

impl HashKind {
    /// Pipeline latency of a hardware realization over `addr_bits`-bit
    /// addresses, in interface cycles. The paper notes the universal hash
    /// "can be fully pipelined" (Section 3.4): it adds a constant to the
    /// normalized delay `D` but no throughput cost.
    pub fn latency_cycles(self, addr_bits: u32) -> u64 {
        // An XOR tree over `addr_bits` inputs is ceil(log2(addr_bits))
        // 2-input gate levels, pipelined at one level per cycle.
        let xor_depth = u64::from(32 - (addr_bits.max(2) - 1).leading_zeros());
        match self {
            HashKind::H3 | HashKind::Affine => xor_depth,
            // A pipelined 64-bit multiplier is typically 3 stages.
            HashKind::MultiplyShift => 3,
            // 8 parallel 256-entry SRAM lookups plus an XOR tree.
            HashKind::Tabulation => 2,
            HashKind::LowBits => 0,
        }
    }
}

impl fmt::Display for HashKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HashKind::H3 => "h3",
            HashKind::MultiplyShift => "multiply-shift",
            HashKind::Tabulation => "tabulation",
            HashKind::Affine => "affine-permutation",
            HashKind::LowBits => "low-bits",
        };
        f.write_str(s)
    }
}

/// A keyed instance of one of the [`HashKind`] families.
#[derive(Debug, Clone)]
pub enum HashEngine {
    /// See [`HashKind::H3`].
    H3(H3Hash),
    /// See [`HashKind::MultiplyShift`].
    MultiplyShift(MultiplyShiftHash),
    /// See [`HashKind::Tabulation`].
    Tabulation(TabulationHash),
    /// See [`HashKind::Affine`].
    Affine(AffinePermutation),
    /// See [`HashKind::LowBits`].
    LowBits(LowBitsHash),
}

impl HashEngine {
    /// Keys an engine of the requested family from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate dimensions (`bank_bits == 0`,
    /// `bank_bits >= addr_bits`).
    pub fn from_seed(kind: HashKind, addr_bits: u32, bank_bits: u32, seed: u64) -> Self {
        assert!(bank_bits >= 1 && bank_bits < addr_bits, "bank_bits must be in 1..addr_bits");
        match kind {
            HashKind::H3 => HashEngine::H3(H3Hash::from_seed(addr_bits, bank_bits, seed)),
            HashKind::MultiplyShift => {
                HashEngine::MultiplyShift(MultiplyShiftHash::from_seed(bank_bits, seed))
            }
            HashKind::Tabulation => {
                HashEngine::Tabulation(TabulationHash::from_seed(bank_bits, seed))
            }
            HashKind::Affine => {
                HashEngine::Affine(AffinePermutation::from_seed(addr_bits, bank_bits, seed))
            }
            HashKind::LowBits => HashEngine::LowBits(LowBitsHash::new(bank_bits)),
        }
    }

    /// Maps `addr` to a bank index in `0..2^bank_bits`.
    pub fn bank_of(&self, addr: u64) -> u32 {
        match self {
            HashEngine::H3(h) => h.bank_of(addr),
            HashEngine::MultiplyShift(h) => h.bank_of(addr),
            HashEngine::Tabulation(h) => h.bank_of(addr),
            HashEngine::Affine(h) => h.bank_of(addr),
            HashEngine::LowBits(h) => h.bank_of(addr),
        }
    }

    /// Hashes a batch of addresses: `out[i] = bank_of(addrs[i])`.
    ///
    /// The enum is matched **once** for the whole batch, so the per-family
    /// inner loop runs without per-address dispatch — this is the batched
    /// ingest path's front door ([`H3Hash`] additionally hoists its
    /// byte-fold tables across the batch). Bit-identical to calling
    /// [`HashEngine::bank_of`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` and `out` differ in length.
    pub fn hash_batch(&self, addrs: &[u64], out: &mut [u32]) {
        fn each(addrs: &[u64], out: &mut [u32], bank_of: impl Fn(u64) -> u32) {
            assert_eq!(addrs.len(), out.len(), "batch slices must match in length");
            for (o, &a) in out.iter_mut().zip(addrs) {
                *o = bank_of(a);
            }
        }
        match self {
            HashEngine::H3(h) => h.bank_of_batch(addrs, out),
            HashEngine::MultiplyShift(h) => each(addrs, out, |a| h.bank_of(a)),
            HashEngine::Tabulation(h) => each(addrs, out, |a| h.bank_of(a)),
            HashEngine::Affine(h) => each(addrs, out, |a| h.bank_of(a)),
            HashEngine::LowBits(h) => each(addrs, out, |a| h.bank_of(a)),
        }
    }

    /// The family of this engine.
    pub fn kind(&self) -> HashKind {
        match self {
            HashEngine::H3(_) => HashKind::H3,
            HashEngine::MultiplyShift(_) => HashKind::MultiplyShift,
            HashEngine::Tabulation(_) => HashKind::Tabulation,
            HashEngine::Affine(_) => HashKind::Affine,
            HashEngine::LowBits(_) => HashKind::LowBits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KINDS: [HashKind; 5] = [
        HashKind::H3,
        HashKind::MultiplyShift,
        HashKind::Tabulation,
        HashKind::Affine,
        HashKind::LowBits,
    ];

    #[test]
    fn all_kinds_construct_and_map_in_range() {
        for kind in KINDS {
            let e = HashEngine::from_seed(kind, 20, 4, 99);
            assert_eq!(e.kind(), kind);
            for a in (0..1000u64).step_by(17) {
                assert!(e.bank_of(a) < 16, "{kind} out of range");
            }
        }
    }

    #[test]
    fn latency_is_stated_per_family() {
        // XOR-tree families: ceil(log2(addr_bits)) levels.
        for kind in [HashKind::H3, HashKind::Affine] {
            assert_eq!(kind.latency_cycles(32), 5, "{kind}");
            assert_eq!(kind.latency_cycles(64), 6, "{kind}");
            assert_eq!(kind.latency_cycles(2), 1, "{kind}");
        }
        // The others do not depend on the address width.
        for addr_bits in [2, 32, 64] {
            assert_eq!(HashKind::MultiplyShift.latency_cycles(addr_bits), 3);
            assert_eq!(HashKind::Tabulation.latency_cycles(addr_bits), 2);
            assert_eq!(HashKind::LowBits.latency_cycles(addr_bits), 0);
        }
    }

    proptest! {
        /// The batch is bit-identical to per-element `bank_of` for every
        /// family, over random keys, widths and batch lengths (H3's
        /// AVX2-or-scalar choice is pinned three ways in `vpnm-hash`).
        #[test]
        fn hash_batch_bit_identical_to_scalar(
            kind_idx in 0usize..KINDS.len(),
            seed in any::<u64>(),
            addr_bits in 2u32..=64,
            addrs in proptest::collection::vec(any::<u64>(), 0..48),
        ) {
            let kind = KINDS[kind_idx];
            let bank_bits = (addr_bits / 4).clamp(1, 31);
            let e = HashEngine::from_seed(kind, addr_bits, bank_bits, seed);
            let mut out = vec![0u32; addrs.len()];
            e.hash_batch(&addrs, &mut out);
            for (&a, &b) in addrs.iter().zip(&out) {
                prop_assert_eq!(b, e.bank_of(a), "{} addr {:#x}", kind, a);
            }
        }
    }

    #[test]
    fn low_bits_is_deterministic_modulo() {
        let e = HashEngine::from_seed(HashKind::LowBits, 16, 3, 0);
        for a in 0..32u64 {
            assert_eq!(e.bank_of(a), (a % 8) as u32);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(HashKind::H3.to_string(), "h3");
        assert_eq!(HashKind::LowBits.to_string(), "low-bits");
    }
}
