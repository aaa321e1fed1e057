//! Non-cryptographic SplitMix64 mixing for simulator-internal use.
//!
//! This is the workspace's one canonical copy of the SplitMix64 finalizer
//! and the hasher built on it. The hot data path performs several
//! `HashMap` operations per simulated cycle (the delay-storage CAM, the
//! sparse DRAM cell store), and seed derivation plus payload keystreams
//! use the same mixer, as does the serving layer's flow-table
//! fingerprint — one scalar finalizer, no batched or vector variant.
//! `vpnm-sim` re-exports [`splitmix64`] unchanged.
//!
//! Not for adversary-facing state: bank selection uses the keyed
//! universal families in this crate ([`crate::h3`] and friends), never
//! this.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// The golden-ratio increment is applied *inside*, so `splitmix64(s + i)`
/// walks the SplitMix64 stream for state `s`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The bare mixing rounds of [`splitmix64`] without the golden-ratio
/// increment — the finalizer applied to already-distinct inputs.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// SplitMix64-finalizer hasher for integer keys (byte slices fold through
/// an FNV-style loop first, so non-integer keys still hash correctly).
///
/// The standard library's default SipHash is DoS-resistant but costs tens
/// of nanoseconds per probe — overkill for maps keyed by
/// simulator-internal `u64` indices that no external party controls.
/// This runs two multiplies and three xor-shifts, full avalanche, ~1 ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fold, then the finalizer on top.
        let mut acc = self.state ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            acc = (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.state = mix64(acc);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = splitmix64(self.state.wrapping_add(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `HashMap` with [`FastHasher`] — drop-in for simulator-internal maps.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_u64_is_splitmix_stream() {
        // The hasher must walk the same stream as the standalone
        // finalizer — seed-derived RNG streams and map hashes across the
        // workspace depend on this staying bit-identical.
        for state in [0u64, 1, 42, u64::MAX / 2] {
            for i in [0u64, 1, 7, 0xDEAD_BEEF] {
                let mut h = FastHasher { state };
                h.write_u64(i);
                assert_eq!(h.finish(), splitmix64(state.wrapping_add(i)));
            }
        }
    }

    #[test]
    fn splitmix_is_increment_plus_mix() {
        for z in [0u64, 3, 999, u64::MAX] {
            assert_eq!(splitmix64(z), mix64(z.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i * 97, i as u32);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 97)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn avalanche_on_sequential_keys() {
        // Sequential keys must spread across the full 64-bit range —
        // identical low bits would degenerate the map to a linked list.
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| {
                let mut h = FastHasher::default();
                h.write_u64(i);
                h.finish()
            })
            .collect();
        let low_bits: FastHashSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
        assert!(low_bits.len() >= 60, "low bits collide: {}", low_bits.len());
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FastHasher::default();
        a.write(b"hello");
        let mut b = FastHasher::default();
        b.write(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = FastHasher::default();
        c.write(b"hellp");
        assert_ne!(a.finish(), c.finish());
    }
}
