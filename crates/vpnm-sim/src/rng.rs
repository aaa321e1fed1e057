//! Deterministic seed mixing.
//!
//! Randomized components (hash key material, workload generators,
//! adversaries, campaign shards) derive their seeds from one root `u64`
//! through the SplitMix64 finalizer, so an entire experiment is
//! reproducible from that root.

// Canonical implementation lives in vpnm-hash (one mixer for the whole
// workspace); re-exported here because all historical call sites import
// it from this module. Bit-identical to the previous in-crate copy.
pub use vpnm_hash::fast::splitmix64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_mixes_low_bits() {
        // consecutive inputs should produce well-spread outputs
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }
}
