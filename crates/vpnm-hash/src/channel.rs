//! Channel-select stage for multi-channel memory fabrics.
//!
//! A fabric striping requests over `C = 2^c` independent VPNM channels
//! needs a *bijective* split of every fabric address into a `(channel,
//! local address)` pair: bijective, because each channel owns a private
//! bank/row space and every fabric line must land in exactly one physical
//! cell. [`ChannelSelector`] provides that split in two flavours:
//!
//! * [`ChannelSelect::LowBits`] — channel = low `c` address bits, local
//!   address = the remaining high bits. Interleaves consecutive lines
//!   round-robin across channels (the conventional DRAM-controller
//!   choice).
//! * [`ChannelSelect::UniversalHash`] — an extra keyed stage: the fabric
//!   address is first passed through an invertible
//!   [`AffinePermutation`] over the full fabric address width, then
//!   low-bit split. Because the permutation is a bijection, so is the
//!   whole mapping — and the channel choice is unpredictable without the
//!   key, extending the paper's universal-hash argument (Section 3.2)
//!   from banks to channels.
//!
//! Both are combinational in the model: like the bank hash `HU`
//! block, a hardware realization is fully pipelined and adds a constant
//! to the normalized delay `D` but no throughput cost.

use crate::permute::AffinePermutation;
use std::fmt;

/// Which channel-select flavour a fabric uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelSelect {
    /// Low `c` address bits select the channel (line interleaving).
    LowBits,
    /// Keyed invertible affine permutation, then low-bit split.
    UniversalHash,
}

impl fmt::Display for ChannelSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ChannelSelect::LowBits => "low-bits",
            ChannelSelect::UniversalHash => "universal-hash",
        })
    }
}

/// A keyed, invertible `fabric address -> (channel, local address)` split.
///
/// ```
/// use vpnm_hash::{ChannelSelect, ChannelSelector};
///
/// let sel = ChannelSelector::new(ChannelSelect::UniversalHash, 16, 2, 0xFEED).unwrap();
/// let (ch, local) = sel.route(0x1234);
/// assert!(ch < 4 && local < (1 << 14));
/// assert_eq!(sel.unroute(ch, local), 0x1234);
/// ```
#[derive(Debug, Clone)]
pub struct ChannelSelector {
    addr_bits: u32,
    channel_bits: u32,
    /// Keyed stage for [`ChannelSelect::UniversalHash`]; `None` for
    /// [`ChannelSelect::LowBits`] and for the degenerate single-channel
    /// case.
    perm: Option<AffinePermutation>,
}

impl ChannelSelector {
    /// Builds a selector splitting `addr_bits`-bit fabric addresses over
    /// `2^channel_bits` channels. `seed` keys the
    /// [`ChannelSelect::UniversalHash`] stage and is ignored by
    /// [`ChannelSelect::LowBits`].
    ///
    /// `channel_bits == 0` (a single channel) is the identity mapping for
    /// every flavour, so a one-channel fabric routes bit-exactly like no
    /// fabric at all.
    ///
    /// # Errors
    ///
    /// Returns a message unless `channel_bits < addr_bits <= 64` and
    /// `channel_bits <= 8` (256 channels is already far beyond any line
    /// card the paper contemplates).
    pub fn new(
        kind: ChannelSelect,
        addr_bits: u32,
        channel_bits: u32,
        seed: u64,
    ) -> Result<Self, String> {
        if addr_bits == 0 || addr_bits > 64 {
            return Err(format!("addr_bits {addr_bits} must be in 1..=64"));
        }
        if channel_bits > 8 {
            return Err(format!("channel_bits {channel_bits} must be at most 8"));
        }
        if channel_bits >= addr_bits {
            return Err(format!(
                "channel_bits {channel_bits} must leave local address bits under addr_bits {addr_bits}"
            ));
        }
        let perm = (kind == ChannelSelect::UniversalHash && channel_bits > 0)
            .then(|| AffinePermutation::from_seed(addr_bits, channel_bits, seed));
        Ok(ChannelSelector { addr_bits, channel_bits, perm })
    }

    /// Fabric address width in bits.
    pub fn addr_bits(&self) -> u32 {
        self.addr_bits
    }

    /// Channel index width in bits.
    pub fn channel_bits(&self) -> u32 {
        self.channel_bits
    }

    /// Number of channels (`2^channel_bits`).
    pub fn channels(&self) -> u32 {
        1 << self.channel_bits
    }

    /// Local (per-channel) address width in bits.
    pub fn local_bits(&self) -> u32 {
        self.addr_bits - self.channel_bits
    }

    /// Splits a fabric address into `(channel, local address)`.
    ///
    /// The keyed permutation, if there is one, then the low-bit split.
    /// Total over `0..2^addr_bits` and a bijection onto
    /// `(0..channels) x (0..2^local_bits)`; callers must range-check the
    /// address first (debug builds assert).
    #[inline]
    pub fn route(&self, addr: u64) -> (u32, u64) {
        debug_assert!(
            self.addr_bits == 64 || addr < (1u64 << self.addr_bits),
            "address {addr:#x} outside the {}-bit fabric space",
            self.addr_bits
        );
        if self.channel_bits == 0 {
            return (0, addr);
        }
        let p = self.perm.as_ref().map_or(addr, |perm| perm.apply(addr));
        ((p & ((1u64 << self.channel_bits) - 1)) as u32, p >> self.channel_bits)
    }

    /// Batched [`ChannelSelector::route`]: `(channels[i], locals[i]) =
    /// route(addrs[i])`, bit-identical to the scalar path. The keyed
    /// stage runs through [`AffinePermutation::apply_batch`]'s
    /// table-major byte fold.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn route_batch(&self, addrs: &[u64], channels: &mut [u32], locals: &mut [u64]) {
        assert_eq!(addrs.len(), channels.len(), "batch slices must match in length");
        assert_eq!(addrs.len(), locals.len(), "batch slices must match in length");
        if self.channel_bits == 0 {
            channels.fill(0);
            locals.copy_from_slice(addrs);
            return;
        }
        match &self.perm {
            Some(perm) => perm.apply_batch(addrs, locals),
            None => locals.copy_from_slice(addrs),
        }
        let cmask = (1u64 << self.channel_bits) - 1;
        for (ch, local) in channels.iter_mut().zip(locals) {
            *ch = (*local & cmask) as u32;
            *local >>= self.channel_bits;
        }
    }

    /// Inverse of [`ChannelSelector::route`]: the fabric address served by
    /// `channel` at `local`.
    #[inline]
    pub fn unroute(&self, channel: u32, local: u64) -> u64 {
        debug_assert!(channel < self.channels(), "channel {channel} out of range");
        if self.channel_bits == 0 {
            return local;
        }
        let p = (local << self.channel_bits) | u64::from(channel);
        self.perm.as_ref().map_or(p, |perm| perm.invert(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const KINDS: [ChannelSelect; 2] = [ChannelSelect::LowBits, ChannelSelect::UniversalHash];

    #[test]
    fn route_unroute_is_a_bijection_on_small_space() {
        for kind in KINDS {
            let sel = ChannelSelector::new(kind, 12, 2, 7).unwrap();
            let mut seen = HashSet::new();
            for addr in 0..(1u64 << 12) {
                let (ch, local) = sel.route(addr);
                assert!(ch < 4, "{kind}");
                assert!(local < (1 << 10), "{kind}");
                assert!(seen.insert((ch, local)), "{kind}: duplicate ({ch}, {local})");
                assert_eq!(sel.unroute(ch, local), addr, "{kind}");
            }
            assert_eq!(seen.len(), 1 << 12);
        }
    }

    #[test]
    fn single_channel_is_identity_for_every_kind() {
        for kind in KINDS {
            let sel = ChannelSelector::new(kind, 16, 0, 99).unwrap();
            for addr in (0..(1u64 << 16)).step_by(97) {
                assert_eq!(sel.route(addr), (0, addr), "{kind}");
                assert_eq!(sel.unroute(0, addr), addr, "{kind}");
            }
            assert_eq!(sel.channels(), 1);
        }
    }

    #[test]
    fn low_bits_pick_documented_bits() {
        let low = ChannelSelector::new(ChannelSelect::LowBits, 8, 2, 0).unwrap();
        assert_eq!(low.route(0b1011_0110), (0b10, 0b10_1101));
    }

    #[test]
    fn universal_hash_is_keyed() {
        let a = ChannelSelector::new(ChannelSelect::UniversalHash, 20, 2, 1).unwrap();
        let b = ChannelSelector::new(ChannelSelect::UniversalHash, 20, 2, 2).unwrap();
        let same = ChannelSelector::new(ChannelSelect::UniversalHash, 20, 2, 1).unwrap();
        let diffs =
            (0..(1u64 << 20)).step_by(101).filter(|&addr| a.route(addr) != b.route(addr)).count();
        assert!(diffs > 0, "two keys must disagree somewhere");
        for addr in (0..(1u64 << 20)).step_by(101) {
            assert_eq!(a.route(addr), same.route(addr), "same key, same routing");
        }
    }

    #[test]
    fn universal_hash_spreads_a_channel_aligned_stride() {
        // A stride of C defeats the low-bits select (every address lands
        // on one channel) but not the keyed stage.
        let low = ChannelSelector::new(ChannelSelect::LowBits, 24, 2, 3).unwrap();
        let hash = ChannelSelector::new(ChannelSelect::UniversalHash, 24, 2, 3).unwrap();
        let low_channels: HashSet<u32> = (0..256u64).map(|i| low.route(i * 4).0).collect();
        let hash_channels: HashSet<u32> = (0..256u64).map(|i| hash.route(i * 4).0).collect();
        assert_eq!(low_channels.len(), 1);
        assert_eq!(hash_channels.len(), 4);
    }

    #[test]
    fn dimension_errors() {
        assert!(ChannelSelector::new(ChannelSelect::LowBits, 0, 0, 0).is_err());
        assert!(ChannelSelector::new(ChannelSelect::LowBits, 65, 0, 0).is_err());
        assert!(ChannelSelector::new(ChannelSelect::LowBits, 8, 8, 0).is_err());
        assert!(ChannelSelector::new(ChannelSelect::LowBits, 16, 9, 0).is_err());
        assert!(ChannelSelector::new(ChannelSelect::UniversalHash, 16, 4, 0).is_ok());
    }

    #[test]
    fn display_names() {
        assert_eq!(ChannelSelect::LowBits.to_string(), "low-bits");
        assert_eq!(ChannelSelect::UniversalHash.to_string(), "universal-hash");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn kind() -> impl Strategy<Value = ChannelSelect> {
        prop_oneof![Just(ChannelSelect::LowBits), Just(ChannelSelect::UniversalHash)]
    }

    proptest! {
        /// The batched route (riding the SIMD affine fold for the keyed
        /// flavour) is bit-identical to the scalar `route` for every
        /// flavour, key, geometry, and batch length spanning the vector
        /// boundary and the scalar tail.
        #[test]
        fn route_batch_bit_identical_to_scalar(
            kind in kind(),
            seed in any::<u64>(),
            addr_bits in 9u32..=64,
            channel_bits in 0u32..=8,
            raw in proptest::collection::vec(any::<u64>(), 0..48),
        ) {
            let sel = ChannelSelector::new(kind, addr_bits, channel_bits, seed).unwrap();
            let mask = if addr_bits == 64 { u64::MAX } else { (1u64 << addr_bits) - 1 };
            let addrs: Vec<u64> = raw.iter().map(|&a| a & mask).collect();
            let mut channels = vec![0u32; addrs.len()];
            let mut locals = vec![0u64; addrs.len()];
            sel.route_batch(&addrs, &mut channels, &mut locals);
            for (i, &a) in addrs.iter().enumerate() {
                prop_assert_eq!((channels[i], locals[i]), sel.route(a), "addr {:#x}", a);
            }
        }
    }
}
