//! Multi-tenant traffic: several independent flow populations sharing
//! one fabric, with an optional adversarial tenant in the mix.
//!
//! The QoS experiments (PR 10's isolation study) need exactly the
//! scenario the paper's Section 4 worries about, lifted to tenancy: `N`
//! well-behaved tenants each offering ordinary heavy-tailed flow
//! traffic, plus one adversary spending its whole share on a bank-stride
//! sweep ([`StrideAdversary`]). [`MultiTenantMix`] produces that blended
//! stream as `(tenant, flow)` pairs — deterministically scheduled from
//! the seed, so a regulated and an unregulated run see byte-identical
//! offered traffic.
//!
//! [`TenantFlowGen`] is the tenant-aware analogue of
//! [`AddressGenerator`]; [`Tagged`] lifts any legacy single-tenant
//! generator into it.

use crate::adversary::StrideAdversary;
use crate::generators::{AddressGenerator, HeavyTailFlows};

/// An infinite stream of `(tenant, flow)` pairs — [`AddressGenerator`]
/// with attribution.
pub trait TenantFlowGen {
    /// Produces the next tagged flow.
    fn next_tagged(&mut self) -> (u16, u64);
}

/// Lifts a single-tenant [`AddressGenerator`] into a [`TenantFlowGen`]
/// that tags every flow with one fixed tenant.
#[derive(Debug, Clone)]
pub struct Tagged<G> {
    tenant: u16,
    inner: G,
}

impl<G: AddressGenerator> Tagged<G> {
    /// Tags every address `inner` produces with `tenant`.
    pub fn new(tenant: u16, inner: G) -> Self {
        Tagged { tenant, inner }
    }
}

impl<G: AddressGenerator> TenantFlowGen for Tagged<G> {
    #[inline]
    fn next_tagged(&mut self) -> (u16, u64) {
        (self.tenant, self.inner.next_addr())
    }
}

/// `N` well-behaved heavy-tailed tenants plus (optionally) one
/// adversarial tenant running a bank-stride sweep, interleaved by a
/// deterministic weighted schedule.
///
/// Tenant IDs are dense: well-behaved tenants take `0..N`, and when
/// `adversary_pct > 0` the adversary is the *last* ID (`tenants - 1`),
/// claiming `adversary_pct` percent of the offered packets; the
/// remainder is spread evenly (pseudo-randomly, seed-deterministic)
/// across the well-behaved tenants.
#[derive(Debug, Clone)]
pub struct MultiTenantMix {
    wellbehaved: Vec<HeavyTailFlows>,
    adversary: Option<StrideAdversary>,
    adversary_pct: u32,
    state: u64,
    space: u64,
}

impl MultiTenantMix {
    /// Creates a mix of `tenants` tenants over a `space`-flow space.
    ///
    /// `banks` is the bank count the adversary's stride assumes (the
    /// fabric-global total, matching what a per-bank regulator defends);
    /// `adversary_pct` is the percentage of packets the adversarial
    /// tenant offers (0 disables it — all tenants well-behaved).
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`, `space < 2`, `space < banks`,
    /// `banks == 0`, `adversary_pct > 100`, or an adversary is requested
    /// with fewer than 2 tenants (it would have no victim to starve).
    pub fn new(tenants: u16, space: u64, banks: u64, adversary_pct: u32, seed: u64) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        assert!(adversary_pct <= 100, "adversary share is a percentage");
        assert!(
            adversary_pct == 0 || tenants >= 2,
            "an adversarial tenant needs a well-behaved victim"
        );
        let adversary = (adversary_pct > 0).then(|| StrideAdversary::new(banks, space));
        let n_well = if adversary.is_some() { tenants - 1 } else { tenants };
        let wellbehaved = (0..n_well)
            .map(|t| {
                HeavyTailFlows::new(
                    space,
                    1.0,
                    seed ^ u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                )
            })
            .collect();
        MultiTenantMix { wellbehaved, adversary, adversary_pct, state: seed.rotate_left(31), space }
    }

    /// The flow-space size every tenant draws from.
    pub fn space(&self) -> u64 {
        self.space
    }

    /// Total tenant count (including the adversary, when enabled).
    pub fn tenants(&self) -> u16 {
        (self.wellbehaved.len() + usize::from(self.adversary.is_some())) as u16
    }
}

impl TenantFlowGen for MultiTenantMix {
    fn next_tagged(&mut self) -> (u16, u64) {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = vpnm_hash::fast::mix64(self.state);
        let adv_id = self.tenants() - 1;
        if let Some(adv) = &mut self.adversary {
            if z % 100 < u64::from(self.adversary_pct) {
                return (adv_id, adv.next_addr());
            }
        }
        let t = ((z >> 32) % self.wellbehaved.len() as u64) as usize;
        (t as u16, self.wellbehaved[t].next_addr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_wraps_legacy_generators() {
        let mut gen = Tagged::new(3, crate::generators::StrideAddresses::new(0, 1, 8));
        assert_eq!(gen.next_tagged(), (3, 0));
        assert_eq!(gen.next_tagged(), (3, 1));
    }

    #[test]
    fn mix_is_seed_deterministic() {
        let mut a = MultiTenantMix::new(4, 1 << 16, 32, 25, 77);
        let mut b = MultiTenantMix::new(4, 1 << 16, 32, 25, 77);
        for _ in 0..1000 {
            assert_eq!(a.next_tagged(), b.next_tagged());
        }
    }

    #[test]
    fn adversary_takes_roughly_its_share() {
        let mut mix = MultiTenantMix::new(4, 1 << 16, 32, 25, 9);
        let mut counts = [0u64; 4];
        for _ in 0..10_000 {
            let (t, flow) = mix.next_tagged();
            assert!(flow < 1 << 16);
            counts[usize::from(t)] += 1;
        }
        let adv = counts[3];
        assert!((2200..=2800).contains(&adv), "adversary drew {adv} of 10000");
        for &c in &counts[..3] {
            assert!(c > 1500, "well-behaved share too small: {counts:?}");
        }
    }

    #[test]
    fn adversary_tenant_strides_by_the_bank_count() {
        let mut mix = MultiTenantMix::new(2, 1 << 12, 64, 100, 5);
        let (t0, f0) = mix.next_tagged();
        let (t1, f1) = mix.next_tagged();
        assert_eq!((t0, t1), (1, 1), "100% share means only the adversary fires");
        assert_eq!(f1 - f0, 64, "stride equals the assumed bank count");
    }

    #[test]
    fn zero_share_disables_the_adversary() {
        let mut mix = MultiTenantMix::new(3, 1 << 10, 8, 0, 1);
        assert_eq!(mix.tenants(), 3);
        for _ in 0..200 {
            assert!(mix.next_tagged().0 < 3);
        }
    }
}
