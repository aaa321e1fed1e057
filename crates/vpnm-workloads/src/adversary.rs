//! Adversarial address streams (paper Sections 3.2, 4).
//!
//! The paper's threat model: an attacker crafts traffic to concentrate
//! accesses on one bank and overflow its queues. Against conventional
//! low-bit bank selection, a constant stride of `B` does this trivially
//! ([`StrideAdversary`]). Against VPNM the mapping is a keyed universal
//! hash, the attacker cannot see conflicts (latency is normalized), and
//! "it is provably hard for even a perfect adversary to create stalls …
//! with greater effectiveness than random chance". [`OmniscientAdversary`]
//! models the hypothetical upper bound where the key *has leaked* — the
//! one case that still defeats the scheme, which is why the paper
//! prescribes re-keying after repeated stalls. [`ReplayAdversary`] models
//! the realistic attacker who replays suspected-bad sequences with small
//! perturbations, hunting for stall timing feedback.

use crate::generators::AddressGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strides by the bank count — concentrates all accesses on one bank
/// under low-bit bank selection, and on a random spread under a universal
/// hash.
#[derive(Debug, Clone)]
pub struct StrideAdversary {
    next: u64,
    banks: u64,
    space: u64,
}

impl StrideAdversary {
    /// Creates an attacker assuming `banks` banks over `space` addresses.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `space < banks`.
    pub fn new(banks: u64, space: u64) -> Self {
        assert!(banks > 0 && space >= banks);
        StrideAdversary { next: 0, banks, space }
    }
}

impl AddressGenerator for StrideAdversary {
    fn next_addr(&mut self) -> u64 {
        let a = self.next;
        self.next = (self.next + self.banks) % self.space;
        a
    }
}

/// An attacker with full knowledge of the bank mapping: given an oracle
/// `addr → bank`, it precomputes a pool of **distinct** addresses that all
/// map to one target bank and cycles through them. Distinctness defeats
/// the merging queue; same-bank targeting defeats randomization. This is
/// the strongest possible adversary — useful to verify that (a) with a
/// leaked key VPNM does stall, and (b) the stall rate after re-keying
/// reverts to random chance.
#[derive(Debug, Clone)]
pub struct OmniscientAdversary {
    pool: Vec<u64>,
    pos: usize,
}

impl OmniscientAdversary {
    /// Scans `[0, space)` for up to `pool_size` addresses mapping to
    /// `target_bank` under `bank_of`.
    ///
    /// # Panics
    ///
    /// Panics if no addresses map to the target bank (an impossible bank
    /// index, or a degenerate mapping).
    pub fn new(
        space: u64,
        target_bank: u32,
        pool_size: usize,
        mut bank_of: impl FnMut(u64) -> u32,
    ) -> Self {
        let mut pool = Vec::with_capacity(pool_size);
        for addr in 0..space {
            if bank_of(addr) == target_bank {
                pool.push(addr);
                if pool.len() == pool_size {
                    break;
                }
            }
        }
        assert!(!pool.is_empty(), "no addresses map to bank {target_bank}");
        OmniscientAdversary { pool, pos: 0 }
    }

    /// The number of same-bank addresses found.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }
}

impl AddressGenerator for OmniscientAdversary {
    fn next_addr(&mut self) -> u64 {
        let a = self.pool[self.pos];
        self.pos = (self.pos + 1) % self.pool.len();
        a
    }
}

/// A replay attacker: emits a random base sequence, then repeatedly
/// replays it with a few mutated positions — the "remember the exact
/// sequence of accesses that caused the stall and replay … with minor
/// changes" strategy of paper Section 4.
#[derive(Debug, Clone)]
pub struct ReplayAdversary {
    sequence: Vec<u64>,
    pos: usize,
    mutations_per_round: usize,
    space: u64,
    rng: StdRng,
}

impl ReplayAdversary {
    /// Creates an attacker with a base sequence of `len` addresses over
    /// `[0, space)`, mutating `mutations_per_round` positions between
    /// replays.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `space == 0`.
    pub fn new(len: usize, space: u64, mutations_per_round: usize, seed: u64) -> Self {
        assert!(len > 0 && space > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let sequence = (0..len).map(|_| rng.gen_range(0..space)).collect();
        ReplayAdversary { sequence, pos: 0, mutations_per_round, space, rng }
    }

    /// The current replay sequence (for asserting stability in tests).
    pub fn sequence(&self) -> &[u64] {
        &self.sequence
    }
}

impl AddressGenerator for ReplayAdversary {
    fn next_addr(&mut self) -> u64 {
        let a = self.sequence[self.pos];
        self.pos += 1;
        if self.pos == self.sequence.len() {
            self.pos = 0;
            for _ in 0..self.mutations_per_round {
                let i = self.rng.gen_range(0..self.sequence.len());
                self.sequence[i] = self.rng.gen_range(0..self.space);
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpnm_hash::{H3Hash, LowBitsHash};

    #[test]
    fn stride_adversary_pins_low_bit_banking() {
        let mut adv = StrideAdversary::new(8, 1 << 16);
        let h = LowBitsHash::new(3);
        for _ in 0..100 {
            assert_eq!(h.bank_of(adv.next_addr()), 0);
        }
    }

    #[test]
    fn stride_adversary_spreads_under_h3() {
        let mut adv = StrideAdversary::new(8, 1 << 16);
        let h = H3Hash::from_seed(16, 3, 77);
        let mut banks = std::collections::HashSet::new();
        for _ in 0..64 {
            banks.insert(h.bank_of(adv.next_addr()));
        }
        assert!(banks.len() >= 4, "universal hash must defeat the stride");
    }

    #[test]
    fn omniscient_adversary_hits_target_bank_always() {
        let h = H3Hash::from_seed(16, 3, 5);
        let mut adv = OmniscientAdversary::new(1 << 16, 2, 64, |a| h.bank_of(a));
        assert_eq!(adv.pool_size(), 64);
        for _ in 0..200 {
            assert_eq!(h.bank_of(adv.next_addr()), 2);
        }
    }

    #[test]
    fn omniscient_pool_addresses_are_distinct() {
        let h = H3Hash::from_seed(16, 3, 6);
        let mut adv = OmniscientAdversary::new(1 << 16, 1, 32, |a| h.bank_of(a));
        let addrs: std::collections::HashSet<u64> = (0..32).map(|_| adv.next_addr()).collect();
        assert_eq!(addrs.len(), 32, "merging queue must not be able to absorb these");
    }

    #[test]
    fn replay_adversary_mutates_between_rounds() {
        let mut adv = ReplayAdversary::new(16, 1000, 2, 9);
        let first: Vec<u64> = (0..16).map(|_| adv.next_addr()).collect();
        let second: Vec<u64> = (0..16).map(|_| adv.next_addr()).collect();
        let diffs = first.iter().zip(&second).filter(|(a, b)| a != b).count();
        assert!((1..=2).contains(&diffs), "exactly the mutated positions differ: {diffs}");
    }

    #[test]
    #[should_panic(expected = "no addresses map")]
    fn omniscient_rejects_impossible_bank() {
        let _ = OmniscientAdversary::new(16, 9, 4, |_| 0);
    }
}
