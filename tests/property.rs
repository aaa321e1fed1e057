//! Property-based integration tests: for *arbitrary* request streams, the
//! VPNM controller is observationally equivalent to the ideal pipelined
//! memory (whenever it accepts), upholds the constant-latency invariant,
//! and conserves requests.

//! The fabric layer gets the same treatment: the channel-select stage
//! composed with the per-channel address carve must be a bijection over
//! the whole address space (no aliasing, no lost cells), and uniform
//! traffic must spread over the channels within binomial bounds.

use proptest::prelude::*;
use std::collections::HashMap;
use vpnm::core::fabric::{ChannelSelect, FabricConfig};
use vpnm::core::{
    IdealMemory, LineAddr, PipelinedMemory, Request, TenantId, VpnmConfig, VpnmController,
    VpnmFabric,
};
use vpnm::hash::channel::ChannelSelector;

#[derive(Debug, Clone)]
enum Op {
    Read(u16),
    /// A consuming read: frees the cell once its bank read is granted.
    Take(u16),
    Write(u16, u8),
    Idle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => any::<u16>().prop_map(Op::Read),
        1 => any::<u16>().prop_map(Op::Take),
        2 => (any::<u16>(), any::<u8>()).prop_map(|(a, v)| Op::Write(a, v)),
        1 => Just(Op::Idle),
    ]
}

fn to_request(op: &Op) -> Option<Request> {
    match op {
        Op::Read(a) => Some(Request::read(LineAddr(u64::from(*a)))),
        Op::Take(a) => Some(Request::take_as(TenantId::HOST, LineAddr(u64::from(*a)))),
        Op::Write(a, v) => Some(Request::write(LineAddr(u64::from(*a)), vec![*v])),
        Op::Idle => None,
    }
}

/// `ops` as requests both memories answer alike. The controller frees a
/// consumed cell at its bank grant and the ideal memory at accept, so
/// they part only where a consuming read shares a delay-storage row with
/// another read of its address: a read merges into the live row of an
/// earlier one accepted at most `D` cycles before, unless a write came
/// between. Those slots become idle; every other read of a consumed
/// cell is kept and must see the zero cell on both sides.
fn ideal_comparable(ops: &[Op], d: u64) -> Vec<Option<Request>> {
    // Latest read of each address since its last write: (tick, consuming).
    let mut latest: HashMap<u16, (u64, bool)> = HashMap::new();
    ops.iter()
        .zip(0u64..)
        .map(|(op, tick)| match op {
            Op::Read(a) | Op::Take(a) => {
                let take = matches!(op, Op::Take(_));
                match latest.get(a) {
                    Some(&(at, was_take)) if tick - at <= d + 1 && (take || was_take) => None,
                    _ => {
                        latest.insert(*a, (tick, take));
                        to_request(op)
                    }
                }
            }
            Op::Write(a, _) => {
                latest.remove(a);
                to_request(op)
            }
            Op::Idle => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Observational equivalence with the perfect pipeline on accepted
    /// streams, for arbitrary interleavings of reads, consuming reads,
    /// writes, and idles (minus the reads [`ideal_comparable`] idles),
    /// over the whole address space and over a hot set of 16 cells.
    #[test]
    fn vpnm_matches_ideal_on_arbitrary_streams(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        hot in any::<bool>(),
    ) {
        let ops: Vec<Op> = if hot {
            ops.into_iter()
                .map(|op| match op {
                    Op::Read(a) => Op::Read(a & 0xF),
                    Op::Take(a) => Op::Take(a & 0xF),
                    Op::Write(a, v) => Op::Write(a & 0xF, v),
                    Op::Idle => Op::Idle,
                })
                .collect()
        } else {
            ops
        };
        let mut vpnm = VpnmController::new(VpnmConfig::test_roomy(), 42).unwrap();
        let mut ideal = IdealMemory::new(vpnm.delay(), 8);
        let mut v_rs = Vec::new();
        let mut i_rs = Vec::new();
        for req in ideal_comparable(&ops, vpnm.delay()) {
            let out = vpnm.tick(req.clone());
            // test_roomy at this scale should never stall; if it ever
            // does, skip the comparison for that request on both sides.
            prop_assume!(out.accepted());
            v_rs.extend(out.response);
            i_rs.extend(ideal.tick(req).response);
        }
        while vpnm.outstanding() > 0 || ideal.outstanding() > 0 {
            v_rs.extend(vpnm.tick(None).response);
            i_rs.extend(ideal.tick(None).response);
        }
        prop_assert_eq!(v_rs.len(), i_rs.len());
        for (v, i) in v_rs.iter().zip(&i_rs) {
            prop_assert_eq!(v.addr, i.addr);
            prop_assert_eq!(v.completed_at, i.completed_at);
            prop_assert_eq!(&v.data[..1], &i.data[..1]);
        }
    }

    /// Conservation: reads accepted == responses delivered, each at
    /// exactly D.
    #[test]
    fn reads_conserved_with_constant_latency(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut mem = VpnmController::new(VpnmConfig::small_test(), 7).unwrap();
        let d = mem.delay();
        let mut accepted_reads = 0u64;
        let mut responses = 0u64;
        for op in &ops {
            let is_read = matches!(op, Op::Read(_) | Op::Take(_));
            let out = mem.tick(to_request(op));
            if out.accepted() && is_read {
                accepted_reads += 1;
            }
            if let Some(r) = out.response {
                prop_assert_eq!(r.latency(), d);
                responses += 1;
            }
        }
        responses += mem.drain().len() as u64;
        prop_assert_eq!(accepted_reads, responses);
        prop_assert_eq!(mem.metrics().deadline_misses, 0);
    }

    /// The channel-select stage is a bijection: `route` maps the full
    /// `2^addr_bits` space onto distinct `(channel, local)` pairs with
    /// `local` inside the carved per-channel space, and `unroute` inverts
    /// it exactly — for every select policy, geometry and key.
    #[test]
    fn channel_routing_is_a_bijection(
        seed in any::<u64>(),
        addr_bits in 4u32..=12,
        channel_bits in 0u32..=3,
    ) {
        prop_assume!(channel_bits < addr_bits);
        for kind in [ChannelSelect::LowBits, ChannelSelect::UniversalHash] {
            let sel = ChannelSelector::new(kind, addr_bits, channel_bits, seed).unwrap();
            let local_space = 1u64 << sel.local_bits();
            let mut seen = vec![false; 1 << addr_bits];
            for addr in 0..(1u64 << addr_bits) {
                let (channel, local) = sel.route(addr);
                prop_assert!(channel < sel.channels());
                prop_assert!(local < local_space, "{kind:?}: local {local} escapes the carve");
                let slot = ((u64::from(channel) << sel.local_bits()) | local) as usize;
                prop_assert!(!seen[slot], "{kind:?}: two addresses alias to {channel}/{local}");
                seen[slot] = true;
                prop_assert_eq!(sel.unroute(channel, local), addr, "{kind:?}: unroute is not the inverse");
            }
        }
    }

    /// End-to-end losslessness of the composed pipeline (channel select,
    /// then the per-channel keyed bank hash, then DRAM storage): writing a
    /// distinct value to *every* address of the fabric's space and reading
    /// them all back returns exactly what was written — no two addresses
    /// can collapse onto the same cell of the same channel.
    #[test]
    fn fabric_split_plus_bank_hash_loses_no_address(seed in any::<u64>()) {
        let config = FabricConfig {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            base: VpnmConfig { addr_bits: 8, ..VpnmConfig::test_roomy() },
            qos: None,
        };
        let mut fab = VpnmFabric::new(config, seed).unwrap();
        let space = 1u64 << 8;
        for a in 0..space {
            let mut out = fab.tick(Some(Request::write(LineAddr(a), vec![a as u8, (a >> 4) as u8])));
            let mut budget = 4 * fab.delay();
            while !out.accepted() && budget > 0 {
                out = fab.tick(Some(Request::write(LineAddr(a), vec![a as u8, (a >> 4) as u8])));
                budget -= 1;
            }
            prop_assert!(out.accepted(), "write to {a} never accepted");
        }
        PipelinedMemory::drain(&mut fab);
        let mut read_back = 0u64;
        let mut check = |r: vpnm::core::Response| {
            assert_eq!(r.data[0], r.addr.0 as u8, "address {} corrupted", r.addr);
            assert_eq!(r.data[1], (r.addr.0 >> 4) as u8, "address {} corrupted", r.addr);
            read_back += 1;
        };
        for a in 0..space {
            let mut out = fab.tick(Some(Request::read(LineAddr(a))));
            let mut budget = 4 * fab.delay();
            while !out.accepted() && budget > 0 {
                out.response.map(&mut check);
                out = fab.tick(Some(Request::read(LineAddr(a))));
                budget -= 1;
            }
            prop_assert!(out.accepted(), "read of {a} never accepted");
            out.response.map(&mut check);
        }
        for r in PipelinedMemory::drain(&mut fab) {
            check(r);
        }
        prop_assert_eq!(read_back, space, "every address must read back exactly once");
    }

    /// Uniform traffic spreads over the channels within binomial bounds:
    /// with N requests over C channels each count is within six standard
    /// deviations of N/C (a bound a correct split fails with probability
    /// ~1e-9, so a failure means the selector is biased).
    #[test]
    fn uniform_traffic_balances_across_channels(seed in any::<u64>()) {
        use vpnm::workloads::generators::AddressGenerator;
        const N: u64 = 4000;
        let config = FabricConfig {
            channels: 4,
            select: ChannelSelect::UniversalHash,
            base: VpnmConfig::test_roomy(),
            qos: None,
        };
        let mut fab = VpnmFabric::new(config, seed).unwrap();
        let mut gen = vpnm::workloads::UniformAddresses::new(1 << 16, seed ^ 0xABCD);
        let mut accepted = 0u64;
        for _ in 0..N {
            accepted += u64::from(
                fab.tick(Some(Request::read(LineAddr(gen.next_addr())))).accepted(),
            );
        }
        let p = 0.25f64;
        let sigma = (accepted as f64 * p * (1.0 - p)).sqrt();
        let expect = accepted as f64 * p;
        let mut total = 0u64;
        for c in 0..4u32 {
            let got = fab.channel(c).metrics().reads_accepted;
            total += got;
            prop_assert!(
                (got as f64 - expect).abs() <= 6.0 * sigma,
                "channel {c} took {got} of {accepted} (expected {expect:.0} ± {:.0})",
                6.0 * sigma
            );
        }
        prop_assert_eq!(total, accepted, "per-channel counts must sum to the total");
    }

    /// Read-your-writes: after quiescence, reading any written address
    /// returns the last written value.
    #[test]
    fn read_your_writes_after_quiescence(
        writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..60),
    ) {
        let mut mem = VpnmController::new(VpnmConfig::test_roomy(), 3).unwrap();
        let mut last = std::collections::HashMap::new();
        for (a, v) in &writes {
            let out = mem.tick(Some(Request::write(LineAddr(u64::from(*a)), vec![*v])));
            prop_assume!(out.accepted());
            last.insert(u64::from(*a), *v);
        }
        let mut expected = Vec::new();
        for (&a, &v) in &last {
            let out = mem.tick(Some(Request::read(LineAddr(a))));
            prop_assume!(out.accepted());
            expected.push((a, v));
            if let Some(r) = out.response {
                let want = last[&r.addr.0];
                prop_assert_eq!(r.data[0], want);
            }
        }
        for r in mem.drain() {
            let want = last[&r.addr.0];
            prop_assert_eq!(r.data[0], want);
        }
    }
}
