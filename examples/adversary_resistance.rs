//! Adversarial resistance (paper Sections 3.2, 4, 5).
//!
//! Three attackers against two bank mappings:
//!
//! 1. a **stride** attacker (classic bank-conflict exploit),
//! 2. a **replay** attacker probing with mutated repeats,
//! 3. an **omniscient** attacker that somehow knows the hash key.
//!
//! Against conventional low-bit banking the stride attack wrecks
//! throughput; against VPNM's keyed universal hash, stride and replay
//! perform no better than random traffic on the typical key, and only
//! the (unrealistic) leaked-key attacker gets through — which is why the
//! paper prescribes re-keying if repeated stalls are ever observed.
//!
//! The claim is about the typical key: one fixed key can be unlucky
//! against a blind stride (EXPERIMENTS.md measures how often). Stride
//! and replay therefore run against the same five-key panels as the
//! `adversary_resistance` bin: every key's stall count is printed, so an
//! unlucky key stays visible, and the median key is what is asserted.
//!
//! Run with: `cargo run --release --example adversary_resistance`

use vpnm::core::{HashKind, LineAddr, Request, VpnmConfig, VpnmController};
use vpnm::workloads::generators::AddressGenerator;
use vpnm::workloads::{OmniscientAdversary, ReplayAdversary, StrideAdversary, UniformAddresses};

const REQUESTS: u64 = 50_000;
const ADDR_SPACE: u64 = 1 << 24;

fn run<G: AddressGenerator>(mut mem: VpnmController, gen: &mut G) -> (u64, f64) {
    let mut stalls = 0u64;
    for _ in 0..REQUESTS {
        let out = mem.tick(Some(Request::read(LineAddr(gen.next_addr()))));
        stalls += u64::from(!out.accepted());
    }
    (stalls, stalls as f64 / REQUESTS as f64)
}

fn controller(hash: HashKind, seed: u64) -> VpnmController {
    // A deliberately tight configuration so differences show up within
    // 50k requests (the paper-scale config stalls ~once per 1e13).
    let config = VpnmConfig {
        banks: 16,
        bank_latency: 10,
        queue_entries: 8,
        storage_rows: 16,
        bus_ratio: 1.2,
        addr_bits: 24,
        ..VpnmConfig::paper_optimal()
    }
    .with_hash(hash);
    VpnmController::new(config, seed).expect("valid config")
}

/// Runs a fresh attack stream against each key of `seeds` and prints
/// every key's stalls; returns the median key's.
fn run_panel<G: AddressGenerator>(name: &str, seeds: [u64; 5], mk_gen: impl Fn() -> G) -> u64 {
    let mut stalls: Vec<u64> = seeds
        .iter()
        .map(|&seed| {
            let (s, r) = run(controller(HashKind::H3, seed), &mut mk_gen());
            println!("{:<34} {:>10} {:>10.5}", format!("{name}, key {seed}"), s, r);
            s
        })
        .collect();
    stalls.sort_unstable();
    let median = stalls[stalls.len() / 2];
    let rate = median as f64 / REQUESTS as f64;
    println!("{:<34} {:>10} {:>10.5}", format!("{name}, median"), median, rate);
    median
}

fn main() {
    println!("{REQUESTS} read requests per scenario; stall fraction reported\n");
    println!("{:<34} {:>10} {:>10}", "scenario", "stalls", "rate");

    // Baseline: uniform random traffic on the universal hash.
    let (s, r) = run(controller(HashKind::H3, 1), &mut UniformAddresses::new(ADDR_SPACE, 11));
    println!("{:<34} {:>10} {:>10.5}", "uniform traffic / H3", s, r);
    let baseline = s;

    // Stride attack vs. conventional banking: catastrophic.
    let (s, r) = run(controller(HashKind::LowBits, 2), &mut StrideAdversary::new(16, ADDR_SPACE));
    println!("{:<34} {:>10} {:>10.5}", "stride attack / low-bit banking", s, r);
    assert!(s > REQUESTS / 4, "stride must devastate low-bit banking");

    // Stride attack vs. VPNM: no better than random on the median key.
    let s = run_panel("stride attack / VPNM (H3)", [3, 103, 203, 303, 403], || {
        StrideAdversary::new(16, ADDR_SPACE)
    });
    assert!(
        s <= baseline * 3 + 30,
        "stride vs H3, median key ({s}), must look like random traffic ({baseline})"
    );

    // Replay attack vs. VPNM: still no better than random.
    let s = run_panel("replay attack / VPNM (H3)", [4, 104, 204, 304, 404], || {
        ReplayAdversary::new(512, ADDR_SPACE, 8, 12)
    });
    assert!(s <= baseline * 3 + 30, "replay vs H3, median key ({s}), must look random");

    // Leaked key: the omniscient attacker aims everything at bank 0 with
    // distinct addresses (merging can't help) — stalls galore.
    let mem = controller(HashKind::H3, 5);
    let hash = mem.hash().clone();
    let mut omni = OmniscientAdversary::new(ADDR_SPACE, 0, 4096, |a| hash.bank_of(a));
    let (s, r) = run(mem, &mut omni);
    println!("{:<34} {:>10} {:>10.5}", "LEAKED KEY / VPNM (H3)", s, r);
    assert!(s > REQUESTS / 4, "a leaked key must defeat the scheme ({s})");

    // …and re-keying (a fresh seed) restores random-chance behaviour.
    let (s, r) = run(controller(HashKind::H3, 999), &mut omni);
    println!("{:<34} {:>10} {:>10.5}", "same attack after re-key", s, r);
    assert!(s <= baseline * 3 + 30, "re-keying must neutralize the attack ({s})");

    println!("\nuniversal hashing + latency normalization hold: only a leaked key wins ✓");
}
