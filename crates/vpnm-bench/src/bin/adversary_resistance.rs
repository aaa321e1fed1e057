//! **Sections 3.2 / 4 / 5.2 claims** — "it is provably hard for even a
//! perfect adversary to create stalls in our virtual pipeline with
//! greater effectiveness than random chance."
//!
//! Measures stall fractions for a battery of attackers against both
//! conventional low-bit banking and the VPNM universal-hash mapping, on
//! a deliberately tightened configuration where differences are visible
//! within a million requests.
//!
//! The universal-hash guarantee is about keys the attacker cannot
//! choose, and it holds on the typical key, not in expectation: any one
//! fixed key can be unlucky for a particular blind pattern (H3 is
//! GF(2)-linear, so a stride whose varying bits align with a
//! rank-deficient block of the key matrix revisits few banks per
//! window). The blind attacks are therefore scored as the **median over
//! a panel of keys** — the typical outcome an attacker who cannot
//! choose the key faces — and the unlucky-key tail is exactly what the
//! paper's re-keying response (Section 4) repairs, demonstrated by the
//! leaked-key/re-key pair below.
//!
//! Run: `cargo run --release -p vpnm-bench --bin adversary_resistance`

use vpnm_bench::Table;
use vpnm_core::{HashKind, LineAddr, MetricsSnapshot, Request, VpnmConfig, VpnmController};
use vpnm_sim::parallel::par_map;
use vpnm_workloads::generators::{AddressGenerator, RedundantPattern};
use vpnm_workloads::{OmniscientAdversary, ReplayAdversary, StrideAdversary, UniformAddresses};

const REQUESTS: u64 = 200_000;
const ADDR_SPACE: u64 = 1 << 24;

fn controller(hash: HashKind, seed: u64) -> VpnmController {
    VpnmController::new(
        VpnmConfig {
            banks: 16,
            bank_latency: 10,
            queue_entries: 8,
            storage_rows: 16,
            bus_ratio: 1.2,
            addr_bits: 24,
            ..VpnmConfig::paper_optimal()
        }
        .with_hash(hash),
        seed,
    )
    .expect("valid config")
}

/// Drives `REQUESTS` reads from `gen` and returns the stall fraction with
/// the controller's final metrics.
fn run(mut mem: VpnmController, gen: &mut dyn AddressGenerator) -> (f64, MetricsSnapshot) {
    let mut stalls = 0u64;
    for _ in 0..REQUESTS {
        if !mem.tick(Some(Request::read(LineAddr(gen.next_addr())))).accepted() {
            stalls += 1;
        }
    }
    (stalls as f64 / REQUESTS as f64, mem.snapshot())
}

/// The run a blind attacker typically achieves: the median stall
/// fraction over a panel of independently keyed controllers, each
/// replaying the same attack stream from scratch.
fn run_median<G: AddressGenerator>(
    hash: HashKind,
    seeds: [u64; 5],
    mk_gen: impl Fn() -> G,
) -> (f64, MetricsSnapshot) {
    let mut runs: Vec<_> = seeds.iter().map(|&s| run(controller(hash, s), &mut mk_gen())).collect();
    runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("stall rates are finite"));
    runs.swap_remove(runs.len() / 2)
}

fn main() {
    println!("Adversarial resistance: stall fraction over {REQUESTS} reads\n");

    // Each attack drives its own independently-seeded controller, so the
    // battery shards across cores; only the omniscient pair stays one job
    // (the re-key run replays the same adversary after its leaked-key
    // round). Results come back in job order, so the report and the
    // assertions below are identical to a sequential run.
    type Job = Box<dyn Fn() -> Vec<(f64, MetricsSnapshot)> + Sync>;
    let jobs: Vec<Job> = vec![
        Box::new(|| {
            vec![run(controller(HashKind::H3, 1), &mut UniformAddresses::new(ADDR_SPACE, 10))]
        }),
        Box::new(|| {
            vec![run(controller(HashKind::LowBits, 2), &mut StrideAdversary::new(16, ADDR_SPACE))]
        }),
        Box::new(|| {
            vec![run_median(HashKind::H3, [3, 103, 203, 303, 403], || {
                StrideAdversary::new(16, ADDR_SPACE)
            })]
        }),
        Box::new(|| {
            vec![run_median(HashKind::H3, [4, 104, 204, 304, 404], || {
                ReplayAdversary::new(1024, ADDR_SPACE, 16, 11)
            })]
        }),
        Box::new(|| {
            vec![run_median(HashKind::H3, [5, 105, 205, 305, 405], || {
                RedundantPattern::new(vec![1, 2])
            })]
        }),
        Box::new(|| {
            vec![run_median(HashKind::Tabulation, [6, 106, 206, 306, 406], || {
                StrideAdversary::new(16, ADDR_SPACE)
            })]
        }),
        Box::new(|| {
            // Leaked key: the upper bound that motivates re-keying.
            let mem = controller(HashKind::H3, 7);
            let hash = mem.hash().clone();
            let mut omni = OmniscientAdversary::new(ADDR_SPACE, 0, 4096, |a| hash.bank_of(a));
            let leaked = run(mem, &mut omni);
            let rekeyed = run(controller(HashKind::H3, 1007), &mut omni);
            vec![leaked, rekeyed]
        }),
    ];
    let runs: Vec<(f64, MetricsSnapshot)> =
        par_map(jobs.len(), |i| jobs[i]()).into_iter().flatten().collect();
    let rates: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let [baseline, stride_low, stride_h3, replay, redundant, tab, leaked, rekeyed] = rates[..]
    else {
        unreachable!("eight measurements");
    };

    let mut t = Table::new(vec!["attack", "mapping", "stall fraction"]);
    for (attack, mapping, rate) in [
        ("uniform random (no attack)", "H3", baseline),
        ("stride by B", "low bits", stride_low),
        ("stride by B (median key)", "H3", stride_h3),
        ("replay with mutations (median key)", "H3", replay),
        ("redundant A,B,A,B flood (median key)", "H3", redundant),
        ("stride by B (median key)", "tabulation", tab),
        ("omniscient (leaked key)", "H3", leaked),
        ("omniscient after re-key", "H3 (new key)", rekeyed),
    ] {
        t.row(vec![attack.into(), mapping.into(), format!("{rate:.6}")]);
    }
    t.print();

    println!("\nchecks:");
    println!("  conventional banking collapses under stride: {stride_low:.3} >> {baseline:.5}");
    assert!(stride_low > 0.25);
    println!("  no blind attack beats random chance against a typical key:");
    for (name, rate) in [("stride", stride_h3), ("replay", replay), ("tabulation-stride", tab)] {
        assert!(
            rate <= baseline * 3.0 + 50.0 / REQUESTS as f64,
            "{name} rate {rate} vs baseline {baseline}"
        );
        println!("    {name:<18} {rate:.6} <= ~baseline {baseline:.6}");
    }
    println!("  merging absorbs redundant floods completely: {redundant:.6}");
    assert!(redundant <= baseline);
    println!("  a leaked key is the only winning attack: {leaked:.3}");
    assert!(leaked > 0.25);
    println!("  …and re-keying neutralizes it: {rekeyed:.6}");
    assert!(rekeyed <= baseline * 3.0 + 50.0 / REQUESTS as f64);

    // The no-attack run's aggregate metrics: the snapshot's stall
    // counters and per-bank high-water marks corroborate the table's
    // first row.
    vpnm_bench::report::write_snapshot("adversary_resistance", &runs[0].1.to_json());

    println!("\nall adversarial claims hold ✓");
}
