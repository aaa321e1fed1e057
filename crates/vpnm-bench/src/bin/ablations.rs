//! **Ablations** — quantifying each design choice DESIGN.md calls out:
//!
//! 1. **Redundant-request merging** (paper Section 3.4): without the
//!    merging queue, an "A,A,A,…" or "A,B,A,B,…" flood collapses the
//!    controller; with it, the flood is absorbed for free.
//! 2. **Universal hashing** (Section 3.2): low-bit bank selection vs. the
//!    keyed families under stride traffic.
//! 3. **Bus scaling ratio R** (Section 4): how stall rates fall as memory
//!    headroom grows at fixed Q/K.
//! 4. **Bus scheduler**: the paper's round-robin vs. the work-conserving
//!    slot-reclaim variant it alludes to.
//!
//! Run: `cargo run --release -p vpnm-bench --bin ablations`

use vpnm_bench::Table;
use vpnm_core::{
    HashKind, LineAddr, MetricsSnapshot, Request, SchedulerKind, VpnmConfig, VpnmController,
};
use vpnm_sim::parallel::par_map;
use vpnm_workloads::generators::{AddressGenerator, RedundantPattern, StrideAddresses};
use vpnm_workloads::UniformAddresses;

const REQUESTS: u64 = 100_000;

/// Drives `REQUESTS` reads from `gen` through a fresh controller and
/// returns the stall fraction with the controller's final metrics.
fn stall_fraction(
    config: VpnmConfig,
    seed: u64,
    gen: &mut dyn AddressGenerator,
) -> (f64, MetricsSnapshot) {
    let mut mem = VpnmController::new(config, seed).expect("valid config");
    let mut stalls = 0u64;
    for _ in 0..REQUESTS {
        if !mem.tick(Some(Request::read(LineAddr(gen.next_addr())))).accepted() {
            stalls += 1;
        }
    }
    (stalls as f64 / REQUESTS as f64, mem.snapshot())
}

fn tight() -> VpnmConfig {
    VpnmConfig {
        banks: 16,
        bank_latency: 10,
        queue_entries: 8,
        storage_rows: 16,
        bus_ratio: 1.2,
        addr_bits: 24,
        ..VpnmConfig::paper_optimal()
    }
}

const HASH_KINDS: [HashKind; 5] = [
    HashKind::LowBits,
    HashKind::H3,
    HashKind::MultiplyShift,
    HashKind::Tabulation,
    HashKind::Affine,
];
const RATIOS: [f64; 6] = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5];

fn main() {
    println!(
        "Ablations on a tightened configuration (B=16, L=10, Q=8, K=16), {REQUESTS} reads \
         each\n"
    );

    // Every measurement is an independent (config, seed, generator)
    // triple, so the whole battery shards across cores; results return in
    // job order, keeping the report byte-identical to a sequential run.
    type Job = Box<dyn Fn() -> (f64, MetricsSnapshot) + Sync>;
    let mut jobs: Vec<Job> = vec![
        Box::new(|| stall_fraction(tight(), 1, &mut RedundantPattern::new(vec![10, 20]))),
        Box::new(|| {
            stall_fraction(
                VpnmConfig { merging: false, ..tight() },
                1,
                &mut RedundantPattern::new(vec![10, 20]),
            )
        }),
    ];
    for kind in HASH_KINDS {
        jobs.push(Box::new(move || {
            stall_fraction(tight().with_hash(kind), 2, &mut StrideAddresses::new(0, 16, 1 << 24))
        }));
    }
    for r in RATIOS {
        jobs.push(Box::new(move || {
            stall_fraction(tight().with_bus_ratio(r), 3, &mut UniformAddresses::new(1 << 24, 30))
        }));
    }
    jobs.push(Box::new(|| stall_fraction(tight(), 4, &mut UniformAddresses::new(1 << 24, 40))));
    jobs.push(Box::new(|| {
        stall_fraction(
            VpnmConfig { scheduler: SchedulerKind::WorkConserving, ..tight() },
            4,
            &mut UniformAddresses::new(1 << 24, 40),
        )
    }));
    let results = par_map(jobs.len(), |i| jobs[i]());
    let mut results = results.into_iter();
    let mut next = || results.next().expect("one result per job");

    // 1. merging
    println!("1. redundant-request merging (A,B,A,B flood):");
    let mut t = Table::new(vec!["variant", "stall fraction"]);
    let on = next().0;
    let off = next().0;
    t.row(vec!["merging on (paper)".into(), format!("{on:.5}")]);
    t.row(vec!["merging off".into(), format!("{off:.5}")]);
    t.print();
    assert!(on < 1e-4 && off > 0.5, "merging must be the difference between 0 and collapse");

    // 2. hashing under stride
    println!("\n2. bank mapping under a stride-by-B attack:");
    let mut t = Table::new(vec!["mapping", "stall fraction"]);
    for kind in HASH_KINDS {
        t.row(vec![kind.to_string(), format!("{:.5}", next().0)]);
    }
    t.print();

    // 3. bus ratio sweep
    println!("\n3. bus scaling ratio R under uniform load (fixed Q=8, K=16):");
    let mut t = Table::new(vec!["R", "stall fraction"]);
    let mut prev = f64::INFINITY;
    for r in RATIOS {
        let f = next().0;
        t.row(vec![format!("{r}"), format!("{f:.5}")]);
        assert!(f <= prev + 0.01, "stalls must (weakly) fall with R");
        prev = f;
    }
    t.print();

    // 4. scheduler
    println!("\n4. bus scheduler under uniform load:");
    let mut t = Table::new(vec!["scheduler", "stall fraction"]);
    let (rr, baseline) = next();
    let wc = next().0;
    t.row(vec!["round-robin (paper)".into(), format!("{rr:.5}")]);
    t.row(vec!["work-conserving".into(), format!("{wc:.5}")]);
    t.print();
    assert!(wc <= rr + 1e-9, "reclaimed slots must not hurt");

    // The scheduler baseline (tight config, seed 4, uniform load) is the
    // battery's reference operating point; its aggregate metrics are the
    // machine-readable record.
    vpnm_bench::report::write_snapshot("ablations", &baseline.to_json());

    println!("\nall ablation checks passed ✓");
}
