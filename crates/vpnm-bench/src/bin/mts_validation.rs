//! **Analysis validation** — the paper's methodology section: "we have
//! built functional models … to verify our mathematical models"
//! (Section 5). Paper-scale MTS (~10¹³) is unobservable, but scaled-down
//! configurations stall within simulable horizons; this harness measures
//! the **median** time to first stall over many controller instances and
//! compares it with the Markov prediction.
//!
//! The model describes a single bank; the controller stalls when *any* of
//! its `B` bank chains overflows, so the predicted system median is the
//! time at which the per-bank absorption probability reaches
//! `1 − 0.5^(1/B)`.
//!
//! Run: `cargo run --release -p vpnm-bench --bin mts_validation`
//! (engine flags: `--engine fast|reference --channels N --select …`; the
//! Markov model describes a single channel, so the agreement assertions
//! target the default single-channel topology)

use vpnm_analysis::markov::BankQueueModel;
use vpnm_apps::EngineOpts;
use vpnm_bench::Table;
use vpnm_core::{HashKind, LineAddr, PipelinedMemory, Request, SchedulerKind, VpnmConfig};
use vpnm_workloads::generators::AddressGenerator;
use vpnm_workloads::UniformAddresses;

fn simulated_median(
    opts: EngineOpts,
    config: &VpnmConfig,
    trials: u64,
    horizon: u64,
) -> (f64, u64) {
    // Trials are independent controller instances whose seeds derive only
    // from the trial index, so they shard freely across cores — the
    // median is identical to the sequential run.
    let mut firsts = vpnm_bench::parallel::run_trials(trials as usize, |t| {
        let trial = t as u64;
        let mut mem = opts.build(config.clone(), 40_000 + trial).expect("valid config");
        let mut gen = UniformAddresses::new(1u64 << config.addr_bits, 17 * trial + 3);
        let mut first = horizon;
        for t in 0..horizon {
            if !mem.tick(Some(Request::read(LineAddr(gen.next_addr())))).accepted() {
                first = t + 1;
                break;
            }
        }
        first
    });
    let censored = firsts.iter().filter(|&&f| f == horizon).count() as u64;
    firsts.sort_unstable();
    (firsts[firsts.len() / 2] as f64, censored)
}

fn main() {
    let opts = EngineOpts::from_env();
    println!(
        "MTS validation: simulated median time to first stall vs. Markov prediction \
         (engine {})",
        opts.describe()
    );
    println!("(L = B so the model's service step equals the bus-grant period; R = 1.5;");
    println!(" predictions race-corrected across the B independent bank chains)\n");

    let mut t = Table::new(vec!["B", "Q", "predicted", "simulated", "ratio", "censored"]);
    let mut ratios = Vec::new();
    let mut representative: Option<VpnmConfig> = None;
    for (b, q, trials, horizon) in [
        (4u32, 2usize, 400u64, 100_000u64),
        (4, 3, 400, 100_000),
        (4, 4, 300, 200_000),
        (8, 2, 300, 200_000),
        (8, 3, 300, 200_000),
    ] {
        let config = VpnmConfig {
            banks: b,
            bank_latency: u64::from(b),
            queue_entries: q,
            storage_rows: 64,
            bus_ratio: 1.5,
            delay_override: None,
            addr_bits: 16,
            cell_bytes: 8,
            hash: HashKind::H3,
            forensics_capacity: 0,
            scheduler: SchedulerKind::RoundRobin,
            merging: true,
        };
        if representative.is_none() {
            representative = Some(config.clone());
        }
        let model = BankQueueModel::new(b, u64::from(b), q as u64, 1.5);
        let target = 1.0 - 0.5f64.powf(1.0 / f64::from(b));
        let predicted_mem = model
            .time_to_absorption_probability(target, 10_000_000)
            .expect("reachable within horizon");
        let predicted = predicted_mem as f64 / 1.5; // interface cycles
        let (simulated, censored) = simulated_median(opts, &config, trials, horizon);
        let ratio = simulated / predicted;
        ratios.push((b, q, ratio));
        t.row(vec![
            b.to_string(),
            q.to_string(),
            format!("{predicted:.0}"),
            format!("{simulated:.0}"),
            format!("{ratio:.2}"),
            censored.to_string(),
        ]);
    }
    t.print();

    println!("\n(ratios near 1 mean the executable controller matches the analysis; the");
    println!(" model is mildly conservative — no service on arrival cycles — so simulated");
    println!(" medians may run somewhat long.)");
    for (b, q, r) in &ratios {
        assert!((0.3..4.0).contains(r), "B={b} Q={q}: ratio {r} out of tolerance");
    }
    println!("all configurations agree within a small factor ✓");

    // Emit a machine-readable record of one representative trial: the
    // first (tightest) configuration, trial 0, run to its first stall.
    // The snapshot's `first_stall_at` is exactly the trial's MTS sample.
    let config = representative.expect("at least one configuration ran");
    let mut mem = opts.build(config.clone(), 40_000).expect("valid config");
    let mut gen = UniformAddresses::new(1u64 << config.addr_bits, 3);
    for _ in 0..100_000u64 {
        if !mem.tick(Some(Request::read(LineAddr(gen.next_addr())))).accepted() {
            break;
        }
    }
    let snapshot = mem.snapshot().expect("engines keep metrics");
    vpnm_bench::report::write_snapshot("mts_validation", &snapshot.to_json());
}
