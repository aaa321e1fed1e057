//! Simulation-vs-mathematics cross-validation of the Mean Time to Stall
//! analyses (the paper's "Simulation (for functionality), Mathematical
//! (for MTS)" methodology, Section 5).
//!
//! The paper-scale MTS (~10¹³) cannot be observed directly, but for small
//! `(B, Q, K)` the predicted MTS drops to 10²–10⁵ cycles, where direct
//! simulation measures it. These tests check the Markov model against the
//! executable controller within a small factor.

use vpnm::analysis::{combined_mts, dsb_mts, BankQueueModel};
use vpnm::core::{HashKind, LineAddr, Request, SchedulerKind, VpnmConfig, VpnmController};
use vpnm::workloads::generators::AddressGenerator;
use vpnm::workloads::UniformAddresses;

/// Measures the mean time to first stall over `trials` independent
/// controller instances under uniform random read traffic.
fn simulate_mean_first_stall(config: &VpnmConfig, trials: u64, max_cycles: u64) -> f64 {
    let mut total = 0.0;
    for trial in 0..trials {
        let mut mem = VpnmController::new(config.clone(), 7000 + trial).expect("valid config");
        let mut gen = UniformAddresses::new(1u64 << config.addr_bits, 31 * trial + 1);
        let mut first = max_cycles;
        for t in 0..max_cycles {
            let out = mem.tick(Some(Request::read(LineAddr(gen.next_addr()))));
            if !out.accepted() {
                first = t + 1;
                break;
            }
        }
        total += first as f64;
    }
    total / trials as f64
}

#[test]
fn markov_model_predicts_simulated_queue_stalls() {
    // A configuration dominated by bank-access-queue stalls: tiny Q,
    // plentiful K. `L = B` makes the Markov model's service time (L
    // cycles per entry) coincide exactly with the controller's
    // round-robin grant period (one grant per B memory cycles), so the
    // two are directly comparable.
    let config = VpnmConfig {
        banks: 4,
        bank_latency: 4,
        queue_entries: 3,
        storage_rows: 64,
        bus_ratio: 1.5,
        delay_override: None,
        addr_bits: 16,
        cell_bytes: 8,
        hash: HashKind::H3,
        scheduler: SchedulerKind::RoundRobin,
        merging: true,
    };
    let predicted = BankQueueModel::new(4, 4, 3, 1.5).mean_absorption_cycles() / 1.5;
    let simulated = simulate_mean_first_stall(&config, 300, 100_000);
    let ratio = simulated / predicted;
    assert!(
        (0.2..5.0).contains(&ratio),
        "simulated {simulated:.0} vs predicted {predicted:.0} (ratio {ratio:.2})"
    );
}

#[test]
fn markov_model_tracks_q_scaling() {
    // Growing Q must stretch both the predicted and the simulated MTS,
    // and by comparable factors.
    let base = VpnmConfig {
        banks: 4,
        bank_latency: 4, // = B, aligning model service time with grants
        queue_entries: 2,
        storage_rows: 64,
        bus_ratio: 1.5,
        delay_override: None,
        addr_bits: 16,
        cell_bytes: 8,
        hash: HashKind::H3,
        scheduler: SchedulerKind::RoundRobin,
        merging: true,
    };
    let mut sims = Vec::new();
    let mut preds = Vec::new();
    for q in [2usize, 4, 8] {
        let config = VpnmConfig { queue_entries: q, ..base.clone() };
        preds.push(BankQueueModel::new(4, 4, q as u64, 1.5).mean_absorption_cycles());
        sims.push(simulate_mean_first_stall(&config, 200, 200_000));
    }
    for w in preds.windows(2) {
        assert!(w[1] > w[0], "prediction must grow with Q: {preds:?}");
    }
    for w in sims.windows(2) {
        assert!(w[1] > w[0], "simulation must grow with Q: {sims:?}");
    }
    assert!(
        sims[2] > 4.0 * sims[0],
        "doubling Q twice must stretch survival substantially: {sims:?} (predicted {preds:?})"
    );
}

#[test]
fn dsb_formula_orders_match_queue_formula_regimes() {
    // In a combined configuration, the total MTS must not exceed either
    // component, and must be dominated by the smaller one.
    let d = 60;
    let dsb = dsb_mts(4, 6, d);
    let queue = BankQueueModel::new(4, 3, 4, 1.0).mts_cycles();
    let total = combined_mts(&[dsb, queue]);
    assert!(total <= dsb && total <= queue);
    assert!(total >= 0.5 * dsb.min(queue) * 0.5);
}

#[test]
fn storage_dominated_config_stalls_on_storage() {
    // K barely above Q forces delay-storage stalls to appear; the
    // controller must report them as such.
    let config = VpnmConfig {
        banks: 4,
        bank_latency: 3,
        queue_entries: 6,
        storage_rows: 6,
        bus_ratio: 1.0,
        delay_override: None,
        addr_bits: 16,
        cell_bytes: 8,
        hash: HashKind::H3,
        scheduler: SchedulerKind::RoundRobin,
        merging: true,
    };
    let mut mem = VpnmController::new(config, 3).unwrap();
    let mut gen = UniformAddresses::new(1 << 16, 4);
    for _ in 0..100_000 {
        mem.tick(Some(Request::read(LineAddr(gen.next_addr()))));
    }
    let m = mem.metrics();
    assert!(m.total_stalls() > 0, "cramped config must stall within 100k cycles");
    assert!(
        m.delay_storage_stalls > 0,
        "storage stalls expected: ds={} q={}",
        m.delay_storage_stalls,
        m.access_queue_stalls
    );
}

#[test]
fn paper_scale_config_never_stalls_in_reachable_horizons() {
    // The optimal design point predicts MTS ~1e13; a million-cycle run
    // must therefore be stall-free.
    let mut mem = VpnmController::new(VpnmConfig::paper_optimal(), 17).unwrap();
    let mut gen = UniformAddresses::new(1u64 << 32, 18);
    for _ in 0..1_000_000u64 {
        let out = mem.tick(Some(Request::read(LineAddr(gen.next_addr()))));
        assert!(out.accepted(), "paper config stalled — MTS model violated");
    }
    let queue_mts = BankQueueModel::new(32, 20, 64, 1.3).mts_cycles();
    assert!(queue_mts > 1e12);
}
