//! The Figure 7 / Table 2 design-space exploration.
//!
//! The paper "run\[s\] the hardware overhead tool for several thousand
//! configurations with varying architectural parameters and consider\[s\]
//! the Pareto optimal design points in terms of area, MTS, and bandwidth
//! utilization (R)". This module sweeps `(B, Q, K)` grids for each `R`,
//! evaluates total MTS (delay-storage + bank-queue mechanisms) and
//! area/energy (via `vpnm-hw`), and extracts the Pareto frontier.

use crate::combine::combined_mts;
use crate::dsb::{dsb_mts, paper_delay_with_ratio};
use crate::markov::BankQueueModel;
use std::collections::HashMap;
use vpnm_hw::{estimate, ControllerParams};
use vpnm_sim::parallel::par_map;

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Banks `B`.
    pub banks: u32,
    /// Queue entries `Q`.
    pub queue_entries: u64,
    /// Storage rows `K`.
    pub storage_rows: u64,
    /// Bus scaling ratio `R`.
    pub bus_ratio: f64,
    /// Normalized delay `D` used by the analysis (`ceil(Q·L/R)`).
    pub delay: u64,
    /// Delay-storage-buffer MTS (cycles).
    pub mts_dsb: f64,
    /// Bank-access-queue MTS (cycles).
    pub mts_queue: f64,
    /// Combined MTS (cycles).
    pub mts_total: f64,
    /// Total controller area, mm².
    pub area_mm2: f64,
    /// Energy per access, nJ.
    pub energy_nj: f64,
}

/// Sweep bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Bank counts to evaluate.
    pub banks: Vec<u32>,
    /// Queue sizes to evaluate.
    pub queue_entries: Vec<u64>,
    /// Storage rows to evaluate.
    pub storage_rows: Vec<u64>,
    /// Bus ratios to evaluate.
    pub bus_ratios: Vec<f64>,
    /// Bank access latency `L`.
    pub bank_latency: u64,
}

impl SweepConfig {
    /// The grid behind the paper's Figure 7: `B ∈ {16, 32, 64}`,
    /// `Q ∈ {8..64}`, `K ∈ {16..128}`, `R ∈ {1.0..1.5}`, `L = 20`.
    pub fn paper_figure7() -> Self {
        SweepConfig {
            banks: vec![16, 32, 64],
            queue_entries: (8..=64).step_by(8).collect(),
            storage_rows: (16..=128).step_by(16).collect(),
            bus_ratios: vec![1.0, 1.1, 1.2, 1.3, 1.4, 1.5],
            bank_latency: 20,
        }
    }

    /// A small grid for fast tests.
    pub fn tiny() -> Self {
        SweepConfig {
            banks: vec![16, 32],
            queue_entries: vec![8, 16],
            storage_rows: vec![16, 32],
            bus_ratios: vec![1.3],
            bank_latency: 20,
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.banks.len()
            * self.queue_entries.len()
            * self.storage_rows.len()
            * self.bus_ratios.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluates one configuration.
pub fn evaluate(banks: u32, q: u64, k: u64, r: f64, l: u64) -> DesignPoint {
    point(banks, q, k, r, l, BankQueueModel::new(banks, l, q, r).mts_cycles())
}

/// Everything of [`evaluate`] but the bank-queue Markov solve, whose
/// result `mts_queue` the caller supplies.
fn point(banks: u32, q: u64, k: u64, r: f64, l: u64, mts_queue: f64) -> DesignPoint {
    let delay = paper_delay_with_ratio(q, l, r);
    let mts_dsb = dsb_mts(banks, k, delay);
    let mts_total = combined_mts(&[mts_dsb, mts_queue]);
    let params = ControllerParams {
        banks,
        bank_latency: l,
        queue_entries: q,
        storage_rows: k,
        bus_ratio: r,
        ..ControllerParams::paper_default()
    };
    let hw = estimate(&params);
    DesignPoint {
        banks,
        queue_entries: q,
        storage_rows: k,
        bus_ratio: r,
        delay,
        mts_dsb,
        mts_queue,
        mts_total,
        area_mm2: hw.total_area_mm2,
        energy_nj: hw.energy_nj,
    }
}

/// Evaluates the full grid. The bank-queue Markov solves (the dominant
/// cost) run once per distinct `(B, Q, R)`, since `K` does not enter that
/// model, fanned out over the cores with [`par_map`].
pub fn sweep(config: &SweepConfig) -> Vec<DesignPoint> {
    // Pre-compute the expensive Markov MTS for each distinct (B, Q, R).
    let mut keys: Vec<(u32, u64, u64)> = Vec::new(); // r stored as milli-units
    for &b in &config.banks {
        for &q in &config.queue_entries {
            for &r in &config.bus_ratios {
                keys.push((b, q, (r * 1000.0).round() as u64));
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();

    let solved = par_map(keys.len(), |i| {
        let (b, q, rm) = keys[i];
        BankQueueModel::new(b, config.bank_latency, q, rm as f64 / 1000.0).mts_cycles()
    });
    let cache: HashMap<(u32, u64, u64), f64> = keys.into_iter().zip(solved).collect();

    let mut out = Vec::with_capacity(config.len());
    for &b in &config.banks {
        for &q in &config.queue_entries {
            for &k in &config.storage_rows {
                for &r in &config.bus_ratios {
                    let mts_queue = cache[&(b, q, (r * 1000.0).round() as u64)];
                    out.push(point(b, q, k, r, config.bank_latency, mts_queue));
                }
            }
        }
    }
    out
}

/// Filters `points` down to the Pareto frontier maximizing MTS while
/// minimizing area. The result is sorted by area ascending.
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<DesignPoint> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.area_mm2.total_cmp(&b.area_mm2).then(b.mts_total.total_cmp(&a.mts_total))
    });
    let mut frontier: Vec<DesignPoint> = Vec::new();
    let mut best = f64::NEG_INFINITY;
    for p in sorted {
        if p.mts_total > best {
            best = p.mts_total;
            frontier.push(p);
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_covers_grid() {
        let cfg = SweepConfig::tiny();
        let points = sweep(&cfg);
        assert_eq!(points.len(), cfg.len());
        assert!(!cfg.is_empty());
        for p in &points {
            assert!(p.area_mm2 > 0.0);
            assert!(p.mts_total > 0.0);
            assert!(p.mts_total <= crate::MTS_CAP);
            assert!(p.mts_total <= p.mts_dsb.min(p.mts_queue) * 1.000001);
        }
    }

    #[test]
    fn sweep_matches_pointwise_evaluate() {
        let cfg = SweepConfig::tiny();
        let points = sweep(&cfg);
        for p in &points {
            let e =
                evaluate(p.banks, p.queue_entries, p.storage_rows, p.bus_ratio, cfg.bank_latency);
            assert_eq!(p.mts_total, e.mts_total);
            assert_eq!(p.area_mm2, e.area_mm2);
        }
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let points = sweep(&SweepConfig::tiny());
        let frontier = pareto_frontier(&points);
        assert!(!frontier.is_empty());
        for w in frontier.windows(2) {
            assert!(w[0].area_mm2 <= w[1].area_mm2);
            assert!(w[0].mts_total < w[1].mts_total);
        }
        // every non-frontier point is dominated
        for p in &points {
            let dominated =
                frontier.iter().any(|f| f.area_mm2 <= p.area_mm2 && f.mts_total >= p.mts_total);
            assert!(dominated);
        }
    }
}
