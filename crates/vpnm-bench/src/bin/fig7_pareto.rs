//! **Figure 7** — Pareto-optimal Mean Time to Stall vs. total controller
//! area, one curve per bus scaling ratio `R ∈ {1.0 … 1.5}` (paper
//! Section 5.3.1).
//!
//! Sweeps the paper's `(B, Q, K, R)` grid once, evaluates MTS (combined
//! delay-storage + bank-queue) and area (calibrated 0.13 µm model), and
//! prints each ratio's Pareto frontier plus the extra memory-bus
//! bandwidth it costs (the percentages annotated in the paper's figure),
//! then the best MTS at `B = 16` against `B = 32` over the whole grid.
//!
//! Run: `cargo run --release -p vpnm-bench --bin fig7_pareto`

use vpnm_analysis::design_space::{pareto_frontier, sweep, SweepConfig};
use vpnm_bench::{fmt_mts, Table};

fn main() {
    let config = SweepConfig::paper_figure7();
    let all = sweep(&config);
    println!("Figure 7: Pareto-optimal MTS vs. area per bus scaling ratio (L = 20)\n");
    let mut best_at_30mm: Vec<(f64, f64)> = Vec::new();
    for &r in &config.bus_ratios {
        let points: Vec<_> = all.iter().filter(|p| p.bus_ratio == r).copied().collect();
        let frontier = pareto_frontier(&points);
        let extra_bw = (r - 1.0) / r * 100.0;
        println!("R = {r} ({extra_bw:.0}% extra memory-bus bandwidth)");
        let mut table = Table::new(vec!["area mm²", "B", "Q", "K", "MTS cycles"]);
        for p in frontier.iter().filter(|p| p.mts_total > 1.0) {
            table.row(vec![
                format!("{:.1}", p.area_mm2),
                p.banks.to_string(),
                p.queue_entries.to_string(),
                p.storage_rows.to_string(),
                fmt_mts(p.mts_total),
            ]);
        }
        table.print();
        let best30 =
            points.iter().filter(|p| p.area_mm2 <= 30.0).map(|p| p.mts_total).fold(0.0, f64::max);
        best_at_30mm.push((r, best30));
        println!();
    }

    println!("best MTS within a ~30 mm² budget, per R (the paper picks R = 1.3/1.4 here):");
    for (r, mts) in &best_at_30mm {
        println!("  R = {r}: {}", fmt_mts(*mts));
    }
    // Paper: "For R = 1.3 … one second MTS = 1e9 for about 30 mm²" and
    // R = 1.4 reaches ~1 hour; higher R must dominate lower R.
    let at = |target: f64| {
        best_at_30mm
            .iter()
            .find(|(r, _)| (*r - target).abs() < 1e-9)
            .map(|(_, m)| *m)
            .expect("ratio present")
    };
    assert!(at(1.3) >= 1e9, "R=1.3 must reach the 1-second budget at 30 mm²");
    assert!(at(1.3) >= at(1.0), "more bus headroom must never hurt");
    assert!(at(1.5) >= at(1.1));
    // Paper Section 5.2: B = 32 is the knee; fewer banks cannot reach a
    // useful MTS at any Q/K/R in the grid.
    let best = |banks: u32| {
        all.iter().filter(|p| p.banks == banks).map(|p| p.mts_total).fold(0.0, f64::max)
    };
    let (best_16, best_32) = (best(16), best(32));
    println!("best MTS with B = 16: {}   with B = 32: {}", fmt_mts(best_16), fmt_mts(best_32));
    assert!(best_32 > best_16 * 1e3, "B = 32 must beat B = 16 by more than 10³");
    println!(
        "\nshape check passed: MTS grows with R at fixed area, R = 1.3 reaches 1e9 under 30 mm² ✓"
    );
}
