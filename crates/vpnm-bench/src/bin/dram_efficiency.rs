//! **Section 3.1 motivation** — "PC133 SDRAM works at 60% efficiency and
//! DDR266 SDRAM works at 37% efficiency, where 80 to 85% of the lost
//! efficiency is due to the bank conflicts."
//!
//! Measures bus efficiency (fraction of cycles the data bus transfers) on
//! the raw DRAM substrate under different access patterns and bank
//! counts, with a simple greedy issuer that retries conflicting accesses —
//! i.e. what a conventional controller without VPNM achieves.
//!
//! Run: `cargo run --release -p vpnm-bench --bin dram_efficiency`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpnm_bench::Table;
use vpnm_dram::timing::TimingModel;
use vpnm_dram::{DramConfig, DramDevice};
use vpnm_sim::Cycle;

const ACCESSES: u64 = 20_000;

/// Greedy issue: try one pending random access per cycle; on a bank
/// conflict, hold it and retry next cycle (head-of-line blocking, as in a
/// simple in-order controller).
fn measure(config: DramConfig, pattern: Pattern, seed: u64) -> f64 {
    let banks = config.num_banks;
    let cells = config.cells_per_bank();
    let mut dram = DramDevice::new(config);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = Cycle::ZERO;
    let mut pending: Option<(u32, u64)> = None;
    let mut done = 0u64;
    let mut seq = 0u64;
    while done < ACCESSES {
        let (bank, offset) = pending.take().unwrap_or_else(|| match pattern {
            Pattern::Random => (rng.gen_range(0..banks), rng.gen_range(0..cells)),
            Pattern::Sequential => {
                let s = seq;
                seq += 1;
                ((s % u64::from(banks)) as u32, (s / u64::from(banks)) % cells)
            }
            Pattern::RowLocal => (rng.gen_range(0..banks), rng.gen_range(0..64)),
        });
        match dram.try_issue_read(bank, offset, now).expect("address in range") {
            Some(_) => done += 1,
            None => pending = Some((bank, offset)),
        }
        now += 1;
    }
    dram.stats().bus_efficiency(now)
}

#[derive(Clone, Copy)]
enum Pattern {
    Random,
    Sequential,
    RowLocal,
}

fn main() {
    println!("DRAM bus efficiency under a conventional in-order controller ({ACCESSES} reads)\n");
    let sdram = DramConfig {
        num_banks: 4,
        rows_per_bank: 1 << 12,
        cells_per_row: 64,
        cell_bytes: 64,
        timing: TimingModel::sdram_pc133(),
    };
    let rdram32 = DramConfig::paper_rdram();
    let rdram512 = DramConfig { num_banks: 512, ..DramConfig::paper_rdram() };

    let mut t = Table::new(vec!["device", "pattern", "bus efficiency"]);
    let mut results = Vec::new();
    for (dev_name, cfg) in [
        ("SDRAM 4-bank open-page", &sdram),
        ("RDRAM-class 32-bank", &rdram32),
        ("RDRAM-class 512-bank", &rdram512),
    ] {
        for (pat_name, pat) in [
            ("random", Pattern::Random),
            ("sequential", Pattern::Sequential),
            ("row-local", Pattern::RowLocal),
        ] {
            let eff = measure(cfg.clone(), pat, 7);
            t.row(vec![dev_name.into(), pat_name.into(), format!("{:.1}%", eff * 100.0)]);
            results.push((dev_name, pat_name, eff));
        }
    }
    t.print();

    let get = |d: &str, p: &str| {
        results.iter().find(|(dn, pn, _)| *dn == d && *pn == p).expect("present").2
    };
    let sdram_rand = get("SDRAM 4-bank open-page", "random");
    let sdram_local = get("SDRAM 4-bank open-page", "row-local");
    let r32 = get("RDRAM-class 32-bank", "random");
    let r512 = get("RDRAM-class 512-bank", "random");
    println!("\npaper landmark (Section 3.1): PC133-class parts lose most of their bandwidth to");
    println!("bank conflicts on non-streaming traffic. A head-of-line-blocking in-order issuer");
    println!("makes every conflict cost its full resolution time, so the numbers here bound the");
    println!("conventional controller from below; the orderings are what matter:");
    println!("  few banks, random:        {:.0}% (conflict-bound)", sdram_rand * 100.0);
    println!("  few banks, row-local:     {:.0}% (the paper's ~60% regime)", sdram_local * 100.0);
    println!(
        "  many banks, random:       {:.0}% → {:.0}% as banks grow 32 → 512",
        r32 * 100.0,
        r512 * 100.0
    );
    println!("  streaming (sequential):   ~100% everywhere — why vendors quote peak numbers");
    assert!(sdram_rand < 0.5, "few banks + random traffic must be conflict-bound");
    assert!(sdram_local > sdram_rand, "row locality must help an open-page device");
    assert!(r512 > r32 + 0.2, "hundreds of banks must recover most of the loss");
    assert!(get("RDRAM-class 32-bank", "sequential") > 0.95);
    println!("\nVPNM's contribution is exactly this gap: it schedules *around* the conflicts so");
    println!("the delivered bandwidth approaches the conflict-free case for ANY pattern.");
}
