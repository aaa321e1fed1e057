//! **MTS campaign** — long-horizon stall measurement, sharded across all
//! cores with checkpointed resume (see `vpnm_bench::campaign`).
//!
//! The paper claims a Mean Time to Stall around 10¹³ accesses for the
//! optimal configuration; horizons of that order need multi-core runs
//! that survive interruption. This driver shards the horizon into
//! deterministic per-seed shards, appends one JSON checkpoint line per
//! completed shard, and merges everything (counters plus exact occupancy
//! histograms) into a final report that is bit-identical no matter how
//! many cores ran it or how many times it was killed and resumed.
//!
//! Run:
//!
//! ```text
//! cargo run --release -p vpnm-bench --bin mts_campaign -- \
//!     --cycles 1e9 [--shard-cycles 1e6] [--preset paper_optimal] \
//!     [--seed 42] [--channels N] \
//!     [--checkpoint mts_campaign_checkpoint.jsonl]
//! ```
//!
//! Re-running the same command after a kill resumes from the checkpoint;
//! delete the checkpoint file to start over. Shards run in parallel on
//! every core; each shard, fabric channels included, runs on one thread.

use std::path::PathBuf;
use vpnm_bench::campaign::{run_campaign, CampaignParams};

/// Parses a cycle count given either as an integer (`1000000`) or in
/// scientific notation (`1e9`, `2.5e8`).
fn parse_cycles(s: &str) -> Option<u64> {
    if let Ok(v) = s.parse::<u64>() {
        return Some(v);
    }
    let v = s.parse::<f64>().ok()?;
    (v.is_finite() && v >= 1.0 && v <= u64::MAX as f64).then_some(v as u64)
}

fn usage() -> ! {
    eprintln!(
        "usage: mts_campaign [--cycles N] [--shard-cycles N] [--preset NAME] \
         [--seed N] [--channels N] [--checkpoint PATH]\n\
         (N accepts scientific notation, e.g. 1e9; presets: paper_optimal, \
         paper_compact, small_test, test_roomy; --channels > 1 stripes each \
         shard over a universal-hash-selected fabric)"
    );
    std::process::exit(2)
}

fn main() {
    let mut params = CampaignParams {
        preset: "paper_optimal".into(),
        cycles: 100_000_000,
        shard_cycles: 1_000_000,
        seed: 42,
        channels: 1,
    };
    let mut checkpoint = PathBuf::from("mts_campaign_checkpoint.jsonl");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--cycles" => params.cycles = parse_cycles(&value()).unwrap_or_else(|| usage()),
            "--shard-cycles" => {
                params.shard_cycles = parse_cycles(&value()).unwrap_or_else(|| usage());
            }
            "--preset" => params.preset = value(),
            "--seed" => params.seed = value().parse().unwrap_or_else(|_| usage()),
            "--channels" => params.channels = value().parse().unwrap_or_else(|_| usage()),
            "--checkpoint" => checkpoint = PathBuf::from(value()),
            _ => usage(),
        }
    }
    println!(
        "MTS campaign: {} cycles of full-rate uniform reads on '{}' x{} channel(s) \
         ({} shards x {} cycles, seed {})",
        params.cycles,
        params.preset,
        params.channels,
        params.shards(),
        params.shard_cycles,
        params.seed
    );
    println!("checkpoint: {} (delete to restart)\n", checkpoint.display());

    let started = std::time::Instant::now();
    let report = run_campaign(&params, &checkpoint, |done, pending| {
        eprintln!("  shard {done}/{pending} done ({:.1}s)", started.elapsed().as_secs_f64());
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    });

    if report.resumed > 0 {
        println!("resumed {} completed shards from the checkpoint\n", report.resumed);
    }
    print!("{}", report.render());
    println!(
        "\n{} shards merged in {:.1}s ({:.1} Mcycles/s wall-clock incl. resume)",
        report.completed,
        started.elapsed().as_secs_f64(),
        report.cycles as f64 / 1e6 / started.elapsed().as_secs_f64(),
    );
}
