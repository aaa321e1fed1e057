//! `vpnm-inspect`: render stall forensics from the observability layer.
//!
//! Runs the forced delay-storage-buffer overflow scenario (see
//! `vpnm_bench::inspect`) and prints:
//!
//! 1. the causal event window the forensic ring reconstructed — every
//!    accept, retire, and the stall with full buffer context;
//! 2. the controller's `MetricsSnapshot` as JSON, whose aggregates
//!    (per-bank high-water marks, CAM load factor, stall counters)
//!    corroborate the event-level story.
//!
//! Pass `--json` to emit only the snapshot (for piping into tooling).

use vpnm_bench::inspect::forced_dsb_overflow;

fn main() {
    let json_only = std::env::args().any(|a| a == "--json");
    let f = forced_dsb_overflow();
    if json_only {
        print!("{}", f.snapshot_json);
        return;
    }
    println!("vpnm-inspect: forced DSB-overflow forensics");
    println!("===========================================");
    println!();
    println!(
        "scenario: stride-B reads, distinct addresses, low-bits hash -> bank 0;\n\
         offered rate below service rate (queue drains) but delay D inflated so\n\
         every accepted read holds its delay-storage row far longer than the\n\
         accept interval. The DSB — not the queue — must overflow.\n"
    );
    match &f.report {
        Some(report) => {
            println!("{report}");
        }
        None => {
            println!(
                "(no stall event retained in the forensic ring)\n\
                 stall: {} at interface cycle {}",
                f.stall_kind, f.stall_cycle
            );
        }
    }
    println!();
    println!("metrics snapshot:");
    print!("{}", f.snapshot_json);
}
