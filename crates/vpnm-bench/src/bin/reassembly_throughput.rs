//! **Section 5.4.2 claim** — TCP reassembly on VPNM sustains ~40 Gbps:
//! "Since our memory system can process requests every cycle, with a
//! 400 MHz RDRAM we can get an effective throughput of
//! (400 MHz/5)·64 bytes/sec = 40 Gbps", with ~72 KB of segment FIFO SRAM
//! (packets held for 3·D while their three leading accesses complete).
//!
//! Runs out-of-order multi-connection streams through the engine on the
//! paper-scale controller and reports measured cycles/chunk and the
//! derived throughput at 400 MHz.
//!
//! Run: `cargo run --release -p vpnm-bench --bin reassembly_throughput`

use vpnm_apps::reassembly::ReassemblyEngine;
use vpnm_bench::Table;
use vpnm_core::{VpnmConfig, VpnmController};
use vpnm_workloads::packets::payload_bytes;
use vpnm_workloads::OutOfOrderSegments;

const CHUNK: usize = 64;
const CLOCK_MHZ: f64 = 400.0;

fn run(flows: u32, chunks_per_flow: usize, reorder_window: usize) -> (f64, f64, u64) {
    let mem = VpnmController::new(VpnmConfig::paper_optimal(), 77).unwrap();
    let mut engine = ReassemblyEngine::new(mem, flows, 1 << 13, CHUNK);
    let streams: Vec<Vec<u8>> =
        (0..flows).map(|f| payload_bytes(f, 1, chunks_per_flow * CHUNK)).collect();
    let mut sources: Vec<OutOfOrderSegments> = streams
        .iter()
        .enumerate()
        .map(|(f, s)| OutOfOrderSegments::new(s, 4 * CHUNK, reorder_window, 900 + f as u64))
        .collect();
    loop {
        let mut progressed = false;
        for (f, src) in sources.iter_mut().enumerate() {
            if let Some(seg) = src.next_segment() {
                engine.submit_segment(f as u32, seg.offset, &seg.data);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    let cycles = engine.cycles();
    let stats = engine.stats();
    engine.drain();
    for (f, stream) in streams.iter().enumerate() {
        assert_eq!(engine.scanned(f as u32), &stream[..], "flow {f} must scan in order");
    }
    let per_chunk = cycles as f64 / stats.chunks_ingested as f64;
    let gbps = (CHUNK as f64 * 8.0) / per_chunk * CLOCK_MHZ / 1000.0;
    (per_chunk, gbps, stats.stall_retries)
}

fn main() {
    println!("Reassembly throughput on VPNM (paper claim: 5 accesses / 64 B chunk → 40 Gbps at 400 MHz)\n");
    let mut t = Table::new(vec![
        "flows",
        "reorder window",
        "cycles/chunk",
        "Gbps @400MHz",
        "stall retries",
    ]);
    let mut headline = 0.0;
    for (flows, window) in [(16u32, 4usize), (64, 8), (128, 8), (64, 16)] {
        let (per_chunk, gbps, stalls) = run(flows, 64, window);
        if flows == 64 && window == 8 {
            headline = gbps;
        }
        t.row(vec![
            flows.to_string(),
            window.to_string(),
            format!("{per_chunk:.2}"),
            format!("{gbps:.1}"),
            stalls.to_string(),
        ]);
    }
    t.print();

    // SRAM FIFO sizing (paper: "requires 72 Kbytes of SRAM"): packets wait
    // 3·D cycles while the record/hole accesses round-trip; at line rate
    // one 64 B chunk arrives per 5 cycles.
    let d = VpnmConfig::paper_optimal().effective_delay();
    let fifo_kb = (3 * d) as f64 / 5.0 * CHUNK as f64 / 1024.0;
    println!(
        "\nsegment FIFO sizing: 3·D = {} cycles × (64 B / 5 cycles) = {:.0} KB (paper: 72 KB)",
        3 * d,
        fifo_kb
    );
    println!("headline: {headline:.1} Gbps vs. the paper's 40 Gbps");
    assert!(headline > 30.0, "must be in the 40 Gbps regime, got {headline:.1}");
}
