//! TCP packet reassembly for content inspection (paper Section 5.4.2).
//!
//! Crafts deliberately out-of-order TCP streams (the attack the paper
//! motivates: a signature split across reordered segments), reassembles
//! them through VPNM with the five-access-per-chunk discipline, and shows
//! the scanner sees each stream fully in order — including a "signature"
//! string that straddles a reordered segment boundary.
//!
//! Run with: `cargo run --release --example packet_reassembly`

use vpnm::apps::reassembly::ReassemblyEngine;
use vpnm::core::{VpnmConfig, VpnmController};
use vpnm::workloads::OutOfOrderSegments;

// Each connection's hole-buffer cell is a fixed (hot) address costing two
// bank accesses per chunk; one bank sustains only R/B requests per cycle,
// so line rate needs the per-flow rate diluted across many concurrent
// connections — as in any real traffic mix.
const CHUNK: usize = 64;
const FLOWS: u32 = 64;
const STREAM_CHUNKS: usize = 64;

fn main() -> Result<(), String> {
    let mem = VpnmController::new(VpnmConfig::paper_optimal(), 99)?;
    let mut engine = ReassemblyEngine::new(mem, FLOWS, 4096, CHUNK);

    // Build one stream per flow; hide a "signature" across a segment
    // boundary in flow 0.
    let mut streams: Vec<Vec<u8>> = (0..FLOWS)
        .map(|f| vpnm::workloads::packets::payload_bytes(f, 0, STREAM_CHUNKS * CHUNK))
        .collect();
    let signature = b"EVIL_SIGNATURE_SPLIT_ACROSS_SEGMENTS";
    let boundary = 4 * CHUNK * 4; // lands on a segment boundary (segments are 4 chunks)
    streams[0][boundary - 16..boundary - 16 + signature.len()].copy_from_slice(signature);

    // Deliver segments out of order (shuffled within 8-segment windows).
    let mut segment_sources: Vec<OutOfOrderSegments> = streams
        .iter()
        .enumerate()
        .map(|(f, s)| OutOfOrderSegments::new(s, 4 * CHUNK, 8, f as u64 + 100))
        .collect();
    let mut total_segments = 0u64;
    loop {
        let mut progressed = false;
        for (f, src) in segment_sources.iter_mut().enumerate() {
            if let Some(seg) = src.next_segment() {
                engine.submit_segment(f as u32, seg.offset, &seg.data);
                total_segments += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    engine.drain();

    // Verify every stream was scanned fully in order.
    for (f, stream) in streams.iter().enumerate() {
        assert_eq!(engine.scanned(f as u32), &stream[..], "flow {f} must be scanned in order");
    }
    // The scanner sees the signature contiguously despite the reordering.
    let scanned0 = engine.scanned(0);
    let found = scanned0.windows(signature.len()).any(|w| w == signature);
    assert!(found, "signature must be visible to an in-order scanner");

    let stats = engine.stats();
    let cycles = engine.cycles();
    let chunks = stats.chunks_ingested;
    let cycles_per_chunk = cycles as f64 / chunks as f64;
    // Paper: 400 MHz RDRAM, 5 accesses per 64 B chunk → 40 Gbps.
    let gbps = (CHUNK as f64 * 8.0) / cycles_per_chunk * 0.4;
    println!("flows:             {FLOWS}");
    println!("segments ingested: {total_segments} (out of order)");
    println!("chunks:            {chunks}, accesses: {}", stats.accesses);
    println!("stall retries:     {}", stats.stall_retries);
    println!("cycles/chunk:      {cycles_per_chunk:.2} (paper model: 5)");
    println!("throughput:        {gbps:.1} Gbps at 400 MHz (paper claim: 40)");
    println!("signature detected in-order despite reordering ✓");
    Ok(())
}
