//! **Figure 1** — how a bank controller normalizes every access to a fixed
//! delay `D = 30` with bank access time `L = 15` (so `Q = D/L = 2`
//! overlapping requests can be absorbed).
//!
//! Reproduces the paper's three scenarios on a real bank controller:
//! typical operation, short-cut (merged redundant) accesses, and a bank
//! overload stall. Each is rendered as an ASCII timing diagram: one row
//! per request, `a`=accepted, `m`=merged, `I`=bank access issued,
//! `D`=bank access done, `C`=completed (played back at `t + 30`),
//! `S`=stalled.
//!
//! Run: `cargo run --release -p vpnm-bench --bin fig1_timing`

use vpnm_core::bank_controller::{Accepted, BankController, BankEvent};
use vpnm_core::delay_line::CircularDelayBuffer;
use vpnm_core::request::LineAddr;
use vpnm_core::{HashKind, Request, VpnmConfig, VpnmController};
use vpnm_dram::{DramConfig, DramDevice};
use vpnm_sim::Cycle;

const D: u64 = 30;
const L: u64 = 15;

/// One lifecycle event: `(cycle, request id, legend tag)`.
type Event = (u64, u64, char);

/// Renders the events as an ASCII timing diagram: one row per request in
/// order of first appearance, one column per cycle between the earliest
/// and latest event. A row shows its tags at their cycles, `-` between
/// its first and last event, and spaces elsewhere. Empty when there are
/// no events or the span exceeds `max_width` columns.
fn render_timing_diagram(events: &[Event], max_width: usize) -> String {
    if events.is_empty() {
        return String::new();
    }
    let t0 = events.iter().map(|e| e.0).min().unwrap();
    let t1 = events.iter().map(|e| e.0).max().unwrap();
    let width = (t1 - t0 + 1) as usize;
    if width > max_width {
        return String::new();
    }
    let mut order: Vec<u64> = Vec::new();
    for &(_, req, _) in events {
        if !order.contains(&req) {
            order.push(req);
        }
    }
    let mut out = String::new();
    for req in order {
        let evs: Vec<&Event> = events.iter().filter(|e| e.1 == req).collect();
        let first = evs.iter().map(|e| e.0).min().unwrap();
        let last = evs.iter().map(|e| e.0).max().unwrap();
        let mut row = vec![' '; width];
        for col in first..=last {
            row[(col - t0) as usize] = '-';
        }
        for &&(at, _, tag) in &evs {
            row[(at - t0) as usize] = tag;
        }
        out.push_str(&format!("req {req:>4} |"));
        out.extend(row);
        out.push('\n');
    }
    out
}

/// Drives one scenario: `(cycle, request-id, address)` submissions.
fn run_scenario(title: &str, submissions: &[(u64, u64, u64)]) {
    let mut dram = DramDevice::new(DramConfig {
        num_banks: 1,
        rows_per_bank: 16,
        cells_per_row: 4,
        cell_bytes: 8,
        timing: vpnm_dram::timing::TimingModel::simple(L),
    });
    // K = 4 rows, Q = D/L = 2 queue entries, 1 write-buffer slot. The
    // playback wheel lives outside the bank controller (in the full
    // system one shared wheel serves all banks).
    let mut bc = BankController::new(0, 4, 2, 1);
    let mut wheel = CircularDelayBuffer::new(D as usize);
    let mut trace: Vec<Event> = Vec::new();
    // request id currently being accessed by the bank, with finish time
    let mut accessing: Option<(u64, Cycle)> = None;
    // ids in delay-line schedule order: playbacks pop from the front
    let mut scheduled: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    // ids whose bank access is still queued, FIFO
    let mut queued_ids: std::collections::VecDeque<u64> = std::collections::VecDeque::new();

    let horizon = submissions.iter().map(|&(t, _, _)| t).max().unwrap_or(0) + D + 2 * L + 2;
    for t in 0..horizon {
        let now = Cycle::new(t);
        // bank grant every cycle (single bank, R = 1)
        if let Some((id, done)) = accessing {
            if now >= done {
                trace.push((t, id, 'D'));
                accessing = None;
            }
        }
        if accessing.is_none() {
            if let Some(&id) = queued_ids.front() {
                if bc.on_bus_grant(&mut dram, now).issued {
                    queued_ids.pop_front();
                    trace.push((t, id, 'I'));
                    accessing = Some((id, now + L));
                }
            }
        }
        // interface side: submit if scheduled for this cycle
        let mut incoming = None;
        if let Some(&(_, id, addr)) = submissions.iter().find(|&&(st, _, _)| st == t) {
            match bc.submit(BankEvent::Read { addr: LineAddr(addr), take: false }) {
                Ok(Accepted::ReadQueued(row)) => {
                    trace.push((t, id, 'a'));
                    scheduled.push_back(id);
                    queued_ids.push_back(id);
                    incoming = Some(row);
                }
                Ok(Accepted::ReadMerged(row)) => {
                    trace.push((t, id, 'm'));
                    scheduled.push_back(id);
                    incoming = Some(row);
                }
                Ok(Accepted::WriteBuffered) => unreachable!("reads only"),
                Err(kind) => {
                    trace.push((t, id, 'S'));
                    println!("  cycle {t:>3}: request {id} STALLED ({kind})");
                }
            }
        }
        // The delay line is FIFO in schedule order, so a playback always
        // belongs to the globally oldest scheduled id.
        if let Some(row) = wheel.tick(incoming) {
            bc.playback(row);
            let id = scheduled.pop_front().expect("playback has a scheduled id");
            trace.push((t, id, 'C'));
        }
    }
    println!("\n=== {title} ===");
    println!("{}", render_timing_diagram(&trace, 120));
}

fn main() {
    println!("Figure 1: bank controller latency normalization (D = {D}, L = {L}, Q = {})", D / L);
    println!("legend: a accepted, m merged (redundant), I bank access start, D bank access done,");
    println!("        C completed at exactly t+{D}, S stalled\n");

    run_scenario("typical operating mode (paper: left graph)", &[(0, 1, 0xA), (2, 2, 0xB)]);
    run_scenario(
        "short-cut accesses: A,B then two redundant A's (paper: middle graph)",
        &[(0, 1, 0xA), (2, 2, 0xB), (4, 3, 0xA), (6, 4, 0xA)],
    );
    run_scenario(
        "bank overload stall: five distinct requests A-E too close together (paper: right graph)",
        &[(0, 1, 0xA), (10, 2, 0xB), (20, 3, 0xC), (25, 4, 0xD), (30, 5, 0xE)],
    );

    // Full-controller rendition of the overload scenario: the same five
    // requests through a VpnmController with the figure's bank shape
    // (Q = D/L = 2, K = 4; two banks, all traffic steered to bank 0 via
    // even addresses under the low-bits map), leaving the aggregate
    // metrics behind as a machine-readable record — the overload shows up
    // as nonzero `access_queue_stalls`, the diagram's `S` marker.
    let config = VpnmConfig {
        banks: 2,
        bank_latency: L,
        queue_entries: (D / L) as usize,
        storage_rows: 4,
        bus_ratio: 1.0,
        addr_bits: 8,
        ..VpnmConfig::paper_optimal()
    }
    .with_hash(HashKind::LowBits);
    let mut mem = VpnmController::new(config, 0).expect("valid config");
    let submissions = [(0u64, 0x14u64), (10, 0x16), (20, 0x18), (25, 0x1A), (30, 0x1C)];
    for t in 0..submissions.last().expect("non-empty").0 + D + 2 * L + 2 {
        let req = submissions
            .iter()
            .find(|&&(st, _)| st == t)
            .map(|&(_, addr)| Request::read(LineAddr(addr)));
        mem.tick(req);
    }
    mem.drain();
    vpnm_bench::report::write_snapshot("fig1_timing", &mem.snapshot().to_json());

    println!("Every completed request shows C exactly {D} cycles after its a/m marker;");
    println!("redundant requests (m) trigger no bank access; overload (more than Q = {} in", D / L);
    println!("flight for one bank) stalls instead of breaking the timing abstraction.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagram_renders_rows_per_request() {
        let events = [(0, 1, 'a'), (5, 1, 'C'), (2, 2, 'a'), (7, 2, 'C')];
        let d = render_timing_diagram(&events, 80);
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('a'));
        assert!(lines[0].contains('C'));
        // request 1 spans cols 0..=5, request 2 cols 2..=7
        assert!(lines[1].starts_with("req    2 |  a"));
    }

    #[test]
    fn diagram_empty_and_too_wide() {
        assert_eq!(render_timing_diagram(&[], 10), "");
        assert_eq!(render_timing_diagram(&[(0, 1, 'a'), (1000, 1, 'C')], 10), "");
    }
}
