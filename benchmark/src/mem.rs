//! The `mem_*` workloads: a memory engine driven straight through
//! `PipelinedMemory`, checked against the benchmark's own oracle.
//!
//! The timed region is the calls into the memory (the responses come back
//! inside the call's report). Request generation and the oracle check sit
//! between calls, untimed.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::adapter::{self, PipelinedMemory, Request, Response};
use crate::traffic::{cell_matches, fill_cell, BurstyRw, DenseReads, MemOp};
use crate::workloads::MEM_SPAN;

const CELL_BYTES: usize = 64;

/// The benchmark's own model of a flat pipelined memory: every accepted
/// read returns, exactly `D` cycles after it was issued, the cell as of
/// the moment it was issued.
#[derive(Debug)]
pub struct Oracle {
    delay: u64,
    store: HashMap<u64, u64>,
    /// Reads presented and not yet answered: `(issued_at, addr, tag)`.
    expected: VecDeque<(u64, u64, Option<u64>)>,
    /// A request stalled, so later data comparisons are no longer exact.
    inexact: bool,
    /// Latency counts, indexed by `completed_at − issued_at`.
    pub latency: Vec<u64>,
    /// Responses with `completed_at ≠ issued_at + D`.
    pub late: u64,
    /// Wrong address or payload on a stall-free stream.
    pub mismatched: u64,
    /// Reads that never came back, and wrong payloads after a stall.
    pub lost: u64,
}

impl Oracle {
    /// An empty memory with latency `delay`.
    pub fn new(delay: u64) -> Self {
        Oracle {
            delay,
            store: HashMap::new(),
            expected: VecDeque::new(),
            inexact: false,
            latency: Vec::new(),
            late: 0,
            mismatched: 0,
            lost: 0,
        }
    }

    /// Notes the requests of one call, presented from cycle `now` on.
    pub fn present(&mut self, now: u64, ops: &[MemOp]) {
        for op in ops {
            match op.write_tag {
                Some(tag) => {
                    self.store.insert(op.addr, tag);
                }
                None => {
                    let tag = self.store.get(&op.addr).copied();
                    self.expected.push_back((now + op.offset + 1, op.addr, tag));
                }
            }
        }
    }

    /// Checks the responses of one call; `stalled` is how many of its
    /// requests the memory did not accept.
    pub fn check(&mut self, responses: &[Response], stalled: u64) {
        self.inexact |= stalled > 0;
        for r in responses {
            let (addr, issued_at, completed_at) = adapter::response_parts(r);
            let waited = completed_at.saturating_sub(issued_at) as usize;
            if self.latency.len() <= waited {
                self.latency.resize(waited + 1, 0);
            }
            self.latency[waited] += 1;
            self.late += u64::from(completed_at != issued_at + self.delay);
            // Responses come back in issue order; an expected read older
            // than this response stalled and never will.
            let want = loop {
                match self.expected.pop_front() {
                    Some(e) if e.0 < issued_at => self.lost += 1,
                    other => break other,
                }
            };
            let ok = want.is_some_and(|(at, a, tag)| {
                at == issued_at && a == addr && cell_matches(tag, &r.data)
            });
            if !ok {
                if self.inexact {
                    self.lost += 1;
                } else {
                    self.mismatched += 1;
                }
            }
        }
    }

    /// Counts whatever is still expected after the drain as lost.
    pub fn finish(&mut self) {
        self.lost += self.expected.len() as u64;
        self.expected.clear();
    }

    /// Contract violations seen: late and mismatched responses.
    pub fn violations(&self) -> u64 {
        self.late + self.mismatched
    }

    /// The `q`-quantile of the observed latencies.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().sum();
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (lat, &n) in self.latency.iter().enumerate() {
            seen += n;
            if seen >= target {
                return lat as u64;
            }
        }
        0
    }
}

/// The request stream of a `mem_*` workload.
enum Stream {
    Dense(DenseReads),
    Bursty(BurstyRw),
}

/// What one repetition of a `mem_*` workload produced.
pub struct MemRun {
    /// Wall time inside the memory calls, in nanoseconds.
    pub timed_ns: u64,
    /// Per-call wall times, in nanoseconds.
    pub call_ns: Vec<u64>,
    /// Requests presented.
    pub issued: u64,
    /// Requests the memory accepted.
    pub accepted: u64,
    /// Requests it stalled or rejected.
    pub refused: u64,
    /// The oracle, holding the latency distribution and violation counts.
    pub oracle: Oracle,
}

/// Builds the program's requests for one span; write payloads are slices
/// of one arena per span.
fn requests_of(ops: &[MemOp], arena_buf: &mut Vec<u8>) -> Vec<(u64, Request)> {
    arena_buf.clear();
    for tag in ops.iter().filter_map(|o| o.write_tag) {
        fill_cell(tag, CELL_BYTES, arena_buf);
    }
    let arena = adapter::arena(std::mem::take(arena_buf));
    let mut next = 0usize;
    ops.iter()
        .map(|op| {
            let data = op.write_tag.map(|_| {
                next += CELL_BYTES;
                adapter::arena_slice(&arena, next - CELL_BYTES, next)
            });
            (op.offset, adapter::request(op.addr, 0, data))
        })
        .collect()
}

/// Drives `cycles` interface cycles of the dense or bursty stream for
/// `seed` through `mem` in [`MEM_SPAN`]-cycle calls, then drains it.
pub fn run<M: PipelinedMemory + ?Sized>(
    mem: &mut M,
    bursty: bool,
    seed: u64,
    cycles: u64,
) -> MemRun {
    let mut stream = if bursty {
        Stream::Bursty(BurstyRw::new(seed))
    } else {
        Stream::Dense(DenseReads::new(seed))
    };
    let mut out = MemRun {
        timed_ns: 0,
        call_ns: Vec::with_capacity((cycles / MEM_SPAN) as usize + 1),
        issued: 0,
        accepted: 0,
        refused: 0,
        oracle: Oracle::new(adapter::mem_delay(mem)),
    };
    let (mut ops, mut arena_buf) = (Vec::new(), Vec::new());
    for _ in 0..cycles / MEM_SPAN {
        match &mut stream {
            Stream::Dense(g) => g.next_span(MEM_SPAN, &mut ops),
            Stream::Bursty(g) => g.next_span(MEM_SPAN, &mut ops),
        }
        let sparse = requests_of(&ops, &mut arena_buf);
        out.oracle.present(adapter::mem_now(mem), &ops);
        let report = match stream {
            Stream::Dense(_) => {
                let dense: Vec<Request> = sparse.into_iter().map(|(_, r)| r).collect();
                let t = Instant::now();
                let report = adapter::issue_batch(mem, &dense);
                out.call_ns.push(t.elapsed().as_nanos() as u64);
                report
            }
            Stream::Bursty(_) => {
                let t = Instant::now();
                let report = adapter::run_epoch_sparse(mem, MEM_SPAN, &sparse);
                out.call_ns.push(t.elapsed().as_nanos() as u64);
                report
            }
        };
        out.issued += ops.len() as u64;
        out.accepted += report.accepted;
        out.refused += report.stalled + report.rejected;
        out.oracle.check(&report.responses, report.stalled + report.rejected);
    }
    let t = Instant::now();
    let tail = adapter::drain(mem);
    out.call_ns.push(t.elapsed().as_nanos() as u64);
    out.oracle.check(&tail, 0);
    out.oracle.finish();
    out.timed_ns = out.call_ns.iter().sum();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{bare_controller, Faulty};

    #[test]
    fn clean_runs_have_no_violations_and_exact_latency() {
        for bursty in [false, true] {
            let mut mem = bare_controller(5).unwrap();
            let r = run(&mut mem, bursty, 5, 40 * MEM_SPAN);
            assert_eq!(
                (r.oracle.violations(), r.oracle.lost, r.refused),
                (0, 0, 0),
                "bursty {bursty}"
            );
            assert_eq!(r.accepted, r.issued);
            let d = adapter::design_delay();
            assert_eq!((r.oracle.latency_quantile(0.5), r.oracle.latency_quantile(0.99)), (d, d));
            assert!(r.issued > 10_000);
        }
    }

    #[test]
    fn the_checker_catches_a_late_and_a_corrupted_response() {
        let mut mem = Faulty::new(bare_controller(5).unwrap());
        let r = run(&mut mem, true, 5, 40 * MEM_SPAN);
        assert_eq!((r.oracle.late, r.oracle.mismatched), (1, 1));
        assert_eq!(r.oracle.violations(), 2);
    }
}
