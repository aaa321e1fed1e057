//! Stall forensics: a ring-buffered event tracer with one run-time gate.
//!
//! When the paper's probabilistic guarantees are working, stalls happen
//! once per ~10¹³ accesses — which means that when one *does* happen, the
//! single `StallKind` counter in [`crate::ControllerMetrics`] tells you
//! nothing about *why*. This module records the controller's recent
//! lifecycle events (accept, merge, grant, return, queue enter/exit) in a
//! fixed-capacity ring so that the event window leading up to a stall can
//! be reconstructed after the fact — "bank 3 exceeded DSB depth 8 at cycle
//! N; here are the 64 events before it".
//!
//! # One gate, and what it costs when off
//!
//! [`crate::VpnmConfig::forensics_capacity`] is the only gate, on every
//! build: `0` (the default) records nothing, any other value keeps the
//! last that-many events. The controller reads the gate once per drive
//! call (`tick` and each batch door) and runs one of two instantiations
//! of the same cycle body — one with the event sites compiled in, one
//! without — so with capacity 0 the hot loop carries no trace of the
//! tracer, no per-event branch included (`docs/OBSERVABILITY.md`, "What
//! Tier 2 costs when unused", has the measurement).
//!
//! Only the fast engine ([`crate::VpnmController`]) records forensic
//! events; the aggregate counters that the differential suite compares
//! between engines live in [`crate::ControllerMetrics`] instead.

use crate::delay_storage::RowId;
use crate::request::{LineAddr, StallKind};
use std::fmt;
use vpnm_sim::Cycle;

/// One lifecycle event recorded in the forensic ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForensicEvent {
    /// Interface cycle the event was recorded at. Events recorded during
    /// the memory-clock loop (grants, queue exits) carry the interface
    /// cycle in progress and may therefore appear one cycle before the
    /// interface-side events of the same tick; ring order is always
    /// faithful recording order.
    pub at: Cycle,
    /// The bank the event happened at.
    pub bank: u32,
    /// What happened.
    pub kind: ForensicKind,
}

/// The event taxonomy of the observability layer (see
/// `docs/OBSERVABILITY.md` for the full semantics of each event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForensicKind {
    /// A read was accepted and allocated delay-storage row `row`; it also
    /// entered the bank access queue at depth `queue_depth` (post-insert).
    Accepted {
        /// Cell address of the read.
        addr: LineAddr,
        /// Delay-storage row allocated for the in-flight cell.
        row: RowId,
        /// BAQ depth immediately after the insert.
        queue_depth: u32,
    },
    /// A redundant read was merged into already-in-flight row `row`
    /// (paper Section 3.4) — no queue entry, no new storage row.
    Merged {
        /// Cell address of the read.
        addr: LineAddr,
        /// The shared in-flight row.
        row: RowId,
    },
    /// A write was buffered; it entered the bank access queue at depth
    /// `queue_depth` (post-insert).
    WriteAccepted {
        /// Cell address of the write.
        addr: LineAddr,
        /// BAQ depth immediately after the insert.
        queue_depth: u32,
    },
    /// A bus grant let the bank issue or retire an access; the BAQ
    /// shrank to `queue_depth`.
    QueueExit {
        /// BAQ depth immediately after the retire.
        queue_depth: u32,
    },
    /// A read answered at its deterministic deadline, freeing (or
    /// decrementing the merge count of) row `row`.
    Returned {
        /// Cell address of the read.
        addr: LineAddr,
        /// The delay-storage row played back.
        row: RowId,
        /// True when the data had not arrived in time (a deadline miss —
        /// must never happen for a validated config).
        miss: bool,
    },
    /// An event-horizon skip (the controller's batch drive loop)
    /// fast-forwarded `interface_cycles` idle interface cycles in one
    /// step — no requests arrived, no bank had work, and no playback fell
    /// due anywhere in the span. Recorded with bank 0 (the span is not
    /// bank-specific). Explains apparent cycle gaps in the event stream.
    FastForward {
        /// Length of the skipped span in interface cycles.
        interface_cycles: u64,
    },
    /// A well-formed request could not be accepted: the causal context —
    /// every buffer's occupancy at the moment of the stall — is captured
    /// inline. Malformed rejections are *not* recorded (they carry no
    /// information about the controller's state).
    Stalled {
        /// Which structure was full.
        kind: StallKind,
        /// The address that stalled.
        addr: LineAddr,
        /// DSB rows live in the stalling bank (vs capacity `K`).
        storage_live: u32,
        /// BAQ depth in the stalling bank (vs capacity `Q`).
        queue_depth: u32,
        /// Write-buffer depth in the stalling bank.
        write_depth: u32,
    },
}

impl fmt::Display for ForensicEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {:>8}  bank {:>3}  ", self.at.as_u64(), self.bank)?;
        match self.kind {
            ForensicKind::Accepted { addr, row, queue_depth } => {
                write!(f, "accept   read  {addr} -> row {row}, queue depth {queue_depth}")
            }
            ForensicKind::Merged { addr, row } => {
                write!(f, "merge    read  {addr} into in-flight row {row}")
            }
            ForensicKind::WriteAccepted { addr, queue_depth } => {
                write!(f, "accept   write {addr}, queue depth {queue_depth}")
            }
            ForensicKind::QueueExit { queue_depth } => {
                write!(f, "retire   access, queue depth {queue_depth}")
            }
            ForensicKind::Returned { addr, row, miss } => {
                if miss {
                    write!(f, "MISS     read  {addr} row {row}: data not ready at deadline")
                } else {
                    write!(f, "return   read  {addr} from row {row}")
                }
            }
            ForensicKind::FastForward { interface_cycles } => {
                write!(f, "skip     {interface_cycles} idle interface cycles (event-horizon)")
            }
            ForensicKind::Stalled { kind, addr, storage_live, queue_depth, write_depth } => {
                write!(
                    f,
                    "STALL    {kind}: {addr} (DSB rows live {storage_live}, queue depth \
                     {queue_depth}, write buffer {write_depth})"
                )
            }
        }
    }
}

/// Fixed-capacity ring of [`ForensicEvent`]s, oldest evicted first.
///
/// A zero `capacity` disables recording entirely: the controller then
/// never calls [`ForensicRing::record`].
#[derive(Debug, Clone)]
pub struct ForensicRing {
    buf: Vec<ForensicEvent>,
    capacity: usize,
    /// Index of the logically oldest event once the ring has wrapped.
    head: usize,
    /// Total events ever recorded (recorded − retained = dropped).
    recorded: u64,
}

impl ForensicRing {
    /// Creates a ring retaining the last `capacity` events (0 disables).
    pub fn new(capacity: usize) -> Self {
        ForensicRing { buf: Vec::with_capacity(capacity), capacity, head: 0, recorded: 0 }
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event, evicting the oldest when full (a no-op on a
    /// disabled ring).
    #[inline]
    pub fn record(&mut self, at: Cycle, bank: u32, kind: ForensicKind) {
        if self.capacity == 0 {
            return;
        }
        let ev = ForensicEvent { at, bank, kind };
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<ForensicEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Renders the causal window ending at the most recent stall: the
    /// stall line itself plus every retained event leading up to it.
    /// Returns `None` when no stall event is retained.
    pub fn stall_report(&self) -> Option<String> {
        let events = self.events();
        let stall_idx =
            events.iter().rposition(|e| matches!(e.kind, ForensicKind::Stalled { .. }))?;
        let stall = &events[stall_idx];
        let mut out = String::new();
        if let ForensicKind::Stalled { kind, storage_live, queue_depth, .. } = stall.kind {
            let structure = match kind {
                StallKind::DelayStorage => {
                    format!("exceeded DSB occupancy {storage_live}")
                }
                StallKind::AccessQueue => {
                    format!("exceeded bank access queue depth {queue_depth}")
                }
                StallKind::WriteBuffer => "exhausted its write buffer".to_string(),
                StallKind::Throttled => "deferred a tenant over budget".to_string(),
                StallKind::AddressRange | StallKind::OversizedWrite => {
                    "rejected a malformed request".to_string()
                }
            };
            out.push_str(&format!(
                "bank {} {structure} at cycle {}; last {} events leading up to it:\n",
                stall.bank,
                stall.at.as_u64(),
                stall_idx + 1,
            ));
        }
        for e in &events[..=stall_idx] {
            out.push_str(&format!("  {e}\n"));
        }
        if self.dropped() > 0 {
            out.push_str(&format!(
                "  ({} earlier events evicted from the {}-entry ring)\n",
                self.dropped(),
                self.capacity
            ));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accept(at: u64, bank: u32, addr: u64) -> (Cycle, u32, ForensicKind) {
        (
            Cycle::new(at),
            bank,
            ForensicKind::Accepted { addr: LineAddr(addr), row: 0, queue_depth: 1 },
        )
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = ForensicRing::new(0);
        assert!(!r.is_enabled());
        let (at, bank, kind) = accept(1, 0, 10);
        r.record(at, bank, kind);
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.stall_report(), None);
    }

    #[test]
    fn ring_keeps_newest_and_counts_dropped() {
        let mut r = ForensicRing::new(4);
        for i in 0..10u64 {
            let (at, bank, kind) = accept(i, 0, i);
            r.record(at, bank, kind);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let evs = r.events();
        let cycles: Vec<u64> = evs.iter().map(|e| e.at.as_u64()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "oldest first, newest retained");
    }

    #[test]
    fn stall_report_reconstructs_window() {
        let mut r = ForensicRing::new(8);
        for i in 0..3u64 {
            let (at, bank, kind) = accept(i, 3, i * 4);
            r.record(at, bank, kind);
        }
        r.record(
            Cycle::new(3),
            3,
            ForensicKind::Stalled {
                kind: StallKind::DelayStorage,
                addr: LineAddr(12),
                storage_live: 8,
                queue_depth: 1,
                write_depth: 0,
            },
        );
        let report = r.stall_report().expect("stall retained");
        assert!(report.contains("bank 3 exceeded DSB occupancy 8 at cycle 3"), "{report}");
        assert!(report.contains("last 4 events"), "{report}");
        assert!(report.contains("STALL"), "{report}");
        // Events after the stall are not part of the causal window.
        let (at, bank, kind) = accept(4, 1, 99);
        r.record(at, bank, kind);
        let report2 = r.stall_report().unwrap();
        assert!(!report2.contains("0x63"), "post-stall event must not appear: {report2}");
    }

    #[test]
    fn no_stall_no_report() {
        let mut r = ForensicRing::new(8);
        let (at, bank, kind) = accept(0, 0, 0);
        r.record(at, bank, kind);
        assert_eq!(r.stall_report(), None);
    }

    #[test]
    fn display_lines_are_informative() {
        let e = ForensicEvent {
            at: Cycle::new(7),
            bank: 2,
            kind: ForensicKind::Returned { addr: LineAddr(5), row: 9, miss: false },
        };
        let s = e.to_string();
        assert!(s.contains("cycle"), "{s}");
        assert!(s.contains("bank   2"), "{s}");
        assert!(s.contains("row 9"), "{s}");
        let m = ForensicEvent {
            at: Cycle::new(8),
            bank: 2,
            kind: ForensicKind::Returned { addr: LineAddr(5), row: 9, miss: true },
        };
        assert!(m.to_string().contains("MISS"));
    }
}
