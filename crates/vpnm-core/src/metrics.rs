//! Controller-level accounting: throughput, merges, stalls, occupancy.
//!
//! Two layers of instrumentation live here:
//!
//! 1. **Always-on aggregates** ([`ControllerMetrics`]): scalar counters,
//!    per-bank high-water marks, and log2-bucketed distributions. These are
//!    cheap enough (a handful of compares and adds per interface cycle) to
//!    keep enabled in every build, including benchmark runs.
//! 2. **Forensic event tracing** (see [`crate::forensics`]): a ring buffer
//!    of individual lifecycle events, gated by
//!    [`crate::VpnmConfig::forensics_capacity`].
//!
//! Both engines — the fast [`crate::VpnmController`] and the seed
//! [`crate::ReferenceController`] — maintain the same
//! [`ControllerMetrics`], and the differential suite asserts exact
//! equality, so every aggregate defined here is cross-checked between two
//! independent implementations.

use crate::request::StallKind;
use vpnm_sim::{Cycle, Histogram};

/// Counters and distributions accumulated by a running controller.
///
/// `first_stall_at` is the measured quantity behind the paper's Mean Time
/// to Stall experiments: run a workload, read off when (if ever) the first
/// stall happened.
///
/// Per-bank vectors are sized by [`ControllerMetrics::with_banks`]; the
/// plain [`ControllerMetrics::new`] constructor leaves them empty (useful
/// for unit tests that only exercise the scalar counters).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerMetrics {
    /// Reads accepted at the interface.
    pub reads_accepted: u64,
    /// Of those, reads merged into an in-flight row (redundant accesses,
    /// paper Section 3.4).
    pub reads_merged: u64,
    /// Writes accepted at the interface.
    pub writes_accepted: u64,
    /// Read responses delivered.
    pub responses: u64,
    /// Stall events by kind.
    pub delay_storage_stalls: u64,
    /// Bank access queue stalls.
    pub access_queue_stalls: u64,
    /// Write buffer stalls.
    pub write_buffer_stalls: u64,
    /// Malformed requests rejected (out-of-range address or oversized
    /// write payload). Rejections are not stalls: they do not count
    /// toward [`total_stalls`](Self::total_stalls) and do not set
    /// [`first_stall_at`](Self::first_stall_at), because they say nothing
    /// about the controller's capacity — only about the caller.
    pub malformed_rejections: u64,
    /// Interface cycle of the first stall, if any ever happened.
    pub first_stall_at: Option<Cycle>,
    /// Deadline misses: playbacks whose data had not arrived (must stay 0
    /// for a validated config; counted rather than panicking so that
    /// deliberately mis-configured experiments can observe it).
    pub deadline_misses: u64,
    /// Log2-bucketed histogram of per-interface-cycle bank-access-queue
    /// depth samples (max across banks; bucket 0 = depths 0..2, bucket
    /// `i` = `[2^i, 2^(i+1))`). The histogram's exact count/sum/min/max
    /// sidecar supersedes the floating-point Welford accumulator the seed
    /// carried: integer-exact aggregates admit an O(1) bulk update
    /// ([`sample_cycles`](Self::sample_cycles)) that stays bit-identical
    /// across engines and across batched vs per-tick driving, which
    /// order-dependent float accumulation cannot.
    pub queue_depth_hist: Histogram,
    /// Log2-bucketed histogram of per-interface-cycle total delay-storage
    /// occupancy samples.
    pub storage_occupancy_hist: Histogram,
    /// Per-bank high-water mark of bank access queue (BAQ) depth.
    pub bank_queue_hwm: Vec<u32>,
    /// Per-bank high-water mark of delay storage buffer (DSB) row
    /// occupancy, sampled at interface-cycle boundaries.
    pub bank_storage_hwm: Vec<u32>,
    /// Per-bank high-water mark of write buffer depth.
    pub bank_write_hwm: Vec<u32>,
    /// High-water mark of outstanding reads (accepted, response not yet
    /// delivered) — the peak load on the circular delay buffer (CDB).
    pub outstanding_hwm: u64,
}

impl ControllerMetrics {
    /// Creates zeroed metrics with empty per-bank vectors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed metrics with per-bank high-water-mark vectors sized
    /// for `banks` banks. Both engines construct metrics this way so that
    /// the differential suite can compare them with `==`.
    pub fn with_banks(banks: usize) -> Self {
        ControllerMetrics {
            bank_queue_hwm: vec![0; banks],
            bank_storage_hwm: vec![0; banks],
            bank_write_hwm: vec![0; banks],
            ..Self::default()
        }
    }

    /// Records a stall (or rejection) of the given kind at `now`.
    pub fn record_stall(&mut self, kind: StallKind, now: Cycle) {
        match kind {
            StallKind::DelayStorage => self.delay_storage_stalls += 1,
            StallKind::AccessQueue => self.access_queue_stalls += 1,
            StallKind::WriteBuffer => self.write_buffer_stalls += 1,
            // QoS deferrals are accounted in the fabric's per-tenant
            // ledger, never in a channel's counters — they happen at the
            // ingress, before the request reaches any channel.
            StallKind::Throttled => return,
            StallKind::AddressRange | StallKind::OversizedWrite => {
                self.malformed_rejections += 1;
                // Rejections never count as the first stall.
                return;
            }
        }
        if self.first_stall_at.is_none() {
            self.first_stall_at = Some(now);
        }
    }

    /// Records the per-interface-cycle depth/occupancy samples into the
    /// log2 histograms. Called exactly once per interface cycle by each
    /// engine with identical sample values, so the distributions stay
    /// comparable with `==`.
    #[inline]
    pub fn sample_cycle(&mut self, max_queue_depth: u64, storage_live: u64) {
        self.queue_depth_hist.record(max_queue_depth);
        self.storage_occupancy_hist.record(storage_live);
    }

    /// Records `n` interface cycles that all share the same sample values
    /// in O(1) — the event-horizon skip's accounting primitive. Exactly
    /// equivalent to `n` calls to [`sample_cycle`](Self::sample_cycle)
    /// (see [`Histogram::record_n`]).
    #[inline]
    pub fn sample_cycles(&mut self, max_queue_depth: u64, storage_live: u64, n: u64) {
        self.queue_depth_hist.record_n(max_queue_depth, n);
        self.storage_occupancy_hist.record_n(storage_live, n);
    }

    /// Raises the BAQ depth high-water mark for `bank` if `depth` exceeds
    /// it. No-op (and no panic) when per-bank vectors were not sized.
    #[inline]
    pub fn note_bank_queue_depth(&mut self, bank: usize, depth: u32) {
        if let Some(h) = self.bank_queue_hwm.get_mut(bank) {
            if depth > *h {
                *h = depth;
            }
        }
    }

    /// Raises the DSB occupancy high-water mark for `bank`.
    #[inline]
    pub fn note_bank_storage(&mut self, bank: usize, occupancy: u32) {
        if let Some(h) = self.bank_storage_hwm.get_mut(bank) {
            if occupancy > *h {
                *h = occupancy;
            }
        }
    }

    /// Raises the write-buffer depth high-water mark for `bank`.
    #[inline]
    pub fn note_bank_write_depth(&mut self, bank: usize, depth: u32) {
        if let Some(h) = self.bank_write_hwm.get_mut(bank) {
            if depth > *h {
                *h = depth;
            }
        }
    }

    /// Raises the outstanding-reads high-water mark.
    #[inline]
    pub fn note_outstanding(&mut self, outstanding: u64) {
        if outstanding > self.outstanding_hwm {
            self.outstanding_hwm = outstanding;
        }
    }

    /// Folds `other` into `self` — the fabric-level metrics merge.
    ///
    /// Scalar counters add, `first_stall_at` takes the earliest,
    /// histograms merge exactly ([`Histogram::merge`]), and the per-bank
    /// high-water-mark vectors *concatenate* in merge order, so a
    /// `C`-channel fabric reports `C x B` per-bank entries grouped by
    /// channel. `outstanding_hwm` adds, which makes the merged value an
    /// upper bound on the fabric-level peak (per-channel peaks need not
    /// coincide in time); it is exact for a single channel.
    ///
    /// Merging a freshly constructed `ControllerMetrics::new()` into
    /// anything (or vice versa) is the identity on every scalar, so a
    /// one-channel merge reproduces the input bit-for-bit (modulo the
    /// concatenated per-bank vectors, which are then identical anyway).
    pub fn merge_from(&mut self, other: &ControllerMetrics) {
        self.reads_accepted += other.reads_accepted;
        self.reads_merged += other.reads_merged;
        self.writes_accepted += other.writes_accepted;
        self.responses += other.responses;
        self.delay_storage_stalls += other.delay_storage_stalls;
        self.access_queue_stalls += other.access_queue_stalls;
        self.write_buffer_stalls += other.write_buffer_stalls;
        self.malformed_rejections += other.malformed_rejections;
        self.deadline_misses += other.deadline_misses;
        self.first_stall_at = match (self.first_stall_at, other.first_stall_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.queue_depth_hist.merge(&other.queue_depth_hist);
        self.storage_occupancy_hist.merge(&other.storage_occupancy_hist);
        self.bank_queue_hwm.extend_from_slice(&other.bank_queue_hwm);
        self.bank_storage_hwm.extend_from_slice(&other.bank_storage_hwm);
        self.bank_write_hwm.extend_from_slice(&other.bank_write_hwm);
        self.outstanding_hwm += other.outstanding_hwm;
    }

    /// Total stalls of all kinds.
    pub fn total_stalls(&self) -> u64 {
        self.delay_storage_stalls + self.access_queue_stalls + self.write_buffer_stalls
    }

    /// Total requests accepted.
    pub fn accepted(&self) -> u64 {
        self.reads_accepted + self.writes_accepted
    }

    /// Total requests offered at the interface: accepted + stalled +
    /// rejected.
    pub fn offered(&self) -> u64 {
        self.accepted() + self.total_stalls() + self.malformed_rejections
    }

    /// Fraction of accepted reads that were merged.
    pub fn merge_rate(&self) -> f64 {
        if self.reads_accepted == 0 {
            0.0
        } else {
            self.reads_merged as f64 / self.reads_accepted as f64
        }
    }

    /// Fraction of offered requests that stalled. `0.0` on an empty run.
    pub fn stall_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.total_stalls() as f64 / offered as f64
        }
    }

    /// Fraction of delivered responses that missed their deadline. `0.0`
    /// on an empty run; must stay `0.0` for any validated configuration.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.responses as f64
        }
    }

    /// Peak DSB load factor across banks: the largest per-bank storage
    /// high-water mark divided by the per-bank row capacity `k`. This is
    /// the "merge-CAM load factor" of the observability layer — how close
    /// any bank's CAM-indexed delay storage came to overflowing.
    ///
    /// Returns `0.0` when `k` is zero or per-bank vectors were not sized.
    pub fn peak_storage_load_factor(&self, k: usize) -> f64 {
        if k == 0 {
            return 0.0;
        }
        let peak = self.bank_storage_hwm.iter().copied().max().unwrap_or(0);
        peak as f64 / k as f64
    }

    /// Peak delay-ring (CDB) utilization: the outstanding-reads high-water
    /// mark divided by the ring capacity (the deterministic delay `D`).
    ///
    /// Returns `0.0` when `delay` is zero.
    pub fn delay_ring_utilization(&self, delay: u64) -> f64 {
        if delay == 0 {
            0.0
        } else {
            self.outstanding_hwm as f64 / delay as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_recording_tracks_first() {
        let mut m = ControllerMetrics::new();
        m.record_stall(StallKind::AccessQueue, Cycle::new(10));
        m.record_stall(StallKind::DelayStorage, Cycle::new(20));
        m.record_stall(StallKind::WriteBuffer, Cycle::new(30));
        assert_eq!(m.first_stall_at, Some(Cycle::new(10)));
        assert_eq!(m.total_stalls(), 3);
        assert_eq!(m.access_queue_stalls, 1);
        assert_eq!(m.delay_storage_stalls, 1);
        assert_eq!(m.write_buffer_stalls, 1);
    }

    #[test]
    fn rejections_do_not_count_as_stalls() {
        let mut m = ControllerMetrics::new();
        m.record_stall(StallKind::AddressRange, Cycle::new(5));
        m.record_stall(StallKind::OversizedWrite, Cycle::new(6));
        assert_eq!(m.malformed_rejections, 2);
        assert_eq!(m.total_stalls(), 0);
        assert_eq!(m.first_stall_at, None);
        // A real stall after a rejection still registers as the first.
        m.record_stall(StallKind::AccessQueue, Cycle::new(7));
        assert_eq!(m.first_stall_at, Some(Cycle::new(7)));
        assert_eq!(m.total_stalls(), 1);
    }

    #[test]
    fn merge_rate_math() {
        let mut m = ControllerMetrics::new();
        assert_eq!(m.merge_rate(), 0.0);
        m.reads_accepted = 10;
        m.reads_merged = 4;
        assert!((m.merge_rate() - 0.4).abs() < 1e-12);
        m.writes_accepted = 5;
        assert_eq!(m.accepted(), 15);
    }

    #[test]
    fn rates_are_zero_on_empty_run() {
        // Division-by-zero guards: a controller that never saw a request
        // must report clean zero rates, not NaN.
        let m = ControllerMetrics::new();
        assert_eq!(m.offered(), 0);
        assert_eq!(m.merge_rate(), 0.0);
        assert_eq!(m.stall_rate(), 0.0);
        assert_eq!(m.deadline_miss_rate(), 0.0);
        assert_eq!(m.peak_storage_load_factor(0), 0.0);
        assert_eq!(m.peak_storage_load_factor(16), 0.0);
        assert_eq!(m.delay_ring_utilization(0), 0.0);
        assert_eq!(m.delay_ring_utilization(1000), 0.0);
        assert!(m.merge_rate().is_finite());
        assert!(m.stall_rate().is_finite());
    }

    #[test]
    fn rates_stay_finite_on_saturated_long_runs() {
        // Saturation: counters near u64::MAX must not overflow into NaN or
        // infinity when converted to rates.
        let mut m = ControllerMetrics::new();
        m.reads_accepted = u64::MAX / 2;
        m.reads_merged = u64::MAX / 2;
        m.writes_accepted = u64::MAX / 4;
        m.access_queue_stalls = u64::MAX / 8;
        m.responses = u64::MAX / 2;
        m.deadline_misses = u64::MAX / 2;
        assert!(m.merge_rate().is_finite());
        assert!((m.merge_rate() - 1.0).abs() < 1e-9);
        assert!(m.stall_rate().is_finite());
        assert!(m.stall_rate() > 0.0 && m.stall_rate() < 1.0);
        assert!((m.deadline_miss_rate() - 1.0).abs() < 1e-9);
        m.outstanding_hwm = u64::MAX;
        assert!(m.delay_ring_utilization(1).is_finite());
    }

    #[test]
    fn stall_rate_counts_all_dispositions() {
        let mut m = ControllerMetrics::new();
        m.reads_accepted = 6;
        m.writes_accepted = 2;
        m.access_queue_stalls = 1;
        m.write_buffer_stalls = 1;
        m.malformed_rejections = 2;
        assert_eq!(m.offered(), 12);
        assert!((m.stall_rate() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn per_bank_hwms_track_maxima() {
        let mut m = ControllerMetrics::with_banks(4);
        m.note_bank_queue_depth(1, 3);
        m.note_bank_queue_depth(1, 2); // lower: ignored
        m.note_bank_storage(0, 7);
        m.note_bank_storage(0, 9);
        m.note_bank_write_depth(3, 1);
        assert_eq!(m.bank_queue_hwm, vec![0, 3, 0, 0]);
        assert_eq!(m.bank_storage_hwm, vec![9, 0, 0, 0]);
        assert_eq!(m.bank_write_hwm, vec![0, 0, 0, 1]);
        assert!((m.peak_storage_load_factor(16) - 9.0 / 16.0).abs() < 1e-12);
        // Out-of-range bank indices are ignored, not a panic.
        m.note_bank_queue_depth(99, 100);
        assert_eq!(m.bank_queue_hwm, vec![0, 3, 0, 0]);
        // Unsized vectors (plain `new`) are also safe.
        let mut empty = ControllerMetrics::new();
        empty.note_bank_storage(0, 5);
        assert_eq!(empty.peak_storage_load_factor(16), 0.0);
    }

    #[test]
    fn outstanding_hwm_and_ring_utilization() {
        let mut m = ControllerMetrics::new();
        m.note_outstanding(10);
        m.note_outstanding(4);
        m.note_outstanding(12);
        assert_eq!(m.outstanding_hwm, 12);
        assert!((m.delay_ring_utilization(48) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_from_identity_and_addition() {
        let mut a = ControllerMetrics::with_banks(2);
        a.reads_accepted = 10;
        a.reads_merged = 1;
        a.responses = 9;
        a.access_queue_stalls = 2;
        a.first_stall_at = Some(Cycle::new(30));
        a.sample_cycle(3, 12);
        a.note_bank_storage(1, 5);
        a.note_outstanding(4);

        // Folding into empty metrics reproduces the input exactly.
        let mut merged = ControllerMetrics::new();
        merged.merge_from(&a);
        assert_eq!(merged, a);

        let mut b = ControllerMetrics::with_banks(2);
        b.reads_accepted = 5;
        b.delay_storage_stalls = 1;
        b.first_stall_at = Some(Cycle::new(12));
        b.sample_cycle(1, 7);
        b.note_bank_queue_depth(0, 2);
        b.note_outstanding(3);
        merged.merge_from(&b);
        assert_eq!(merged.reads_accepted, 15);
        assert_eq!(merged.total_stalls(), 3);
        assert_eq!(merged.first_stall_at, Some(Cycle::new(12)), "earliest stall wins");
        assert_eq!(merged.queue_depth_hist.total(), 2);
        assert_eq!(merged.bank_storage_hwm, vec![0, 5, 0, 0], "per-bank vectors concatenate");
        assert_eq!(merged.bank_queue_hwm, vec![0, 0, 2, 0]);
        assert_eq!(merged.outstanding_hwm, 7, "summed upper bound");
        // first_stall_at survives merging with a stall-free side.
        let mut c = ControllerMetrics::new();
        c.merge_from(&b);
        assert_eq!(c.first_stall_at, Some(Cycle::new(12)));
    }

    #[test]
    fn sample_cycle_feeds_histograms() {
        let mut m = ControllerMetrics::new();
        m.sample_cycle(3, 100);
        m.sample_cycle(1, 50);
        assert_eq!(m.queue_depth_hist.total(), 2);
        assert_eq!(m.storage_occupancy_hist.total(), 2);
        assert_eq!(m.queue_depth_hist.max(), Some(3));
        assert_eq!(m.storage_occupancy_hist.max(), Some(100));
    }

    #[test]
    fn sample_cycles_bulk_equals_loop() {
        let mut bulk = ControllerMetrics::new();
        let mut looped = ControllerMetrics::new();
        bulk.sample_cycle(2, 9);
        looped.sample_cycle(2, 9);
        bulk.sample_cycles(0, 5, 100);
        for _ in 0..100 {
            looped.sample_cycle(0, 5);
        }
        assert_eq!(bulk, looped);
        // n = 0 is a no-op.
        bulk.sample_cycles(7, 7, 0);
        assert_eq!(bulk, looped);
    }
}
