//! Device-level statistics: conflicts, row hits, bus occupancy.

use vpnm_sim::Cycle;

/// Aggregated statistics of a [`crate::DramDevice`].
///
/// The paper motivates VPNM with measured DRAM efficiencies — "PC133 SDRAM
/// works at 60% efficiency and DDR266 SDRAM works at 37% efficiency, where
/// 80 to 85% of the lost efficiency is due to the bank conflicts" (Section
/// 3.1). [`DramStats::bus_efficiency`] reproduces that metric for our
/// simulated devices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Reads accepted.
    pub reads: u64,
    /// Writes accepted.
    pub writes: u64,
    /// Accesses rejected because the target bank was busy.
    pub bank_conflicts: u64,
    /// Row-buffer hits (always 0 under the simple timing model).
    pub row_hits: u64,
    /// Total cycles the data bus was occupied by transfers.
    pub bus_busy_cycles: u64,
    /// Last cycle at which any command was issued.
    pub last_activity: Option<Cycle>,
}

impl DramStats {
    /// Total accepted accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of elapsed cycles (up to `now`) during which the data bus
    /// was transferring — the efficiency metric of paper Section 3.1.
    ///
    /// Returns 0.0 before any cycles have elapsed.
    pub fn bus_efficiency(&self, now: Cycle) -> f64 {
        let elapsed = now.as_u64();
        if elapsed == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / elapsed as f64
        }
    }

    /// Folds another device's statistics into this one — used by the
    /// multi-channel fabric to report aggregate device behavior across
    /// per-channel DRAM instances. Counters add; `last_activity` keeps
    /// the latest cycle.
    pub fn merge_from(&mut self, other: &DramStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bank_conflicts += other.bank_conflicts;
        self.row_hits += other.row_hits;
        self.bus_busy_cycles += other.bus_busy_cycles;
        self.last_activity = match (self.last_activity, other.last_activity) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_and_bus_efficiency() {
        let s = DramStats {
            reads: 6,
            writes: 2,
            bank_conflicts: 2,
            row_hits: 0,
            bus_busy_cycles: 8,
            last_activity: Some(Cycle::new(16)),
        };
        assert_eq!(s.accesses(), 8);
        assert!((s.bus_efficiency(Cycle::new(16)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters_and_keeps_latest_activity() {
        let mut a = DramStats {
            reads: 3,
            writes: 1,
            bank_conflicts: 2,
            row_hits: 0,
            bus_busy_cycles: 4,
            last_activity: Some(Cycle::new(10)),
        };
        let b = DramStats {
            reads: 5,
            writes: 0,
            bank_conflicts: 1,
            row_hits: 2,
            bus_busy_cycles: 6,
            last_activity: Some(Cycle::new(7)),
        };
        a.merge_from(&b);
        assert_eq!(a.reads, 8);
        assert_eq!(a.accesses(), 9);
        assert_eq!(a.bank_conflicts, 3);
        assert_eq!(a.row_hits, 2);
        assert_eq!(a.bus_busy_cycles, 10);
        assert_eq!(a.last_activity, Some(Cycle::new(10)));
        let mut empty = DramStats::default();
        empty.merge_from(&a);
        assert_eq!(empty, a, "merging into fresh stats is a copy");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DramStats::default();
        assert_eq!(s.bus_efficiency(Cycle::ZERO), 0.0);
    }
}
