//! Per-bank busy/row-buffer state machine.

use crate::timing::TimingModel;
use vpnm_sim::Cycle;

/// The state of one DRAM bank.
///
/// A bank is *busy* from the cycle an access is issued until
/// `busy_until`; issuing during that window is a bank conflict and
/// starts nothing (the caller must retry later — the VPNM bank access
/// queue exists precisely to absorb this).
///
/// ```
/// use vpnm_dram::Bank;
/// use vpnm_dram::timing::TimingModel;
/// use vpnm_sim::Cycle;
///
/// let mut bank = Bank::new();
/// let t = TimingModel::simple(10);
/// let (done, row_hit) = bank.start_access(&t, 5, Cycle::new(0)).unwrap();
/// assert_eq!((done, row_hit), (Cycle::new(10), false));
/// assert!(bank.is_busy(Cycle::new(9)));
/// assert!(!bank.is_busy(Cycle::new(10)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bank {
    busy_until: Option<Cycle>,
    open_row: Option<u64>,
}

impl Bank {
    /// A fresh, idle, precharged bank.
    pub fn new() -> Self {
        Bank::default()
    }

    /// True if the bank cannot accept an access at `now`.
    pub fn is_busy(&self, now: Cycle) -> bool {
        self.busy_until.is_some_and(|t| now < t)
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Starts an access to `row` at `now`, returning the completion cycle
    /// and whether the access hit the open row, or `None` if the bank is
    /// still busy (a bank conflict). Reads and writes occupy a bank
    /// alike, as in the paper's model.
    pub fn start_access(
        &mut self,
        timing: &TimingModel,
        row: u64,
        now: Cycle,
    ) -> Option<(Cycle, bool)> {
        if self.is_busy(now) {
            return None;
        }
        let (cycles, hit) = timing.access_cycles(self.open_row, row);
        let done = now + cycles;
        self.busy_until = Some(done);
        self.open_row = Some(row);
        Some((done, hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_occupies_bank_for_l_cycles() {
        let mut b = Bank::new();
        let t = TimingModel::simple(4);
        let (done, _) = b.start_access(&t, 0, Cycle::new(10)).unwrap();
        assert_eq!(done, Cycle::new(14));
        for c in 10..14 {
            assert!(b.is_busy(Cycle::new(c)));
        }
        assert!(!b.is_busy(Cycle::new(14)));
    }

    #[test]
    fn conflict_starts_nothing_until_the_bank_frees() {
        let mut b = Bank::new();
        let t = TimingModel::simple(5);
        b.start_access(&t, 1, Cycle::new(0)).unwrap();
        assert_eq!(b.start_access(&t, 2, Cycle::new(3)), None);
        assert_eq!(b.open_row(), Some(1), "a conflict leaves the bank as it was");
        // after it frees, access succeeds
        assert_eq!(b.start_access(&t, 2, Cycle::new(5)), Some((Cycle::new(10), false)));
    }

    #[test]
    fn open_page_row_hits_tracked() {
        let mut b = Bank::new();
        let t = TimingModel::sdram_pc133();
        let (d1, hit) = b.start_access(&t, 7, Cycle::new(0)).unwrap();
        assert!(!hit, "a precharged bank has no open row");
        let (d2, hit) = b.start_access(&t, 7, d1).unwrap();
        assert_eq!((d2 - d1, hit), (3, true)); // CAS-only
        let (d3, hit) = b.start_access(&t, 9, d2).unwrap();
        assert_eq!((d3 - d2, hit), (9, false)); // precharge + activate + cas
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn fresh_bank_is_idle() {
        let b = Bank::new();
        assert!(!b.is_busy(Cycle::ZERO));
        assert_eq!(b.open_row(), None);
    }
}
