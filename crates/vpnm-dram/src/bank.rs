//! Per-bank busy/row-buffer state machine.

use crate::timing::TimingModel;
use vpnm_sim::Cycle;

/// The state of one DRAM bank.
///
/// A bank is *busy* from the cycle an access is issued until
/// `busy_until`; issuing during that window is a bank conflict and is
/// rejected (the caller must retry later — the VPNM bank access queue
/// exists precisely to absorb this).
///
/// ```
/// use vpnm_dram::Bank;
/// use vpnm_dram::timing::TimingModel;
/// use vpnm_sim::Cycle;
///
/// let mut bank = Bank::new();
/// let t = TimingModel::simple(10);
/// let done = bank.start_access(&t, 5, Cycle::new(0)).unwrap();
/// assert_eq!(done, Cycle::new(10));
/// assert!(bank.is_busy(Cycle::new(9)));
/// assert!(!bank.is_busy(Cycle::new(10)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bank {
    busy_until: Option<Cycle>,
    open_row: Option<u64>,
    accesses: u64,
    row_hits: u64,
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

    /// The cycle at which the bank becomes free, if it is busy.
    pub fn busy_until(&self) -> Option<Cycle> {
        self.busy_until
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Starts an access to `row` at `now`, returning the completion cycle.
    /// Reads and writes occupy a bank alike, as in the paper's model.
    ///
    /// # Errors
    ///
    /// Returns the cycle the bank frees up if it is still busy (a bank
    /// conflict).
    pub fn start_access(
        &mut self,
        timing: &TimingModel,
        row: u64,
        now: Cycle,
    ) -> Result<Cycle, Cycle> {
        if let Some(t) = self.busy_until {
            if now < t {
                return Err(t);
            }
        }
        let (cycles, hit) = timing.access_cycles(self.open_row, row);
        let done = now + cycles;
        self.busy_until = Some(done);
        self.open_row = Some(row);
        self.accesses += 1;
        if hit {
            self.row_hits += 1;
        }
        Ok(done)
    }

    /// Total accesses serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Row-buffer hits among the serviced accesses.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_occupies_bank_for_l_cycles() {
        let mut b = Bank::new();
        let t = TimingModel::simple(4);
        let done = b.start_access(&t, 0, Cycle::new(10)).unwrap();
        assert_eq!(done, Cycle::new(14));
        for c in 10..14 {
            assert!(b.is_busy(Cycle::new(c)));
        }
        assert!(!b.is_busy(Cycle::new(14)));
    }

    #[test]
    fn conflict_reports_free_time() {
        let mut b = Bank::new();
        let t = TimingModel::simple(5);
        b.start_access(&t, 1, Cycle::new(0)).unwrap();
        let err = b.start_access(&t, 2, Cycle::new(3)).unwrap_err();
        assert_eq!(err, Cycle::new(5));
        // after it frees, access succeeds
        assert!(b.start_access(&t, 2, Cycle::new(5)).is_ok());
        assert_eq!(b.accesses(), 2);
    }

    #[test]
    fn open_page_row_hits_tracked() {
        let mut b = Bank::new();
        let t = TimingModel::sdram_pc133();
        let d1 = b.start_access(&t, 7, Cycle::new(0)).unwrap();
        let d2 = b.start_access(&t, 7, d1).unwrap();
        assert_eq!(d2 - d1, 3); // CAS-only
        assert_eq!(b.row_hits(), 1);
        let d3 = b.start_access(&t, 9, d2).unwrap();
        assert_eq!(d3 - d2, 9); // precharge + activate + cas
        assert_eq!(b.row_hits(), 1);
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn fresh_bank_is_idle() {
        let b = Bank::new();
        assert!(!b.is_busy(Cycle::ZERO));
        assert_eq!(b.busy_until(), None);
        assert_eq!(b.open_row(), None);
    }
}
