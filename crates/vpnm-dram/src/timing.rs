//! Bank timing models.
//!
//! The paper's analysis abstracts all DRAM timing into a single parameter
//! `L`: "the ratio of bank access time to data transfer time … the number
//! of accesses that will have to be skipped before a bank conflict can be
//! resolved" (Section 3.1), with `L = 20` assumed throughout.
//! [`TimingModel`] is the one timing type: [`TimingModel::Simple`] is that
//! model, and [`TimingModel::OpenPage`] adds explicit `tRCD`/`tCAS`/`tRP`
//! components for experiments that care about row locality. A new model
//! is a new variant.

/// How long a bank access keeps the bank busy, as plain data (configs
/// carry it by value).
///
/// ```
/// use vpnm_dram::timing::TimingModel;
/// let t = TimingModel::simple(20);
/// assert_eq!(t.access_cycles(None, 7), (20, false));
/// assert_eq!(t.access_cycles(Some(7), 7), (20, false)); // no row-hit shortcut
/// assert_eq!(t.l_ratio(), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingModel {
    /// The paper's model: every access occupies its bank for exactly
    /// `access` cycles (the paper's `L`); one cycle per bus transfer.
    Simple {
        /// Busy cycles per access.
        access: u64,
    },
    /// An open-page model with distinct row-hit / row-miss / row-conflict
    /// latencies, as in SDRAM/DDR parts.
    OpenPage {
        /// Row-activate latency (precharged bank → row open).
        t_rcd: u64,
        /// Column access latency once the row is open.
        t_cas: u64,
        /// Precharge latency (close an open row).
        t_rp: u64,
        /// Bus cycles per transfer.
        burst: u64,
    },
}

impl TimingModel {
    /// The paper's fixed-`L` model.
    ///
    /// # Panics
    ///
    /// Panics if `l == 0`.
    pub fn simple(l: u64) -> Self {
        assert!(l > 0, "access latency must be positive");
        TimingModel::Simple { access: l }
    }

    /// PC133-class SDRAM: the part the paper cites as reaching only ~60%
    /// efficiency due to bank conflicts.
    pub fn sdram_pc133() -> Self {
        TimingModel::OpenPage { t_rcd: 3, t_cas: 3, t_rp: 3, burst: 1 }
    }

    /// Busy cycles for an access to `row`, given the currently open row
    /// (`None` = bank idle/precharged). Also returns whether this access
    /// was a row-buffer hit.
    pub fn access_cycles(&self, open_row: Option<u64>, row: u64) -> (u64, bool) {
        match *self {
            TimingModel::Simple { access } => (access, false),
            TimingModel::OpenPage { t_rcd, t_cas, t_rp, .. } => match open_row {
                Some(r) if r == row => (t_cas, true),
                Some(_) => (t_rp + t_rcd + t_cas, false),
                None => (t_rcd + t_cas, false),
            },
        }
    }

    /// Cycles the shared data bus is occupied per transfer.
    pub fn transfer_cycles(&self) -> u64 {
        match *self {
            TimingModel::Simple { .. } => 1,
            TimingModel::OpenPage { burst, .. } => burst,
        }
    }

    /// The paper's `L`: worst-case bank busy time over transfer time,
    /// rounded up — the transfers a conflict skips.
    pub fn l_ratio(&self) -> u64 {
        match *self {
            TimingModel::Simple { access } => access,
            // worst case: row conflict
            TimingModel::OpenPage { t_rcd, t_cas, t_rp, burst } => {
                (t_rp + t_rcd + t_cas).div_ceil(burst.max(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_timing_constant() {
        let t = TimingModel::simple(15);
        assert_eq!(t.access_cycles(None, 0), (15, false));
        assert_eq!(t.access_cycles(Some(5), 5), (15, false));
        assert_eq!(t.transfer_cycles(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn simple_timing_rejects_zero() {
        let _ = TimingModel::simple(0);
    }

    #[test]
    fn open_page_distinguishes_hit_miss_conflict() {
        let t = TimingModel::sdram_pc133();
        let (hit, was_hit) = t.access_cycles(Some(4), 4);
        let (miss, _) = t.access_cycles(None, 4);
        let (conflict, was_conf_hit) = t.access_cycles(Some(9), 4);
        assert!(was_hit);
        assert!(!was_conf_hit);
        assert!(hit < miss && miss < conflict);
        assert_eq!(hit, 3);
        assert_eq!(miss, 6);
        assert_eq!(conflict, 9);
    }

    #[test]
    fn l_ratio_is_worst_case() {
        assert_eq!(TimingModel::sdram_pc133().l_ratio(), 9);
        assert_eq!(TimingModel::simple(20).l_ratio(), 20);
        // A 9-cycle conflict at 2 bus cycles per transfer skips 5
        // transfers, not 4.
        let t = TimingModel::OpenPage { t_rcd: 3, t_cas: 3, t_rp: 3, burst: 2 };
        assert_eq!(t.transfer_cycles(), 2);
        assert_eq!(t.l_ratio(), 5);
    }
}
