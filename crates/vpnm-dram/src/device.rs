//! The assembled DRAM device: banks + data bus + storage.

use crate::bank::Bank;
use crate::config::DramConfig;
use crate::stats::DramStats;
use crate::storage::SparseStorage;
use bytes::Bytes;
use std::fmt;
use vpnm_sim::Cycle;

/// Why a DRAM command is malformed: it names a bank or a cell the device
/// does not have. A busy bank is not an error — the issue doors answer it
/// with `Ok(None)` (see [`DramDevice::try_issue_read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramError {
    /// Bank index ≥ configured bank count.
    BadBank {
        /// Offending bank index.
        bank: u32,
        /// Configured number of banks.
        num_banks: u32,
    },
    /// Cell offset outside the bank.
    BadOffset {
        /// Offending cell offset.
        offset: u64,
        /// Cells per bank.
        cells_per_bank: u64,
    },
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::BadBank { bank, num_banks } => {
                write!(f, "bank index {bank} out of range (device has {num_banks} banks)")
            }
            DramError::BadOffset { offset, cells_per_bank } => {
                write!(f, "cell offset {offset} out of range (bank holds {cells_per_bank} cells)")
            }
        }
    }
}

impl std::error::Error for DramError {}

/// Result of an accepted read: the data and when it is available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadGrant {
    /// Cycle at which the data appears on the bus. The simulator hands the
    /// bytes over immediately; a well-behaved caller must not *act* on them
    /// before `data_ready_at`.
    pub data_ready_at: Cycle,
    /// The cell contents (refcounted handle into device storage).
    pub data: Bytes,
}

/// A banked DRAM device with a shared data bus.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct DramDevice {
    config: DramConfig,
    banks: Vec<Bank>,
    storage: SparseStorage,
    stats: DramStats,
    /// `log2(cells_per_row)` when the row width is a power of two, letting
    /// the per-access row mapping shift instead of divide.
    row_shift: Option<u32>,
    /// Cached `config.cells_per_bank()` — re-deriving it costs a multiply
    /// on every access's range check and cell-index computation.
    cells_per_bank: u64,
}

impl DramDevice {
    /// Creates a device from a validated config.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    pub fn new(config: DramConfig) -> Self {
        config.validate().expect("invalid DramConfig");
        let banks = (0..config.num_banks).map(|_| Bank::new()).collect();
        let storage = SparseStorage::new(config.cell_bytes);
        let row_shift =
            config.cells_per_row.is_power_of_two().then(|| config.cells_per_row.trailing_zeros());
        let cells_per_bank = config.cells_per_bank();
        DramDevice {
            config,
            banks,
            storage,
            stats: DramStats::default(),
            row_shift,
            cells_per_bank,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// True if `bank` can accept an access at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::BadBank`] for an out-of-range index.
    pub fn is_bank_ready(&self, bank: u32, now: Cycle) -> Result<bool, DramError> {
        let b = self.bank_ref(bank)?;
        Ok(!b.is_busy(now))
    }

    fn bank_ref(&self, bank: u32) -> Result<&Bank, DramError> {
        self.banks
            .get(bank as usize)
            .ok_or(DramError::BadBank { bank, num_banks: self.config.num_banks })
    }

    #[inline]
    fn check_offset(&self, offset: u64) -> Result<(), DramError> {
        let cells = self.cells_per_bank;
        if offset >= cells {
            Err(DramError::BadOffset { offset, cells_per_bank: cells })
        } else {
            Ok(())
        }
    }

    #[inline]
    fn cell_index(&self, bank: u32, offset: u64) -> u64 {
        u64::from(bank) * self.cells_per_bank + offset
    }

    #[inline]
    fn row_of(&self, offset: u64) -> u64 {
        match self.row_shift {
            Some(s) => offset >> s,
            None => offset / self.config.cells_per_row,
        }
    }

    /// The one place an access starts: the range checks, then the bank's
    /// busy test. A busy bank starts nothing and is counted as a
    /// conflict (`Ok(None)`); an accepted access books its row hit and
    /// its bus transfer and returns its completion cycle.
    #[inline]
    fn start_access(
        &mut self,
        bank: u32,
        offset: u64,
        now: Cycle,
    ) -> Result<Option<Cycle>, DramError> {
        self.check_offset(offset)?;
        let row = self.row_of(offset);
        let num_banks = self.config.num_banks;
        let timing = self.config.timing;
        let b = self.banks.get_mut(bank as usize).ok_or(DramError::BadBank { bank, num_banks })?;
        let Some((done, row_hit)) = b.start_access(&timing, row, now) else {
            self.stats.bank_conflicts += 1;
            return Ok(None);
        };
        self.stats.row_hits += u64::from(row_hit);
        self.stats.bus_busy_cycles += timing.transfer_cycles();
        self.stats.last_activity = Some(now);
        Ok(Some(done))
    }

    /// Shared body of the two read doors. `TAKE` moves the cell out of
    /// the store instead of sharing it.
    #[inline]
    fn read_access<const TAKE: bool>(
        &mut self,
        bank: u32,
        offset: u64,
        now: Cycle,
    ) -> Result<Option<ReadGrant>, DramError> {
        let Some(done) = self.start_access(bank, offset, now)? else {
            return Ok(None);
        };
        self.stats.reads += 1;
        let idx = self.cell_index(bank, offset);
        let data = if TAKE { self.storage.take_or_zero(idx) } else { self.storage.read(idx) };
        Ok(Some(ReadGrant { data_ready_at: done, data }))
    }

    /// Issues a read of cell `offset` in `bank` at cycle `now`.
    ///
    /// Returns `Ok(None)` if the bank is still busy with an earlier
    /// access: nothing starts, and the attempt is counted in
    /// [`DramStats::bank_conflicts`]. Callers that schedule around busy
    /// banks test [`DramDevice::is_bank_ready`] first, so for them the
    /// count stays 0.
    ///
    /// # Errors
    ///
    /// [`DramError::BadBank`] or [`DramError::BadOffset`] for a cell the
    /// device does not have.
    #[inline]
    pub fn try_issue_read(
        &mut self,
        bank: u32,
        offset: u64,
        now: Cycle,
    ) -> Result<Option<ReadGrant>, DramError> {
        self.read_access::<false>(bank, offset, now)
    }

    /// [`DramDevice::try_issue_read`] as a *consuming* read: the granted
    /// cell is moved out of the store into the grant, in one store probe
    /// and with no reference-count traffic, and later reads see the zero
    /// cell. Equivalent to `try_issue_read` followed by
    /// [`DramDevice::take`] on a grant; a busy bank takes nothing.
    ///
    /// # Errors
    ///
    /// The same range errors as [`DramDevice::try_issue_read`].
    #[inline]
    pub fn try_issue_take(
        &mut self,
        bank: u32,
        offset: u64,
        now: Cycle,
    ) -> Result<Option<ReadGrant>, DramError> {
        self.read_access::<true>(bank, offset, now)
    }

    /// Issues a write of `data` into cell `offset` of `bank` at `now`,
    /// returning the completion cycle — or `Ok(None)`, a counted
    /// conflict, on a busy bank, exactly as [`DramDevice::try_issue_read`].
    ///
    /// # Errors
    ///
    /// The same range errors as [`DramDevice::try_issue_read`].
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the configured cell size.
    pub fn try_issue_write(
        &mut self,
        bank: u32,
        offset: u64,
        data: impl Into<Bytes>,
        now: Cycle,
    ) -> Result<Option<Cycle>, DramError> {
        let Some(done) = self.start_access(bank, offset, now)? else {
            return Ok(None);
        };
        self.stats.writes += 1;
        let idx = self.cell_index(bank, offset);
        self.storage.write(idx, data);
        Ok(Some(done))
    }

    /// Direct (zero-time) backdoor read for test oracles and debugging —
    /// does not touch bank state or stats.
    pub fn peek(&self, bank: u32, offset: u64) -> Bytes {
        self.storage.read(self.cell_index(bank, offset))
    }

    /// Direct (zero-time) backdoor write for preloading test contents.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the configured cell size.
    pub fn poke(&mut self, bank: u32, offset: u64, data: impl Into<Bytes>) {
        let idx = self.cell_index(bank, offset);
        self.storage.write(idx, data);
    }

    /// Lists every populated `(bank, offset)` cell, in arbitrary order —
    /// the walk a re-keying data migration performs.
    pub fn populated(&self) -> Vec<(u32, u64)> {
        let per_bank = self.config.cells_per_bank();
        self.storage
            .populated_indices()
            .map(|idx| ((idx / per_bank) as u32, idx % per_bank))
            .collect()
    }

    /// Zero-time removal of a cell: the re-keying migration's backdoor,
    /// and how the reference controller frees the cell of a granted
    /// consuming read ([`DramDevice::try_issue_take`] does both in one).
    /// Later reads see the zero cell. Returns the previous contents if the
    /// cell was populated.
    pub fn take(&mut self, bank: u32, offset: u64) -> Option<Bytes> {
        let idx = self.cell_index(bank, offset);
        self.storage.take(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingModel;

    fn tiny() -> DramDevice {
        DramDevice::new(DramConfig::tiny_test()) // 4 banks, L=3, 8B cells
    }

    /// A read of a bank the test knows is free.
    fn read(d: &mut DramDevice, bank: u32, offset: u64, now: Cycle) -> ReadGrant {
        d.try_issue_read(bank, offset, now).unwrap().expect("bank is free")
    }

    /// A write to a bank the test knows is free; returns its completion.
    fn write(d: &mut DramDevice, bank: u32, offset: u64, data: Vec<u8>, now: Cycle) -> Cycle {
        d.try_issue_write(bank, offset, data, now).unwrap().expect("bank is free")
    }

    #[test]
    fn read_after_write_roundtrips() {
        let mut d = tiny();
        let done = write(&mut d, 1, 3, vec![9, 9, 9], Cycle::new(0));
        assert_eq!(done, Cycle::new(3));
        let g = read(&mut d, 1, 3, done);
        assert_eq!(g.data, vec![9, 9, 9, 0, 0, 0, 0, 0]);
        assert_eq!(g.data_ready_at, Cycle::new(6));
    }

    #[test]
    fn conflict_on_same_bank_not_on_other() {
        let mut d = tiny();
        d.poke(0, 1, vec![5]);
        read(&mut d, 0, 0, Cycle::new(0));
        let before = d.stats().clone();
        // Every door finds bank 0 busy until cycle 3.
        for now in [1, 2] {
            assert_eq!(d.try_issue_read(0, 1, Cycle::new(now)), Ok(None));
            assert_eq!(d.try_issue_take(0, 1, Cycle::new(now)), Ok(None));
            assert_eq!(d.try_issue_write(0, 1, vec![7], Cycle::new(now)), Ok(None));
        }
        assert_eq!(d.stats().bank_conflicts, 6, "each busy attempt is one conflict");
        let unchanged = DramStats { bank_conflicts: 0, ..d.stats().clone() };
        assert_eq!(unchanged, before, "and nothing else moves");
        assert_eq!(d.peek(0, 1)[0], 5, "a busy write stores nothing, a busy take frees nothing");
        // A different bank at the same time is fine.
        read(&mut d, 1, 1, Cycle::new(1));
        // The bank frees at the completion cycle.
        assert!(d.try_issue_take(0, 1, Cycle::new(3)).unwrap().is_some());
        assert_eq!((d.stats().reads, d.stats().bank_conflicts), (3, 6));
    }

    #[test]
    fn range_validation() {
        let mut d = tiny();
        let bad_bank = DramError::BadBank { bank: 7, num_banks: 4 };
        let bad_offset = DramError::BadOffset { offset: 10_000, cells_per_bank: 64 };
        assert_eq!(d.try_issue_read(7, 0, Cycle::ZERO), Err(bad_bank));
        assert_eq!(d.try_issue_take(7, 0, Cycle::ZERO), Err(bad_bank));
        assert_eq!(d.try_issue_write(7, 0, vec![1], Cycle::ZERO), Err(bad_bank));
        assert_eq!(d.try_issue_read(0, 10_000, Cycle::ZERO), Err(bad_offset));
        assert_eq!(d.try_issue_take(0, 10_000, Cycle::ZERO), Err(bad_offset));
        assert_eq!(d.try_issue_write(0, 10_000, vec![1], Cycle::ZERO), Err(bad_offset));
        assert!(d.is_bank_ready(9, Cycle::ZERO).is_err());
        assert_eq!(d.stats(), &DramStats::default(), "a refused access is no access");
    }

    #[test]
    fn peek_poke_bypass_timing() {
        let mut d = tiny();
        d.poke(2, 5, vec![1, 2, 3]);
        assert_eq!(&d.peek(2, 5)[..3], &[1, 2, 3]);
        assert_eq!(d.stats().accesses(), 0);
    }

    #[test]
    fn take_after_a_read_frees_the_cell_but_not_the_grant() {
        let mut d = tiny();
        let done = write(&mut d, 2, 4, vec![5, 6], Cycle::ZERO);
        let g = read(&mut d, 2, 4, done);
        assert_eq!(d.take(2, 4).as_deref(), Some(&[5, 6, 0, 0, 0, 0, 0, 0][..]));
        assert_eq!(g.data, [5, 6, 0, 0, 0, 0, 0, 0], "the granted data outlives the cell");
        assert!(d.populated().is_empty());
        assert_eq!(d.take(2, 4), None);
        let g = read(&mut d, 2, 4, g.data_ready_at);
        assert_eq!(g.data, [0u8; 8], "a freed cell reads as zero");
        assert_eq!((d.stats().reads, d.stats().writes), (2, 1), "take is not an access");
        write(&mut d, 2, 4, vec![7], g.data_ready_at);
        assert_eq!(d.peek(2, 4)[0], 7, "a freed cell can be written again");
    }

    #[test]
    fn try_issue_take_is_a_read_then_a_take() {
        // Two devices fed the same accesses; `a` takes in one step, `b`
        // reads and then takes.
        let (mut a, mut b) = (tiny(), tiny());
        let cell = Bytes::from(vec![4u8; 8]);
        let stored = cell.as_slice().as_ptr();
        for d in [&mut a, &mut b] {
            d.try_issue_write(1, 2, cell.clone(), Cycle::ZERO).unwrap().expect("bank is free");
        }
        let now = Cycle::new(3);
        let took = a.try_issue_take(1, 2, now).unwrap().expect("bank 1 is free");
        let read = b.try_issue_read(1, 2, now).unwrap().expect("bank 1 is free");
        assert_eq!(b.take(1, 2).as_deref(), Some(&read.data[..]));
        assert_eq!(took, read, "the same data, ready at the same cycle");
        assert_eq!(took.data.as_slice().as_ptr(), stored, "the stored cell itself, moved out");
        assert_eq!(a.stats(), b.stats());
        assert!(a.populated().is_empty() && b.populated().is_empty());

        // A busy bank grants nothing and takes nothing.
        for d in [&mut a, &mut b] {
            d.poke(3, 0, vec![7]);
            d.try_issue_read(3, 1, now).unwrap().expect("bank 3 is free");
        }
        assert_eq!(a.try_issue_take(3, 0, now), Ok(None));
        assert_eq!(b.try_issue_read(3, 0, now), Ok(None));
        assert_eq!(a.peek(3, 0)[0], 7, "the cell stays stored");
        assert_eq!(a.stats(), b.stats());

        // A never-written cell reads back as the zero cell.
        let later = Cycle::new(9);
        let took = a.try_issue_take(0, 5, later).unwrap().unwrap();
        let read = b.try_issue_read(0, 5, later).unwrap().unwrap();
        assert_eq!(b.take(0, 5), None);
        assert_eq!(took, read);
        assert_eq!(took.data, [0u8; 8]);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.populated(), b.populated());
    }

    #[test]
    fn distinct_banks_have_distinct_cells() {
        let mut d = tiny();
        d.poke(0, 5, vec![1]);
        d.poke(1, 5, vec![2]);
        assert_eq!(d.peek(0, 5)[0], 1);
        assert_eq!(d.peek(1, 5)[0], 2);
    }

    #[test]
    fn bus_efficiency_accumulates() {
        let mut d = tiny();
        let mut now = Cycle::ZERO;
        for i in 0..4u32 {
            now = write(&mut d, i, 0, vec![0], now);
        }
        // 4 transfers of 1 cycle each over 12 elapsed cycles
        assert!((d.stats().bus_efficiency(now) - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn open_page_stats_count_row_hits() {
        let cfg = DramConfig::tiny_test().with_timing(TimingModel::sdram_pc133());
        let mut d = DramDevice::new(cfg);
        let t1 = read(&mut d, 0, 0, Cycle::ZERO).data_ready_at;
        let t2 = read(&mut d, 0, 1, t1).data_ready_at; // same row (4 cells/row)
        assert_eq!(t2 - t1, 3, "CAS only");
        assert_eq!(d.stats().row_hits, 1);
        let t3 = read(&mut d, 0, 15, t2).data_ready_at; // row 3 — miss
        assert_eq!(t3 - t2, 9, "precharge + activate + CAS");
        assert_eq!(d.stats().row_hits, 1);
        write(&mut d, 0, 12, vec![1], t3); // row 3 again — a write hits too
        assert_eq!(d.stats().row_hits, 2);
    }

    #[test]
    fn error_messages_render() {
        let e = DramError::BadBank { bank: 7, num_banks: 4 };
        assert!(e.to_string().contains("bank index 7 out of range"));
        let e = DramError::BadOffset { offset: 9, cells_per_bank: 4 };
        assert!(e.to_string().contains("out of range"));
    }
}
