//! Sparse backing storage for simulated DRAM cells.
//!
//! A 160 Gbps packet buffer needs 4 GB of DRAM (paper Section 5.4.1); the
//! simulator cannot allocate that eagerly, so cells are materialized on
//! first write. Reads of never-written cells return zeroes, matching the
//! "fresh DRAM" abstraction the rest of the stack assumes.
//!
//! Cells are stored as [`bytes::Bytes`]: a read hands back a refcounted
//! clone of the stored cell (or of a single shared zero cell), so the
//! steady-state read path performs no allocation or copying at all.
//! Padding to the cell size happens once, at write time.

use bytes::Bytes;
use vpnm_hash::fast::FastHashMap;

/// Sparse map from cell index to cell contents.
///
/// ```
/// use vpnm_dram::SparseStorage;
/// let mut s = SparseStorage::new(8);
/// assert_eq!(s.read(42), vec![0u8; 8]); // untouched cells read as zero
/// s.write(42, b"abc".to_vec());
/// assert_eq!(&s.read(42)[..3], b"abc");
/// assert_eq!(s.populated_cells(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseStorage {
    cells: FastHashMap<u64, Bytes>,
    cell_bytes: usize,
    /// One shared zero cell handed to every read of an unwritten index.
    zero: Bytes,
}

impl SparseStorage {
    /// Creates storage with `cell_bytes` bytes per cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell_bytes == 0`.
    pub fn new(cell_bytes: usize) -> Self {
        assert!(cell_bytes > 0, "cell_bytes must be positive");
        // Cells no larger than the static pool clone the zero cell without
        // touching a reference count — at line rate every read of
        // never-written memory hands out one of these, so keeping the
        // clone free of atomic traffic matters.
        static ZEROS: [u8; 4096] = [0u8; 4096];
        let zero = if cell_bytes <= ZEROS.len() {
            Bytes::from_static(&ZEROS[..cell_bytes])
        } else {
            Bytes::from(vec![0u8; cell_bytes])
        };
        SparseStorage { cells: FastHashMap::default(), cell_bytes, zero }
    }

    /// Bytes per cell.
    pub fn cell_bytes(&self) -> usize {
        self.cell_bytes
    }

    /// Reads cell `index`, zero-filled if never written. The returned
    /// handle shares the stored cell — no bytes are copied.
    #[inline]
    pub fn read(&self, index: u64) -> Bytes {
        // Fast path for never-written memory (read-heavy simulations):
        // skip the hash probe entirely while the map is empty.
        if self.cells.is_empty() {
            return self.zero.clone();
        }
        match self.cells.get(&index) {
            Some(data) => data.clone(),
            None => self.zero.clone(),
        }
    }

    /// Writes cell `index`. Short data is zero-padded to the cell size
    /// (the only copy on the write path).
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the cell size.
    pub fn write(&mut self, index: u64, data: impl Into<Bytes>) {
        let data = data.into();
        assert!(
            data.len() <= self.cell_bytes,
            "write of {} bytes exceeds cell size {}",
            data.len(),
            self.cell_bytes
        );
        let cell = if data.len() == self.cell_bytes {
            data
        } else {
            let mut padded = data.to_vec();
            padded.resize(self.cell_bytes, 0);
            Bytes::from(padded)
        };
        self.cells.insert(index, cell);
    }

    /// Number of cells that have been written at least once.
    pub fn populated_cells(&self) -> usize {
        self.cells.len()
    }

    /// Iterates over the indices of populated cells (arbitrary order).
    pub fn populated_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.keys().copied()
    }

    /// Removes a cell entirely (subsequent reads see zeroes). Returns its
    /// previous contents if it was populated.
    pub fn take(&mut self, index: u64) -> Option<Bytes> {
        self.cells.remove(&index)
    }

    /// [`SparseStorage::take`] that hands back what a read would have:
    /// the stored cell itself, or the shared zero cell if it was never
    /// written.
    #[inline]
    pub(crate) fn take_or_zero(&mut self, index: u64) -> Bytes {
        if self.cells.is_empty() {
            return self.zero.clone();
        }
        self.cells.remove(&index).unwrap_or_else(|| self.zero.clone())
    }

    /// Drops all contents.
    pub fn clear(&mut self) {
        self.cells.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let s = SparseStorage::new(4);
        assert_eq!(s.read(0), vec![0, 0, 0, 0]);
        assert_eq!(s.populated_cells(), 0);
    }

    #[test]
    fn write_pads_short_data() {
        let mut s = SparseStorage::new(4);
        s.write(1, vec![0xAA]);
        assert_eq!(s.read(1), vec![0xAA, 0, 0, 0]);
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = SparseStorage::new(2);
        s.write(5, vec![1, 2]);
        s.write(5, vec![3]);
        assert_eq!(s.read(5), vec![3, 0]);
        assert_eq!(s.populated_cells(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds cell size")]
    fn oversized_write_panics() {
        let mut s = SparseStorage::new(2);
        s.write(0, vec![1, 2, 3]);
    }

    #[test]
    fn clear_empties() {
        let mut s = SparseStorage::new(1);
        s.write(9, vec![7]);
        s.clear();
        assert_eq!(s.populated_cells(), 0);
        assert_eq!(s.read(9), vec![0]);
    }

    #[test]
    fn reads_share_storage_without_copying() {
        let mut s = SparseStorage::new(4);
        s.write(3, vec![1, 2, 3, 4]);
        let a = s.read(3);
        let b = s.read(3);
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr(), "same backing cell");
        // unwritten reads all share the one zero cell
        let z1 = s.read(100);
        let z2 = s.read(200);
        assert_eq!(z1.as_slice().as_ptr(), z2.as_slice().as_ptr(), "shared zero cell");
    }

    #[test]
    fn full_size_write_is_not_recopied() {
        let mut s = SparseStorage::new(4);
        let payload = Bytes::from(vec![9u8, 9, 9, 9]);
        let ptr = payload.as_slice().as_ptr();
        s.write(7, payload);
        assert_eq!(s.read(7).as_slice().as_ptr(), ptr, "stored without padding copy");
    }
}
