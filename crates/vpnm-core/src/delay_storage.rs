//! The delay storage buffer — the merging queue at the heart of each bank
//! controller (paper Figure 3, left).
//!
//! The buffer holds `K` rows. Each row stores the address of a pending /
//! accessing / waiting request, a redundant-request counter, and (once the
//! bank access completes) the data words. A row is allocated on the first
//! read of an address, *merged into* by redundant reads of the same address
//! (paper Section 3.4: the patterns "A,A,A,…" and "A,B,A,B,…" must not
//! consume extra rows), and freed when its counter drains to zero after the
//! last playback.
//!
//! The address CAM match is gated by a valid flag: an incoming **write** to
//! a matching address clears the flag (the row's data is now stale for new
//! readers) but the row keeps serving the reads that merged before the
//! write, exactly as the paper describes in Section 4.2.
//!
//! # Performance
//!
//! In hardware the CAM search and the "first zero circuit" (free-row scan)
//! are single-cycle combinational logic; the original software model made
//! them O(K) linear scans on every read. This implementation keeps the
//! *semantics* of those scans — lookup returns the **lowest-index** valid
//! live row for an address, allocate claims the **lowest-index** free row —
//! but answers them from an address→row hash index and a free-row bitset,
//! so the per-read cost is O(1) amortized (O(K/64) for allocate). The
//! lowest-index tie-break only matters when several valid rows share an
//! address, which cannot happen while merging is enabled but does happen
//! in merging-off ablations; that rare removal path falls back to an O(K)
//! rescan so behaviour stays bit-identical to the linear model.

use crate::request::LineAddr;
use bytes::Bytes;

/// Index of a row in the delay storage buffer (the id stored in the bank
/// access queue and the circular delay buffer, `log2 K` bits in hardware).
pub type RowId = u32;

/// Result of one playback: the served address and, if the bank access
/// completed in time, the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Playback {
    /// The address this playback serves.
    pub addr: LineAddr,
    /// The data, or `None` on a deadline miss. Cloned by refcount from the
    /// row, not copied.
    pub data: Option<Bytes>,
}

/// Line-aligned so every (randomly indexed) row touch on the hot path —
/// allocate, fill, playback — costs exactly one cache line.
#[derive(Debug, Clone, Default)]
#[repr(align(64))]
struct Row {
    /// Address held by this row, when the row is live.
    addr: LineAddr,
    /// Address-valid flag: participates in CAM matching. Cleared by a
    /// matching write while the row drains.
    addr_valid: bool,
    /// Outstanding playbacks against this row (the paper's `C`-bit
    /// counter).
    counter: u32,
    /// CAM slot the row's address was last indexed under — lets the
    /// unlink on the playback path skip the probe. May go stale when a
    /// backward-shift deletion moves the slot, so consumers must validate
    /// (slot used and address matches) before trusting it.
    cam_slot: u32,
    /// Data words, present once the bank read completed.
    data: Option<Bytes>,
}

impl Row {
    fn is_free(&self) -> bool {
        self.counter == 0
    }
}

/// Hash-index entry: the lowest-index valid live row holding an address,
/// plus how many valid live rows hold it (more than one only with merging
/// disabled).
#[derive(Debug, Clone, Copy)]
struct CamEntry {
    row: RowId,
    valid_rows: u16,
    /// Probe distance from the address's home slot — lets the
    /// backward-shift deletion decide slot movability without re-hashing
    /// every scanned address. Bounded by the live entry count (≤ `K`), so
    /// `u16` holds it for any accepted `K`.
    dist: u16,
}

// Full-avalanche integer hash for the CAM index: the workspace's one
// canonical SplitMix64 (bit-identical to the private copy it replaces).
use vpnm_hash::fast::splitmix64 as mix64;

/// One CAM table slot, packed to 16 bytes (4 per cache line). A slot is
/// unused iff `entry.valid_rows == 0` — every live entry counts at least
/// one valid row, so no separate flag is needed and the table stays half
/// the size it would be with one.
#[derive(Debug, Clone, Copy)]
struct CamSlot {
    addr: LineAddr,
    entry: CamEntry,
}

impl CamSlot {
    #[inline]
    fn used(&self) -> bool {
        self.entry.valid_rows != 0
    }
}

/// The address→row CAM index: an open-addressed table with linear probing
/// and backward-shift deletion. At most `K` distinct addresses are ever
/// live at once (each needs at least one row), so sizing the table to the
/// next power of two ≥ `2K` bounds the load factor at ½ and keeps probe
/// chains to a couple of cache hits — measurably cheaper per request than
/// a general-purpose `HashMap` on this three-ops-per-request path.
#[derive(Debug, Clone)]
struct CamIndex {
    slots: Vec<CamSlot>,
    mask: usize,
}

impl CamIndex {
    fn new(k: usize) -> Self {
        assert!(k <= usize::from(u16::MAX), "CAM sized for at most {} rows", u16::MAX);
        let cap = (2 * k).next_power_of_two().max(8);
        let empty =
            CamSlot { addr: LineAddr(0), entry: CamEntry { row: 0, valid_rows: 0, dist: 0 } };
        CamIndex { slots: vec![empty; cap], mask: cap - 1 }
    }

    #[inline]
    fn home(&self, addr: LineAddr) -> usize {
        mix64(addr.0) as usize & self.mask
    }

    /// Unchecked slot access for mask-reduced indices — the probe loops
    /// run once per accepted request, and `i & mask` can never reach
    /// `slots.len()`, so the bounds check is pure overhead there.
    #[inline]
    fn slot(&self, i: usize) -> &CamSlot {
        debug_assert!(i < self.slots.len());
        // SAFETY: every caller derives `i` via `& self.mask`, and
        // `slots.len() == mask + 1` by construction (power of two).
        unsafe { self.slots.get_unchecked(i) }
    }

    /// Probes `addr`'s chain: `Ok(slot)` when present, `Err((slot, dist))`
    /// with the unused slot terminating the chain (and its probe distance
    /// from home) when absent — exactly where [`CamIndex::note_alloc`]
    /// would insert, letting the read hot path reuse one probe for both
    /// the search and the insert.
    #[inline]
    fn probe(&self, addr: LineAddr) -> Result<usize, (usize, u16)> {
        let mut i = self.home(addr);
        let mut dist = 0u16;
        loop {
            let s = self.slot(i);
            if !s.used() {
                return Err((i, dist));
            }
            if s.addr == addr {
                return Ok(i);
            }
            i = (i + 1) & self.mask;
            dist += 1;
        }
    }

    /// Slot index holding `addr`, if present.
    #[inline]
    fn find(&self, addr: LineAddr) -> Option<usize> {
        self.probe(addr).ok()
    }

    #[inline]
    fn get(&self, addr: LineAddr) -> Option<CamEntry> {
        self.find(addr).map(|i| self.slots[i].entry)
    }

    /// Registers a newly allocated valid row: bumps the duplicate count
    /// (keeping the lowest row index) or inserts a fresh entry. The ½ load
    /// bound guarantees a free slot exists. Returns the slot used, for the
    /// row's `cam_slot` hint.
    fn note_alloc(&mut self, addr: LineAddr, row: RowId) -> usize {
        let mut i = self.home(addr);
        let mut dist = 0u16;
        loop {
            let s = &mut self.slots[i];
            if !s.used() {
                *s = CamSlot { addr, entry: CamEntry { row, valid_rows: 1, dist } };
                return i;
            }
            if s.addr == addr {
                s.entry.row = s.entry.row.min(row);
                s.entry.valid_rows += 1;
                return i;
            }
            i = (i + 1) & self.mask;
            dist += 1;
        }
    }

    /// Empties slot `i`, back-shifting displaced successors so probe
    /// chains stay unbroken (no tombstones). Movability comes from each
    /// slot's stored probe distance — no re-hash of scanned addresses.
    fn remove_at(&mut self, mut i: usize) {
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let s = *self.slot(j);
            if !s.used() {
                break;
            }
            // `j`'s element may fill the hole at `i` iff its home precedes
            // or equals `i` in cyclic probe order, i.e. its probe distance
            // reaches back to the hole.
            let off = j.wrapping_sub(i) & self.mask;
            if usize::from(s.entry.dist) >= off {
                self.slots[i] = s;
                self.slots[i].entry.dist = s.entry.dist - off as u16;
                i = j;
            }
        }
        self.slots[i].entry.valid_rows = 0;
    }
}

/// An opaque CAM insert position returned by a
/// [`DelayStorageBuffer::lookup_hinted`] miss, consumable by
/// [`DelayStorageBuffer::allocate_hinted`]. Invalidated by any other CAM
/// mutation in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CamHint(usize, u16);

/// The paper's **delay storage buffer (DSB)**: the `K`-row merging CAM of
/// one bank controller (Figure 3, left). Overflow is the *delay storage
/// stall* of Section 4.3 — the rarest of the three stall classes at paper
/// sizing.
///
/// ```
/// use vpnm_core::delay_storage::DelayStorageBuffer;
/// use vpnm_core::request::LineAddr;
///
/// let mut dsb = DelayStorageBuffer::new(2);
/// let row = dsb.allocate(LineAddr(7)).expect("free row");
/// assert_eq!(dsb.lookup(LineAddr(7)), Some(row));
/// dsb.merge(row);                        // a redundant request
/// dsb.fill(row, vec![1, 2, 3]);          // bank access completes
/// assert_eq!(dsb.playback(row).data.as_deref(), Some(&[1, 2, 3][..]));
/// assert_eq!(dsb.playback(row).data.as_deref(), Some(&[1, 2, 3][..]));
/// assert_eq!(dsb.live_rows(), 0);        // counter drained, row freed
/// ```
#[derive(Debug, Clone)]
pub struct DelayStorageBuffer {
    rows: Vec<Row>,
    live: usize,
    /// CAM index: address → lowest valid live row (+ duplicate count).
    cam: CamIndex,
    /// Free-row bitset ("first zero circuit"); bit set = row free.
    free: Vec<u64>,
}

impl DelayStorageBuffer {
    /// Creates a buffer with `k` rows.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "delay storage buffer needs at least one row");
        let mut free = vec![0u64; k.div_ceil(64)];
        for (i, word) in free.iter_mut().enumerate() {
            let bits = (k - i * 64).min(64);
            *word = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        }
        DelayStorageBuffer { rows: vec![Row::default(); k], live: 0, cam: CamIndex::new(k), free }
    }

    /// Capacity `K`.
    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// Rows currently allocated (counter > 0).
    pub fn live_rows(&self) -> usize {
        self.live
    }

    /// CAM search: the row currently holding `addr` with a set valid flag
    /// (the lowest-index one, matching the hardware priority encoder).
    pub fn lookup(&self, addr: LineAddr) -> Option<RowId> {
        self.cam.get(addr).map(|e| e.row)
    }

    /// Warms a row ahead of its playback deadline with a hardware
    /// prefetch ([`crate::prefetch::prefetch_read`], shared with the
    /// serving layer's batched flow-table probes) — by playback time the
    /// row was last touched a full bank access ago and has long left the
    /// cache. Semantically a no-op.
    #[inline]
    pub fn prefetch_row(&self, row: RowId) {
        crate::prefetch::prefetch_read(&raw const self.rows[row as usize]);
    }

    /// CAM search that, on a miss, hands back the insert position as a
    /// [`CamHint`] so a subsequent [`DelayStorageBuffer::allocate_hinted`]
    /// can skip re-probing. Exactly [`DelayStorageBuffer::lookup`]
    /// otherwise.
    #[inline]
    pub fn lookup_hinted(&self, addr: LineAddr) -> Result<RowId, CamHint> {
        match self.cam.probe(addr) {
            Ok(i) => Ok(self.cam.slots[i].entry.row),
            Err((i, dist)) => Err(CamHint(i, dist)),
        }
    }

    /// [`DelayStorageBuffer::allocate`] with the CAM insert slot already
    /// known from a [`DelayStorageBuffer::lookup_hinted`] miss. The hint
    /// is only valid while no CAM mutation happened in between (the
    /// submit path calls the two back to back).
    #[inline]
    pub fn allocate_hinted(&mut self, addr: LineAddr, hint: CamHint) -> Option<RowId> {
        debug_assert!(!self.cam.slots[hint.0].used(), "stale CAM hint");
        debug_assert!(self.cam.probe(addr) == Err((hint.0, hint.1)), "hint for wrong address");
        let idx = self.first_free()?;
        self.free[idx as usize / 64] &= !(1u64 << (idx as usize % 64));
        let row = &mut self.rows[idx as usize];
        row.addr = addr;
        row.addr_valid = true;
        row.counter = 1;
        row.cam_slot = hint.0 as u32;
        row.data = None;
        self.live += 1;
        self.cam.slots[hint.0] =
            CamSlot { addr, entry: CamEntry { row: idx, valid_rows: 1, dist: hint.1 } };
        Some(idx)
    }

    /// Allocates a free row for `addr` with counter 1 (the "first zero
    /// circuit" of the paper). Returns `None` when every row is live —
    /// the *delay storage buffer stall* condition.
    pub fn allocate(&mut self, addr: LineAddr) -> Option<RowId> {
        let idx = self.first_free()?;
        self.free[idx as usize / 64] &= !(1u64 << (idx as usize % 64));
        let row = &mut self.rows[idx as usize];
        row.addr = addr;
        row.addr_valid = true;
        row.counter = 1;
        row.data = None;
        self.live += 1;
        let slot = self.cam.note_alloc(addr, idx);
        self.rows[idx as usize].cam_slot = slot as u32;
        Some(idx)
    }

    fn first_free(&self) -> Option<RowId> {
        for (i, &word) in self.free.iter().enumerate() {
            if word != 0 {
                return Some((i * 64) as RowId + word.trailing_zeros());
            }
        }
        None
    }

    /// Unlinks a (still or formerly) valid row from the CAM index,
    /// promoting the next-lowest duplicate if one exists. Only the
    /// duplicate case (merging disabled) pays the O(K) rescan.
    #[inline]
    fn cam_remove(&mut self, addr: LineAddr, row: RowId) {
        // Open addressing keeps one slot per address, so a used slot whose
        // address matches IS the entry — the row's cached slot then saves
        // the probe. A backward shift may have moved the entry since the
        // hint was written; only that stale case re-probes.
        let hint = self.rows[row as usize].cam_slot as usize;
        let hinted = self.cam.slots[hint];
        let i = if hinted.used() && hinted.addr == addr {
            hint
        } else {
            self.cam.find(addr).expect("CAM entry for valid row")
        };
        let entry = &mut self.cam.slots[i].entry;
        entry.valid_rows -= 1;
        if entry.valid_rows == 0 {
            self.cam.remove_at(i);
        } else if entry.row == row {
            let next = self
                .rows
                .iter()
                .position(|r| !r.is_free() && r.addr_valid && r.addr == addr)
                .expect("duplicate valid row promised by CAM count");
            self.cam.slots[i].entry.row = next as RowId;
        }
    }

    /// Registers a redundant request against a live row (counter += 1).
    ///
    /// # Panics
    ///
    /// Panics if the row is free — merging into a free row is a controller
    /// bug.
    pub fn merge(&mut self, row: RowId) {
        let r = &mut self.rows[row as usize];
        assert!(!r.is_free(), "merge into free row {row}");
        r.counter += 1;
    }

    /// The address a live row is serving (used when issuing the bank
    /// read).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the row is free.
    #[inline]
    pub fn row_addr(&self, row: RowId) -> LineAddr {
        let r = &self.rows[row as usize];
        debug_assert!(!r.is_free(), "address of free row {row}");
        r.addr
    }

    /// Stores the data returned by the bank access.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the row is free.
    #[inline]
    pub fn fill(&mut self, row: RowId, data: impl Into<Bytes>) {
        let r = &mut self.rows[row as usize];
        debug_assert!(!r.is_free(), "fill of free row {row}");
        r.data = Some(data.into());
    }

    /// True once [`DelayStorageBuffer::fill`] has run for this row.
    pub fn is_filled(&self, row: RowId) -> bool {
        self.rows[row as usize].data.is_some()
    }

    /// Plays one response back from a row at its deadline, decrementing
    /// the counter and freeing the row when it drains.
    ///
    /// The returned [`Playback`] carries the row's address and its data;
    /// `data` is `None` only if the bank access has not completed — a
    /// deadline violation indicating a mis-configured `D`, which the
    /// controller records as a deadline miss. The counter is consumed
    /// either way so rows cannot leak.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the row is free.
    #[inline]
    pub fn playback(&mut self, row: RowId) -> Playback {
        let r = &mut self.rows[row as usize];
        debug_assert!(!r.is_free(), "playback of free row {row}");
        let addr = r.addr;
        r.counter -= 1;
        // The last playback moves the data out instead of cloning it —
        // the common (unmerged) case then costs no refcount round-trip.
        let data = if r.counter == 0 { r.data.take() } else { r.data.clone() };
        if r.counter == 0 {
            let was_valid = r.addr_valid;
            r.addr_valid = false;
            self.live -= 1;
            self.free[row as usize / 64] |= 1u64 << (row as usize % 64);
            if was_valid {
                self.cam_remove(addr, row);
            }
        }
        Playback { addr, data }
    }

    /// Write-match invalidation: clears the valid flag of the row holding
    /// `addr` (if any) so future reads re-fetch from the bank, while the
    /// row keeps serving already-merged reads. Returns whether a row
    /// matched.
    pub fn invalidate(&mut self, addr: LineAddr) -> bool {
        match self.cam.get(addr) {
            Some(entry) => {
                let row = entry.row;
                self.rows[row as usize].addr_valid = false;
                self.cam_remove(addr, row);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full_then_stall() {
        let mut dsb = DelayStorageBuffer::new(3);
        for i in 0..3u64 {
            assert!(dsb.allocate(LineAddr(i)).is_some());
        }
        assert_eq!(dsb.live_rows(), 3);
        assert_eq!(dsb.allocate(LineAddr(99)), None, "K exhausted must stall");
    }

    #[test]
    fn freed_rows_are_reusable() {
        let mut dsb = DelayStorageBuffer::new(1);
        let r = dsb.allocate(LineAddr(1)).unwrap();
        dsb.fill(r, vec![7]);
        assert_eq!(dsb.playback(r).data.as_deref(), Some(&[7u8][..]));
        assert_eq!(dsb.live_rows(), 0);
        assert!(dsb.allocate(LineAddr(2)).is_some());
    }

    #[test]
    fn lookup_only_matches_valid_live_rows() {
        let mut dsb = DelayStorageBuffer::new(2);
        assert_eq!(dsb.lookup(LineAddr(4)), None);
        let r = dsb.allocate(LineAddr(4)).unwrap();
        assert_eq!(dsb.lookup(LineAddr(4)), Some(r));
        dsb.invalidate(LineAddr(4));
        assert_eq!(dsb.lookup(LineAddr(4)), None, "invalidated row must not match");
        // but the row still serves its pending playback
        dsb.fill(r, vec![1]);
        let pb = dsb.playback(r);
        assert_eq!(pb.data.as_deref(), Some(&[1u8][..]));
        assert_eq!(pb.addr, LineAddr(4));
    }

    #[test]
    fn merge_extends_row_lifetime() {
        let mut dsb = DelayStorageBuffer::new(1);
        let r = dsb.allocate(LineAddr(9)).unwrap();
        dsb.merge(r);
        dsb.merge(r);
        dsb.fill(r, vec![5]);
        for _ in 0..3 {
            assert_eq!(dsb.playback(r).data.as_deref(), Some(&[5u8][..]));
        }
        assert_eq!(dsb.live_rows(), 0);
    }

    #[test]
    fn a_b_a_b_uses_two_rows() {
        // The paper's requirement: "we need to handle A,B,A,B,... with
        // only two queue entries."
        let mut dsb = DelayStorageBuffer::new(2);
        let ra = dsb.allocate(LineAddr(0xA)).unwrap();
        let rb = dsb.allocate(LineAddr(0xB)).unwrap();
        for _ in 0..100 {
            dsb.merge(dsb.lookup(LineAddr(0xA)).unwrap());
            dsb.merge(dsb.lookup(LineAddr(0xB)).unwrap());
        }
        assert_eq!(dsb.live_rows(), 2);
        assert_eq!(dsb.lookup(LineAddr(0xA)), Some(ra));
        assert_eq!(dsb.lookup(LineAddr(0xB)), Some(rb));
    }

    #[test]
    fn playback_before_fill_is_a_deadline_miss() {
        let mut dsb = DelayStorageBuffer::new(1);
        let r = dsb.allocate(LineAddr(1)).unwrap();
        assert!(!dsb.is_filled(r));
        let pb = dsb.playback(r);
        assert_eq!(pb.data, None);
        assert_eq!(pb.addr, LineAddr(1));
        // the counter is consumed even on a miss so rows cannot leak
        assert_eq!(dsb.live_rows(), 0);
    }

    #[test]
    fn write_invalidation_allows_new_version_row() {
        let mut dsb = DelayStorageBuffer::new(2);
        let old = dsb.allocate(LineAddr(3)).unwrap();
        dsb.invalidate(LineAddr(3));
        let new = dsb.allocate(LineAddr(3)).unwrap();
        assert_ne!(old, new);
        assert_eq!(dsb.lookup(LineAddr(3)), Some(new));
    }

    #[test]
    fn duplicate_valid_rows_resolve_lowest_first() {
        // With merging disabled the controller allocates a second valid
        // row for an address it never looked up. The CAM must keep
        // answering with the lowest-index valid row, exactly like the
        // hardware priority encoder / the original linear scan.
        let mut dsb = DelayStorageBuffer::new(4);
        let r0 = dsb.allocate(LineAddr(7)).unwrap();
        let r1 = dsb.allocate(LineAddr(7)).unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(dsb.lookup(LineAddr(7)), Some(r0));
        // Freeing the lowest promotes the next duplicate.
        dsb.fill(r0, vec![1]);
        dsb.playback(r0);
        assert_eq!(dsb.lookup(LineAddr(7)), Some(r1));
        // Reallocating the freed slot 0 makes it the lowest again.
        let r0b = dsb.allocate(LineAddr(7)).unwrap();
        assert_eq!(r0b, 0);
        assert_eq!(dsb.lookup(LineAddr(7)), Some(r0b));
        // Invalidation hits only the lowest duplicate (seed semantics).
        assert!(dsb.invalidate(LineAddr(7)));
        assert_eq!(dsb.lookup(LineAddr(7)), Some(r1));
        assert!(dsb.invalidate(LineAddr(7)));
        assert_eq!(dsb.lookup(LineAddr(7)), None);
    }

    #[test]
    #[should_panic(expected = "merge into free row")]
    fn merge_free_row_is_a_bug() {
        let mut dsb = DelayStorageBuffer::new(1);
        dsb.merge(0);
    }

    #[test]
    fn row_addr_reports_address() {
        let mut dsb = DelayStorageBuffer::new(1);
        let r = dsb.allocate(LineAddr(0x42)).unwrap();
        assert_eq!(dsb.row_addr(r), LineAddr(0x42));
    }

    #[test]
    fn large_capacity_spans_multiple_free_words() {
        let mut dsb = DelayStorageBuffer::new(130);
        let rows: Vec<RowId> = (0..130u64).map(|i| dsb.allocate(LineAddr(i)).unwrap()).collect();
        assert_eq!(rows, (0..130).collect::<Vec<RowId>>(), "lowest-free order");
        assert_eq!(dsb.allocate(LineAddr(999)), None);
        // Free a high row and a low row; the low one must be claimed first.
        dsb.fill(rows[128], vec![1]);
        dsb.playback(rows[128]);
        dsb.fill(rows[3], vec![1]);
        dsb.playback(rows[3]);
        assert_eq!(dsb.allocate(LineAddr(1000)), Some(3));
        assert_eq!(dsb.allocate(LineAddr(1001)), Some(128));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Read(u8),
        /// Allocate without CAM lookup, as the merging-off controller does.
        BlindRead(u8),
        Fill(u8),
        Playback,
        Invalidate(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u8>().prop_map(Op::Read),
            any::<u8>().prop_map(Op::BlindRead),
            any::<u8>().prop_map(Op::Fill),
            Just(Op::Playback),
            any::<u8>().prop_map(Op::Invalidate),
        ]
    }

    /// The original O(K) model: plain linear scans, no index structures.
    /// The indexed implementation must agree with it on every observable.
    struct LinearModel {
        rows: Vec<(LineAddr, bool, u32)>, // (addr, valid, counter)
    }

    impl LinearModel {
        fn new(k: usize) -> Self {
            LinearModel { rows: vec![(LineAddr(0), false, 0); k] }
        }
        fn lookup(&self, addr: LineAddr) -> Option<RowId> {
            self.rows
                .iter()
                .position(|&(a, valid, c)| c > 0 && valid && a == addr)
                .map(|i| i as RowId)
        }
        fn allocate(&mut self, addr: LineAddr) -> Option<RowId> {
            let idx = self.rows.iter().position(|&(_, _, c)| c == 0)?;
            self.rows[idx] = (addr, true, 1);
            Some(idx as RowId)
        }
        fn playback(&mut self, row: RowId) {
            let r = &mut self.rows[row as usize];
            r.2 -= 1;
            if r.2 == 0 {
                r.1 = false;
            }
        }
        fn invalidate(&mut self, addr: LineAddr) -> bool {
            match self.lookup(addr) {
                Some(row) => {
                    self.rows[row as usize].1 = false;
                    true
                }
                None => false,
            }
        }
        fn live(&self) -> usize {
            self.rows.iter().filter(|&&(_, _, c)| c > 0).count()
        }
    }

    proptest! {
        /// Counter conservation: playbacks never exceed reads, live rows
        /// never exceed capacity, and a drained buffer is fully free.
        #[test]
        fn conservation(ops in proptest::collection::vec(op(), 1..300)) {
            let k = 8;
            let mut dsb = DelayStorageBuffer::new(k);
            let mut scheduled: Vec<RowId> = Vec::new(); // pending playbacks, FIFO
            let mut reads = 0u64;
            let mut playbacks = 0u64;
            for op in &ops {
                match op {
                    Op::Read(a) | Op::BlindRead(a) => {
                        let addr = LineAddr(u64::from(*a % 16));
                        let row = match dsb.lookup(addr) {
                            Some(r) => { dsb.merge(r); Some(r) }
                            None => dsb.allocate(addr),
                        };
                        if let Some(r) = row {
                            scheduled.push(r);
                            reads += 1;
                        }
                    }
                    Op::Fill(a) => {
                        if let Some(r) = dsb.lookup(LineAddr(u64::from(*a % 16))) {
                            dsb.fill(r, vec![*a]);
                        }
                    }
                    Op::Playback => {
                        if !scheduled.is_empty() {
                            let r = scheduled.remove(0);
                            dsb.playback(r);
                            playbacks += 1;
                        }
                    }
                    Op::Invalidate(a) => {
                        dsb.invalidate(LineAddr(u64::from(*a % 16)));
                    }
                }
                prop_assert!(dsb.live_rows() <= k);
                prop_assert!(playbacks <= reads);
            }
            // drain all remaining playbacks: buffer must come back empty
            while !scheduled.is_empty() {
                let r = scheduled.remove(0);
                dsb.playback(r);
            }
            prop_assert_eq!(dsb.live_rows(), 0);
        }

        /// The indexed CAM + free bitset must be observationally identical
        /// to the original linear-scan model, including the duplicate-row
        /// corner the merging-off controller exercises (`BlindRead`).
        #[test]
        fn matches_linear_scan_model(ops in proptest::collection::vec(op(), 1..400)) {
            let k = 6;
            let mut dsb = DelayStorageBuffer::new(k);
            let mut model = LinearModel::new(k);
            let mut scheduled: Vec<RowId> = Vec::new();
            for op in &ops {
                match op {
                    Op::Read(a) => {
                        let addr = LineAddr(u64::from(*a % 8));
                        prop_assert_eq!(dsb.lookup(addr), model.lookup(addr));
                        let row = match dsb.lookup(addr) {
                            Some(r) => { dsb.merge(r); model.rows[r as usize].2 += 1; Some(r) }
                            None => {
                                let got = dsb.allocate(addr);
                                prop_assert_eq!(got, model.allocate(addr));
                                got
                            }
                        };
                        if let Some(r) = row { scheduled.push(r); }
                    }
                    Op::BlindRead(a) => {
                        // merging disabled: allocate without lookup
                        let addr = LineAddr(u64::from(*a % 8));
                        let got = dsb.allocate(addr);
                        prop_assert_eq!(got, model.allocate(addr));
                        if let Some(r) = got { scheduled.push(r); }
                    }
                    Op::Fill(a) => {
                        let addr = LineAddr(u64::from(*a % 8));
                        prop_assert_eq!(dsb.lookup(addr), model.lookup(addr));
                        if let Some(r) = dsb.lookup(addr) { dsb.fill(r, vec![*a]); }
                    }
                    Op::Playback => {
                        if !scheduled.is_empty() {
                            let r = scheduled.remove(0);
                            dsb.playback(r);
                            model.playback(r);
                        }
                    }
                    Op::Invalidate(a) => {
                        let addr = LineAddr(u64::from(*a % 8));
                        prop_assert_eq!(dsb.invalidate(addr), model.invalidate(addr));
                    }
                }
                prop_assert_eq!(dsb.live_rows(), model.live());
                // every address agrees after every operation
                for probe in 0..8u64 {
                    prop_assert_eq!(dsb.lookup(LineAddr(probe)), model.lookup(LineAddr(probe)));
                }
            }
        }
    }
}
