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
//! are single-cycle combinational logic, and the model keeps that shape:
//! a 16-bit address tag per row, stored row-indexed in 64-row words next
//! to a `valid` bitset (row live *and* address-valid) and a `free` bitset.
//! A lookup compares one word of tags against the probe's tag in parallel
//! (`tag_match::match_mask`), ANDs the result with `valid`, and
//! walks the surviving bits lowest-first, confirming the full address in
//! the row — `trailing_zeros` is the priority encoder, so "lowest-index
//! valid live row" (lookup) and "lowest-index free row" (allocate) hold by
//! construction, duplicates from merging-off ablations included. Tags of
//! freed rows and of the padding lanes past `K` are never cleared: the
//! `valid` mask, not the tag, is the truth. Allocation is lowest-free-first,
//! so live rows sit in the low words and words with no valid row are
//! skipped — the compare is bounded by occupancy, not `K`. At `K = 128`
//! a bank's tags are four cache lines (8 KB per 32-bank controller,
//! L1-resident); nothing is hashed, probed or shifted.

use crate::request::LineAddr;
use crate::tag_match::{match_mask, LANES};
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
    /// Outstanding playbacks against this row (the paper's `C`-bit
    /// counter).
    counter: u32,
    /// Data words, present once the bank read completed.
    data: Option<Bytes>,
}

impl Row {
    fn is_free(&self) -> bool {
        self.counter == 0
    }
}

/// The 16-bit CAM tag of an address: the top bits of a multiplicative
/// hash, so addresses that differ anywhere are unlikely to share a tag.
/// Equal tags are only candidates — the row's full address decides.
#[inline]
fn tag_of(addr: LineAddr) -> u16 {
    (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as u16
}

/// Word index and bit of `row` in the `valid` / `free` bitsets.
#[inline]
fn word_bit(row: RowId) -> (usize, u64) {
    (row as usize / LANES, 1u64 << (row as usize % LANES))
}

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
    /// Address tag of each row, one 64-row word per bitset word (the last
    /// one padded past `K`). Meaningful only under a set `valid` bit.
    tags: Vec<[u16; LANES]>,
    /// CAM match enable; bit set = row live *and* address-valid.
    valid: Vec<u64>,
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
        let words = k.div_ceil(LANES);
        let mut free = vec![0u64; words];
        for (i, word) in free.iter_mut().enumerate() {
            let bits = (k - i * LANES).min(LANES);
            *word = if bits == LANES { u64::MAX } else { (1u64 << bits) - 1 };
        }
        DelayStorageBuffer {
            rows: vec![Row::default(); k],
            live: 0,
            tags: vec![[0; LANES]; words],
            valid: vec![0; words],
            free,
        }
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
    #[inline]
    pub fn lookup(&self, addr: LineAddr) -> Option<RowId> {
        let tag = tag_of(addr);
        for (w, (&valid, tags)) in self.valid.iter().zip(&self.tags).enumerate() {
            if valid == 0 {
                continue;
            }
            let mut candidates = match_mask(tags, tag) & valid;
            while candidates != 0 {
                let row = w * LANES + candidates.trailing_zeros() as usize;
                if self.rows[row].addr == addr {
                    return Some(row as RowId);
                }
                candidates &= candidates - 1;
            }
        }
        None
    }

    /// Warms a row ahead of its playback deadline with a hardware
    /// prefetch — by playback time the row was last touched a full bank
    /// access ago and has long left the cache. Semantically a no-op.
    #[inline]
    pub fn prefetch_row(&self, row: RowId) {
        crate::prefetch::prefetch_read(&raw const self.rows[row as usize]);
    }

    /// Allocates a free row for `addr` with counter 1 (the "first zero
    /// circuit" of the paper). Returns `None` when every row is live —
    /// the *delay storage buffer stall* condition.
    #[inline]
    pub fn allocate(&mut self, addr: LineAddr) -> Option<RowId> {
        let idx = self.first_free()?;
        let (w, bit) = word_bit(idx);
        self.free[w] &= !bit;
        self.valid[w] |= bit;
        self.tags[w][idx as usize % LANES] = tag_of(addr);
        let row = &mut self.rows[idx as usize];
        row.addr = addr;
        row.counter = 1;
        // Not redundant with the `take` in the last playback: after a
        // deadline miss the row is freed unfilled while its bank access is
        // still queued, and the late grant then fills the *free* row
        // (`fill` checks liveness only in debug builds). Clearing here
        // keeps that stale cell from reaching the row's next owner.
        row.data = None;
        self.live += 1;
        Some(idx)
    }

    fn first_free(&self) -> Option<RowId> {
        for (i, &word) in self.free.iter().enumerate() {
            if word != 0 {
                return Some((i * LANES) as RowId + word.trailing_zeros());
            }
        }
        None
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
            self.live -= 1;
            let (w, bit) = word_bit(row);
            self.free[w] |= bit;
            self.valid[w] &= !bit;
        }
        Playback { addr, data }
    }

    /// Write-match invalidation: clears the valid flag of the row holding
    /// `addr` (if any) so future reads re-fetch from the bank, while the
    /// row keeps serving already-merged reads. Returns whether a row
    /// matched.
    pub fn invalidate(&mut self, addr: LineAddr) -> bool {
        let Some(row) = self.lookup(addr) else {
            return false;
        };
        let (w, bit) = word_bit(row);
        self.valid[w] &= !bit;
        true
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

    /// Two distinct addresses with the same 16-bit tag, found by search
    /// (once: the multiplicative tag spreads consecutive addresses so
    /// evenly that the first repeat only comes after ~2^16 of them).
    pub(super) fn colliding_pair() -> (LineAddr, LineAddr) {
        static PAIR: std::sync::OnceLock<(LineAddr, LineAddr)> = std::sync::OnceLock::new();
        *PAIR.get_or_init(|| {
            let mut first = vec![None; 1 << 16];
            for a in (1u64..).map(LineAddr) {
                match first[usize::from(tag_of(a))] {
                    Some(b) => return (b, a),
                    None => first[usize::from(tag_of(a))] = Some(a),
                }
            }
            unreachable!("2^16 + 1 addresses cannot have distinct 16-bit tags");
        })
    }

    #[test]
    fn equal_tags_are_candidates_not_matches() {
        let (a, b) = colliding_pair();
        assert_ne!(a, b);
        assert_eq!(tag_of(a), tag_of(b));
        let mut dsb = DelayStorageBuffer::new(4);
        let ra = dsb.allocate(a).unwrap();
        assert_eq!(dsb.lookup(b), None, "an equal tag alone must not merge");
        let rb = dsb.allocate(b).unwrap();
        assert_ne!(ra, rb);
        assert_eq!(dsb.lookup(a), Some(ra));
        assert_eq!(dsb.lookup(b), Some(rb), "found past the lower-row false candidate");
        assert!(dsb.invalidate(a));
        assert_eq!(dsb.lookup(a), None);
        assert_eq!(dsb.lookup(b), Some(rb), "invalidating one must not hide the other");
        assert!(!dsb.invalidate(a));
        assert!(dsb.invalidate(b));
        assert_eq!(dsb.lookup(b), None);
    }

    #[test]
    fn padding_lanes_and_freed_rows_never_match() {
        // Padding lanes (and never-used rows) carry tag 0; so does this
        // address.
        let pad = LineAddr(0);
        assert_eq!(tag_of(pad), 0);
        let other = LineAddr(1);
        assert_ne!(tag_of(other), 0);

        // Empty buffer, and a word whose only valid row has another tag
        // while its 61 padding lanes all carry the probe's.
        let mut dsb = DelayStorageBuffer::new(3);
        assert_eq!(dsb.lookup(pad), None);
        let r = dsb.allocate(other).unwrap();
        assert_eq!(dsb.lookup(pad), None);
        assert!(!dsb.invalidate(pad));

        // A freed row keeps its tag and address but not its valid bit.
        let p = dsb.allocate(pad).unwrap();
        assert_eq!(dsb.lookup(pad), Some(p));
        dsb.playback(p);
        assert_eq!(dsb.lookup(pad), None, "freed row must not match");
        dsb.playback(r);
        assert_eq!(dsb.lookup(other), None);

        // Live rows only in word 1; words 0 (all freed) and 2 (2 rows +
        // 62 padding lanes) stay silent.
        let mut dsb = DelayStorageBuffer::new(130);
        for i in 0..65u64 {
            dsb.allocate(LineAddr(1 + i)).unwrap();
        }
        for row in 0..64 {
            dsb.playback(row);
        }
        assert_eq!(dsb.live_rows(), 1);
        assert_eq!(dsb.lookup(pad), None);
        assert_eq!(dsb.lookup(LineAddr(65)), Some(64));
        assert_eq!(dsb.lookup(LineAddr(64)), None);
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

    /// Capacities on both sides of the 64-row word boundary, plus a
    /// three-word buffer with a padded last word.
    const KS: [usize; 6] = [1, 6, 63, 64, 65, 130];

    /// The addresses op bytes name (`a % 8` or `a % 16`): the
    /// padding-tag address and an equal-tag pair ahead of plain ones.
    fn pool() -> [LineAddr; 16] {
        let (x, y) = super::tests::colliding_pair();
        let mut pool: [LineAddr; 16] = std::array::from_fn(|i| LineAddr(i as u64));
        (pool[1], pool[2]) = (x, y);
        pool
    }

    /// The original O(K) model: plain linear scans, no index structures.
    /// The tag-array implementation must agree with it on every observable.
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
        fn conservation(
            ops in proptest::collection::vec(op(), 1..300),
            ki in 0usize..KS.len(),
            preload in 0usize..130,
        ) {
            let k = KS[ki];
            let pool = pool();
            let mut dsb = DelayStorageBuffer::new(k);
            let mut scheduled: Vec<RowId> = Vec::new(); // pending playbacks, FIFO
            let mut reads = 0u64;
            let mut playbacks = 0u64;
            // Start part-full so the ops land across every word of the
            // larger buffers.
            for i in 0..preload.min(k - 1) {
                scheduled.push(dsb.allocate(pool[i % 16]).expect("below capacity"));
                reads += 1;
            }
            for op in &ops {
                match op {
                    Op::Read(a) | Op::BlindRead(a) => {
                        let addr = pool[usize::from(*a % 16)];
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
                        if let Some(r) = dsb.lookup(pool[usize::from(*a % 16)]) {
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
                        dsb.invalidate(pool[usize::from(*a % 16)]);
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
            for addr in pool {
                prop_assert_eq!(dsb.lookup(addr), None);
            }
        }

        /// The tag CAM + bitsets must be observationally identical to the
        /// original linear-scan model, including the duplicate-row corner
        /// the merging-off controller exercises (`BlindRead`), across the
        /// word boundary and with equal-tag addresses in play.
        #[test]
        fn matches_linear_scan_model(
            ops in proptest::collection::vec(op(), 1..400),
            ki in 0usize..KS.len(),
            preload in 0usize..130,
        ) {
            let k = KS[ki];
            let pool = pool();
            let mut dsb = DelayStorageBuffer::new(k);
            let mut model = LinearModel::new(k);
            let mut scheduled: Vec<RowId> = Vec::new();
            // Start part-full (duplicates spread over every word) so the
            // ops land across the larger buffers.
            for i in 0..preload.min(k - 1) {
                let got = dsb.allocate(pool[i % 8]);
                prop_assert_eq!(got, model.allocate(pool[i % 8]));
                scheduled.push(got.expect("below capacity"));
            }
            for op in &ops {
                match op {
                    Op::Read(a) => {
                        let addr = pool[usize::from(*a % 8)];
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
                        let addr = pool[usize::from(*a % 8)];
                        let got = dsb.allocate(addr);
                        prop_assert_eq!(got, model.allocate(addr));
                        if let Some(r) = got { scheduled.push(r); }
                    }
                    Op::Fill(a) => {
                        let addr = pool[usize::from(*a % 8)];
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
                        let addr = pool[usize::from(*a % 8)];
                        prop_assert_eq!(dsb.invalidate(addr), model.invalidate(addr));
                    }
                }
                prop_assert_eq!(dsb.live_rows(), model.live());
                // every address agrees after every operation
                for addr in &pool[..8] {
                    prop_assert_eq!(dsb.lookup(*addr), model.lookup(*addr));
                }
            }
        }
    }
}
