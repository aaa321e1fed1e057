//! Compact per-flow accounting for the serving front-end.
//!
//! The serving loop must track millions of concurrent flows without
//! keeping a heap allocation per flow. [`FlowTable`] is a flat
//! open-addressed table: one 64-bit fingerprint plus two 32-bit packet
//! counters per slot (16 bytes), so a table sized for 2²¹ flows costs
//! 32 MB and never allocates after construction.
//!
//! The table serves double duty:
//!
//! * **Flow → queue mapping.** A slot index *is* the packet-buffer queue
//!   index, so admitting a flow's first packet implicitly claims a
//!   per-queue pointer pair and DRAM ring in the
//!   [`VpnmPacketBuffer`](crate::packet_buffer::VpnmPacketBuffer) (the
//!   paper's Section 5.4.1 head/tail pointer SRAM, scaled from the
//!   4096-interface design point to millions of flows).
//! * **Shadow occupancy.** The serving loop schedules a whole epoch of
//!   buffer events before the buffer applies them, so the buffer's own
//!   pointers are stale while the event list is built. The `in`/`out`
//!   counters advance at *schedule* time and therefore always agree with
//!   the admission decision the buffer itself will make.
//!
//! The serving loop maps a flow to its slot in one place, one
//! [`FlowTable::slot_of`] probe per admitted arrival.

use vpnm_sim::rng::splitmix64;

/// Flat open-addressed flow table; slot index == packet-buffer queue
/// index.
///
/// Flows are identified by a 64-bit splitmix fingerprint of the flow ID.
/// Two distinct flows colliding on the full 64-bit fingerprint *and* the
/// same probe chain would alias into one queue; at millions of flows the
/// birthday probability is ~10⁻⁶ and an alias only merges two flows'
/// FIFOs (payload verification in the serving loop would surface it).
#[derive(Debug)]
pub struct FlowTable {
    fingerprints: Vec<u64>,
    in_counts: Vec<u32>,
    out_counts: Vec<u32>,
    mask: u64,
    len: u64,
}

impl FlowTable {
    /// Creates a table with `capacity` slots (a power of two ≥ 2).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is < 2.
    pub fn new(capacity: u32) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= 2,
            "flow table capacity must be a power of two >= 2, got {capacity}"
        );
        let n = capacity as usize;
        FlowTable {
            fingerprints: vec![0; n],
            in_counts: vec![0; n],
            out_counts: vec![0; n],
            mask: u64::from(capacity) - 1,
            len: 0,
        }
    }

    /// Slot capacity (== the packet buffer's queue count).
    pub fn capacity(&self) -> u32 {
        self.fingerprints.len() as u32
    }

    /// Distinct flows admitted so far.
    pub fn flows(&self) -> u64 {
        self.len
    }

    /// Resident size of the table in bytes (16 bytes per slot).
    pub fn bytes(&self) -> usize {
        self.fingerprints.len() * (8 + 4 + 4)
    }

    fn fingerprint(flow: u64) -> u64 {
        // 0 is the empty-slot sentinel; splitmix64 output is 0 only for
        // one input, remap it.
        splitmix64(flow ^ 0xF1D0_F1D0_F1D0_F1D0).max(1)
    }

    /// Finds the slot for `flow`, inserting it on first sight. Returns
    /// `None` when the flow is new and the table is at capacity (the
    /// caller counts a flow-table drop).
    ///
    /// A linear probe from the fingerprint's home slot, claiming the
    /// first empty slot for a new fingerprint; `None` after one full
    /// wrap.
    #[inline]
    pub fn slot_of(&mut self, flow: u64) -> Option<u32> {
        let fp = Self::fingerprint(flow);
        let mut i = (fp & self.mask) as usize;
        // When full, a missing flow would probe forever: scan only until
        // we either hit the flow or wrap once.
        for _ in 0..=self.mask {
            let cur = self.fingerprints[i];
            if cur == fp {
                return Some(i as u32);
            }
            if cur == 0 {
                self.fingerprints[i] = fp;
                self.len += 1;
                return Some(i as u32);
            }
            i = (i + 1) & self.mask as usize;
        }
        None
    }

    /// [`FlowTable::slot_of`] over a flow-ID slice, in order: `out`
    /// receives one slot per flow. The serving loop does not call it;
    /// it is kept for the repo benchmark's flow-table probe.
    pub fn slots_of_batch(&mut self, flows: &[u64], out: &mut Vec<Option<u32>>) {
        out.clear();
        out.extend(flows.iter().map(|&f| self.slot_of(f)));
    }

    /// Packets currently resident in `slot`'s buffer ring, as of the
    /// latest *scheduled* (not yet necessarily applied) event.
    pub fn occupancy(&self, slot: u32) -> u32 {
        self.in_counts[slot as usize] - self.out_counts[slot as usize]
    }

    /// Records a scheduled enqueue; returns the cell's sequence number
    /// within the flow (the payload seed the dequeue side verifies).
    pub fn note_enqueue(&mut self, slot: u32) -> u64 {
        let seq = u64::from(self.in_counts[slot as usize]);
        self.in_counts[slot as usize] += 1;
        seq
    }

    /// Records a scheduled dequeue; returns the sequence number of the
    /// cell that will come back (FIFO within the flow).
    pub fn note_dequeue(&mut self, slot: u32) -> u64 {
        let seq = u64::from(self.out_counts[slot as usize]);
        self.out_counts[slot as usize] += 1;
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_flows_to_stable_slots() {
        let mut t = FlowTable::new(1 << 10);
        let a = t.slot_of(17).unwrap();
        let b = t.slot_of(99_999_999).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.slot_of(17), Some(a), "repeat lookup is stable");
        assert_eq!(t.flows(), 2);
        assert!(a < t.capacity() && b < t.capacity());
    }

    #[test]
    fn counts_track_shadow_occupancy() {
        let mut t = FlowTable::new(4);
        let s = t.slot_of(7).unwrap();
        assert_eq!(t.occupancy(s), 0);
        assert_eq!(t.note_enqueue(s), 0);
        assert_eq!(t.note_enqueue(s), 1);
        assert_eq!(t.occupancy(s), 2);
        assert_eq!(t.note_dequeue(s), 0);
        assert_eq!(t.occupancy(s), 1);
    }

    #[test]
    fn full_table_rejects_new_flows_but_serves_old() {
        let mut t = FlowTable::new(4);
        let mut slots = Vec::new();
        let mut flow = 0u64;
        while slots.len() < 4 {
            if let Some(s) = t.slot_of(flow) {
                if !slots.contains(&s) {
                    slots.push(s);
                }
            }
            flow += 1;
        }
        assert_eq!(t.flows(), 4);
        assert_eq!(t.slot_of(1 << 40), None, "new flow rejected at capacity");
        for f in 0..flow {
            // every previously admitted flow still resolves
            assert!(t.slot_of(f).is_some());
        }
    }

    #[test]
    fn million_slot_table_is_compact() {
        let t = FlowTable::new(1 << 21);
        assert_eq!(t.bytes(), (1 << 21) * 16, "16 bytes/slot, 32 MB for 2^21 flows");
    }

    /// Finds a flow ID whose fingerprint homes to `slot` in a table with
    /// the given `mask`, skipping any in `taken`.
    fn flow_homing_to(slot: u64, mask: u64, taken: &[u64]) -> u64 {
        (0u64..).find(|&f| FlowTable::fingerprint(f) & mask == slot && !taken.contains(&f)).unwrap()
    }

    #[test]
    fn probing_wraps_past_slot_zero() {
        let mut t = FlowTable::new(4);
        // Two flows homing to the last slot: the second must wrap to
        // slot 0, not fall off the end of the table.
        let a = flow_homing_to(3, 3, &[]);
        let b = flow_homing_to(3, 3, &[a]);
        assert_eq!(t.slot_of(a), Some(3));
        assert_eq!(t.slot_of(b), Some(0), "collision at the top wraps to slot 0");
        assert_eq!(t.slot_of(a), Some(3), "both remain stable after the wrap");
        assert_eq!(t.slot_of(b), Some(0));
        assert_eq!(t.flows(), 2);
    }

    #[test]
    fn colliding_new_flow_on_full_table_is_rejected_after_one_wrap() {
        let mut t = FlowTable::new(4);
        let mut admitted = Vec::new();
        // Fill all four slots with flows homing to the SAME slot, so the
        // table is one maximal probe chain.
        for _ in 0..4 {
            let f = flow_homing_to(1, 3, &admitted);
            assert!(t.slot_of(f).is_some());
            admitted.push(f);
        }
        assert_eq!(t.flows(), 4);
        // A fifth flow homing to the same (occupied) slot must scan the
        // whole chain, wrap exactly once, and report the table full —
        // while every admitted flow still resolves to its slot.
        let outsider = flow_homing_to(1, 3, &admitted);
        assert_eq!(t.slot_of(outsider), None, "fingerprint collision on a full table");
        for f in &admitted {
            assert!(t.slot_of(*f).is_some());
        }
        assert_eq!(t.flows(), 4, "the rejected probe must not count a flow");
    }

    #[test]
    fn slot_reuse_after_drop_accounting() {
        let mut t = FlowTable::new(4);
        let s = t.slot_of(11).unwrap();
        // Fill the flow's ring to a bound of 2, as the serving loop does
        // before counting a flow_queue_drop (the drop itself never
        // touches the counters — only admitted cells move them).
        assert_eq!(t.note_enqueue(s), 0);
        assert_eq!(t.note_enqueue(s), 1);
        assert_eq!(t.occupancy(s), 2);
        // Transmit both; occupancy returns to zero and the slot is
        // immediately reusable with a continuing sequence.
        assert_eq!(t.note_dequeue(s), 0);
        assert_eq!(t.note_dequeue(s), 1);
        assert_eq!(t.occupancy(s), 0);
        assert_eq!(t.note_enqueue(s), 2, "sequence continues across emptiness");
        assert_eq!(t.occupancy(s), 1);
        assert_eq!(t.slot_of(11), Some(s), "the flow keeps its slot across drain");
    }

    #[test]
    fn batch_lookup_matches_scalar_on_a_small_table() {
        let flows: Vec<u64> = (0..64).map(|i| i * 31 % 40).collect();
        let mut scalar = FlowTable::new(16);
        let expect: Vec<Option<u32>> = flows.iter().map(|&f| scalar.slot_of(f)).collect();
        let mut batched = FlowTable::new(16);
        let mut out = Vec::new();
        batched.slots_of_batch(&flows, &mut out);
        assert_eq!(out, expect);
        assert_eq!(batched.flows(), scalar.flows());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `slots_of_batch` is the per-packet `slot_of` sequence, exactly
        /// — insertions, collisions, wraps, and full-table rejections
        /// included — for any flow stream and table size, in one batch
        /// or split across arbitrary batch boundaries.
        #[test]
        fn batch_equals_per_packet(
            flows in proptest::collection::vec(0u64..64, 1..200),
            cap_pow in 1u32..6,
            split in 0usize..200,
        ) {
            let capacity = 1u32 << cap_pow;
            let mut scalar = FlowTable::new(capacity);
            let expect: Vec<Option<u32>> =
                flows.iter().map(|&f| scalar.slot_of(f)).collect();

            let mut batched = FlowTable::new(capacity);
            let cut = split.min(flows.len());
            let (head, tail) = flows.split_at(cut);
            let mut out = Vec::new();
            let mut got = Vec::new();
            batched.slots_of_batch(head, &mut out);
            got.extend_from_slice(&out);
            batched.slots_of_batch(tail, &mut out);
            got.extend_from_slice(&out);

            prop_assert_eq!(got, expect);
            prop_assert_eq!(batched.flows(), scalar.flows());
        }
    }
}
