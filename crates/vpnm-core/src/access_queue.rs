//! The bank access queue — pending bank work, `Q` entries (paper Figure 3,
//! right).
//!
//! Each entry is one pending read or write that still needs the memory
//! bank. To avoid keeping `Q` copies of address and data, a read entry is
//! just the index of its row in the delay storage buffer, and a write entry
//! carries nothing (write address/data are popped from the write buffer in
//! FIFO order) — exactly the encoding the paper describes. A read entry
//! also carries one flag: whether the grant frees the cell after reading
//! it (a consuming read, the packet buffer's dequeue).

use crate::delay_storage::RowId;

/// One pending bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessEntry {
    /// A read; the address lives in the delay storage buffer row.
    Read {
        /// Delay storage buffer row to fill.
        row: RowId,
        /// Free the DRAM cell once the read is issued (a consuming read).
        take: bool,
    },
    /// A write; address and data are at the head of the write buffer.
    Write,
}

/// The paper's **bank access queue**: a bounded FIFO of [`AccessEntry`],
/// `Q` entries per bank (Figure 3, right). Overflow is the *bank access
/// queue stall* of paper Section 4.3.
///
/// ```
/// use vpnm_core::access_queue::{AccessEntry, BankAccessQueue};
/// let mut q = BankAccessQueue::new(2);
/// q.push(AccessEntry::Read { row: 0, take: false }).unwrap();
/// q.push(AccessEntry::Write).unwrap();
/// assert!(q.push(AccessEntry::Write).is_err(), "Q exhausted");
/// assert_eq!(q.pop(), Some(AccessEntry::Read { row: 0, take: false }));
/// ```
#[derive(Debug, Clone)]
pub struct BankAccessQueue {
    /// Power-of-two ring, so wrapping is a mask; `capacity` still bounds
    /// pushes at the configured `Q`, which need not be a power of two.
    entries: Box<[AccessEntry]>,
    /// `entries.len() - 1`, cached so the hot path does not re-derive it
    /// from the box's fat pointer.
    mask: u32,
    head: u32,
    len: u32,
    capacity: u32,
}

/// Error returned when the queue is full; carries the rejected entry back
/// to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull(pub AccessEntry);

impl BankAccessQueue {
    /// Creates a queue with capacity `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q > 0, "bank access queue needs at least one entry");
        assert!(q <= u32::MAX as usize / 2, "bank access queue capacity too large");
        let slots = q.next_power_of_two();
        BankAccessQueue {
            entries: vec![AccessEntry::Write; slots].into_boxed_slice(),
            mask: slots as u32 - 1,
            head: 0,
            len: 0,
            capacity: q as u32,
        }
    }

    /// Capacity `Q`.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Entries currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when a push would stall.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Enqueues an access.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] with the rejected entry when at capacity.
    #[inline]
    pub fn push(&mut self, entry: AccessEntry) -> Result<(), QueueFull> {
        if self.is_full() {
            return Err(QueueFull(entry));
        }
        let tail = (self.head + self.len) & self.mask;
        self.entries[tail as usize] = entry;
        self.len += 1;
        Ok(())
    }

    /// Dequeues the oldest access, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<AccessEntry> {
        if self.len == 0 {
            return None;
        }
        let e = self.entries[self.head as usize];
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(e)
    }

    /// Peeks at the oldest access without removing it.
    #[inline]
    pub fn front(&self) -> Option<&AccessEntry> {
        if self.len == 0 {
            None
        } else {
            Some(&self.entries[self.head as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = BankAccessQueue::new(4);
        q.push(AccessEntry::Read { row: 1, take: false }).unwrap();
        q.push(AccessEntry::Write).unwrap();
        q.push(AccessEntry::Read { row: 2, take: false }).unwrap();
        assert_eq!(q.pop(), Some(AccessEntry::Read { row: 1, take: false }));
        assert_eq!(q.pop(), Some(AccessEntry::Write));
        assert_eq!(q.pop(), Some(AccessEntry::Read { row: 2, take: false }));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_returns_entry() {
        let mut q = BankAccessQueue::new(1);
        q.push(AccessEntry::Write).unwrap();
        let err = q.push(AccessEntry::Read { row: 7, take: false }).unwrap_err();
        assert_eq!(err.0, AccessEntry::Read { row: 7, take: false });
        assert!(q.is_full());
    }

    #[test]
    fn len_and_front_track_state() {
        let mut q = BankAccessQueue::new(2);
        assert!(q.is_empty());
        assert_eq!(q.front(), None);
        q.push(AccessEntry::Write).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.front(), Some(&AccessEntry::Write));
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn ring_wraps_at_a_non_power_of_two_capacity() {
        // Q = 3 rounds the ring up to 4 slots; pushes still stop at 3.
        let mut q = BankAccessQueue::new(3);
        for round in 0..5u32 {
            for row in 0..3 {
                q.push(AccessEntry::Read { row: round * 3 + row, take: false }).unwrap();
            }
            assert!(q.is_full());
            for row in 0..3 {
                assert_eq!(q.pop(), Some(AccessEntry::Read { row: round * 3 + row, take: false }));
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        let _ = BankAccessQueue::new(0);
    }
}
