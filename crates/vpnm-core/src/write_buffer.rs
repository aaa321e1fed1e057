//! The write buffer FIFO (paper Figure 3, bottom left).
//!
//! Writes need no reply, so they are buffered (address + data) until their
//! turn on the bank comes up. The paper sizes the write buffer at half the
//! bank access queue ("we keep the write buffer equal to half of bank
//! request queue size"), making the *write buffer stall* strictly rarer
//! than the access-queue stall.

use crate::request::LineAddr;
use bytes::Bytes;
use std::collections::VecDeque;

/// A pending write (address + cell data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// Destination cell.
    pub addr: LineAddr,
    /// Cell contents (reference-counted; cloning does not copy).
    pub data: Bytes,
}

/// The paper's **write buffer**: a bounded FIFO of pending writes, sized
/// at `⌈Q/2⌉` entries (Figure 3, bottom left; Section 4.3). Overflow is
/// the *write buffer stall*.
///
/// ```
/// use vpnm_core::write_buffer::WriteBuffer;
/// use vpnm_core::request::LineAddr;
/// let mut wb = WriteBuffer::new(1);
/// wb.push(LineAddr(3), vec![1, 2]).unwrap();
/// assert!(wb.push(LineAddr(4), vec![]).is_err());
/// let w = wb.pop().unwrap();
/// assert_eq!(w.addr, LineAddr(3));
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    entries: VecDeque<PendingWrite>,
    capacity: usize,
}

/// Error when the write buffer is full; carries the rejected write back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBufferFull(pub PendingWrite);

impl WriteBuffer {
    /// Creates a buffer holding up to `capacity` writes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer needs at least one entry");
        WriteBuffer { entries: VecDeque::with_capacity(capacity), capacity }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Writes currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when a push would stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Buffers a write.
    ///
    /// # Errors
    ///
    /// Returns [`WriteBufferFull`] when at capacity.
    pub fn push(&mut self, addr: LineAddr, data: impl Into<Bytes>) -> Result<(), WriteBufferFull> {
        let data = data.into();
        if self.is_full() {
            return Err(WriteBufferFull(PendingWrite { addr, data }));
        }
        self.entries.push_back(PendingWrite { addr, data });
        Ok(())
    }

    /// The oldest write, without removing it.
    pub fn front(&self) -> Option<&PendingWrite> {
        self.entries.front()
    }

    /// Pops the oldest write.
    pub fn pop(&mut self) -> Option<PendingWrite> {
        self.entries.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut wb = WriteBuffer::new(3);
        wb.push(LineAddr(1), vec![1]).unwrap();
        wb.push(LineAddr(2), vec![2]).unwrap();
        assert_eq!(wb.pop().unwrap().addr, LineAddr(1));
        assert_eq!(wb.pop().unwrap().addr, LineAddr(2));
        assert_eq!(wb.pop(), None);
    }

    #[test]
    fn overflow_returns_write() {
        let mut wb = WriteBuffer::new(1);
        wb.push(LineAddr(1), vec![9]).unwrap();
        let err = wb.push(LineAddr(2), vec![8]).unwrap_err();
        assert_eq!(err.0.addr, LineAddr(2));
        assert_eq!(err.0.data, vec![8u8]);
    }

    #[test]
    fn state_queries() {
        let mut wb = WriteBuffer::new(2);
        assert!(wb.is_empty());
        wb.push(LineAddr(0), vec![]).unwrap();
        assert_eq!(wb.len(), 1);
        assert!(!wb.is_full());
        wb.push(LineAddr(0), vec![]).unwrap();
        assert!(wb.is_full());
        assert_eq!(wb.capacity(), 2);
    }
}
