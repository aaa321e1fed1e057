//! The CFDS model — Garcia et al., *"Design and implementation of
//! high-performance memory systems for future packet buffers"*,
//! MICRO-36, 2003 (paper reference \[12\]).
//!
//! CFDS keeps queue pointers in SRAM like VPNM, but attacks bank conflicts
//! with *conflict-aware scheduling* instead of randomization: requests
//! enter a long reorder window and a scheduler issues, every `b` cycles,
//! the oldest request whose bank is currently free. The cost is the
//! scheduling rate (one request per `b` cycles — the paper quotes "the
//! implementation of RR scheduling logic for OC-3072 and b = 1 is
//! certainly of difficult viability") and a very long worst-case delay
//! (the Table 3 row lists 10 000 ns) because a request may wait out the
//! whole window.

use crate::packet_buffer::{BufferError, BufferEvent, DequeuedCell};
use std::collections::VecDeque;
use vpnm_dram::{DramConfig, DramDevice};
use vpnm_sim::Cycle;

#[derive(Debug, Clone, Copy, Default)]
struct Pointers {
    head: u64,
    tail: u64,
}

#[derive(Debug, Clone)]
enum OpKind {
    Write { data: Vec<u8> },
    Read { queue: u32, read_seq: u64 },
}

#[derive(Debug, Clone)]
struct PendingOp {
    bank: u32,
    offset: u64,
    kind: OpKind,
}

#[derive(Debug, Clone)]
struct CompletedRead {
    read_seq: u64,
    ready_at: Cycle,
    cell: DequeuedCell,
}

/// A CFDS-style packet buffer: conventional (low-bit) bank mapping, a
/// bounded reorder window, one issue slot every `b` cycles.
#[derive(Debug)]
pub struct CfdsBuffer {
    dram: DramDevice,
    queues: Vec<Pointers>,
    cells_per_queue: u64,
    issue_interval: u64,
    window: VecDeque<PendingOp>,
    window_cap: usize,
    now: u64,
    /// Reads issued to DRAM, awaiting in-order delivery.
    completed: Vec<CompletedRead>,
    /// Cells that became deliverable on a cycle whose tick result was a
    /// rejection; handed out by the next successful tick.
    pending: VecDeque<DequeuedCell>,
    next_read_seq: u64,
    next_deliver_seq: u64,
    issued: u64,
}

impl CfdsBuffer {
    /// Creates a CFDS buffer over `dram_config` with the given queue
    /// geometry, reorder window capacity, and issue interval `b`.
    ///
    /// # Errors
    ///
    /// Rejects degenerate geometry or regions that do not fit the DRAM.
    pub fn new(
        dram_config: DramConfig,
        num_queues: u32,
        cells_per_queue: u64,
        window_cap: usize,
        issue_interval: u64,
    ) -> Result<Self, String> {
        if num_queues == 0 || cells_per_queue == 0 || window_cap == 0 || issue_interval == 0 {
            return Err("degenerate CFDS configuration".into());
        }
        let total = u64::from(num_queues) * cells_per_queue;
        let capacity = u64::from(dram_config.num_banks) * dram_config.cells_per_bank();
        if total > capacity {
            return Err(format!("{total} cells exceed DRAM capacity {capacity}"));
        }
        dram_config.validate()?;
        Ok(CfdsBuffer {
            dram: DramDevice::new(dram_config),
            queues: vec![Pointers::default(); num_queues as usize],
            cells_per_queue,
            issue_interval,
            window: VecDeque::with_capacity(window_cap),
            window_cap,
            now: 0,
            completed: Vec::new(),
            pending: VecDeque::new(),
            next_read_seq: 0,
            next_deliver_seq: 0,
            issued: 0,
        })
    }

    /// Total requests issued to DRAM so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn locate(&self, queue: u32, counter: u64) -> (u32, u64) {
        let flat = u64::from(queue) * self.cells_per_queue + counter % self.cells_per_queue;
        // conventional banking: low bits select the bank
        let banks = u64::from(self.dram.config().num_banks);
        ((flat % banks) as u32, flat / banks)
    }

    /// One scheduling slot: issue the oldest window entry whose bank is
    /// free (conflict-free by construction).
    fn schedule(&mut self) {
        let now = Cycle::new(self.now);
        let Some(pos) = self
            .window
            .iter()
            .position(|op| self.dram.is_bank_ready(op.bank, now).unwrap_or(false))
        else {
            return;
        };
        let op = self.window.remove(pos).expect("position valid");
        match op.kind {
            OpKind::Write { data } => {
                self.dram
                    .try_issue_write(op.bank, op.offset, data, now)
                    .expect("address in range")
                    .expect("bank checked free");
            }
            OpKind::Read { queue, read_seq } => {
                let grant = self
                    .dram
                    .try_issue_read(op.bank, op.offset, now)
                    .expect("address in range")
                    .expect("bank checked free");
                self.completed.push(CompletedRead {
                    read_seq,
                    ready_at: grant.data_ready_at,
                    cell: DequeuedCell { queue, data: grant.data },
                });
            }
        }
        self.issued += 1;
    }

    /// Advances one cell slot.
    ///
    /// # Errors
    ///
    /// [`BufferError::Backpressure`] when the reorder window is full,
    /// plus the queue-state rejections.
    pub fn tick(
        &mut self,
        event: Option<BufferEvent>,
    ) -> Result<Option<DequeuedCell>, BufferError> {
        self.now += 1;
        if self.now.is_multiple_of(self.issue_interval) {
            self.schedule();
        }
        // in-order staging of ready reads (survives rejected ticks)
        while let Some(pos) = self
            .completed
            .iter()
            .position(|c| c.read_seq == self.next_deliver_seq && c.ready_at <= Cycle::new(self.now))
        {
            let c = self.completed.swap_remove(pos);
            self.next_deliver_seq += 1;
            self.pending.push_back(c.cell);
        }
        match event {
            None => Ok(self.pending.pop_front()),
            Some(ev) => {
                if self.window.len() == self.window_cap {
                    return Err(BufferError::Backpressure);
                }
                match ev {
                    BufferEvent::Enqueue { queue, cell } => {
                        let q = self.queues.get_mut(queue as usize).ok_or(BufferError::BadQueue)?;
                        if q.tail - q.head >= self.cells_per_queue {
                            return Err(BufferError::QueueFull);
                        }
                        let tail = q.tail;
                        q.tail += 1;
                        let (bank, offset) = self.locate(queue, tail);
                        self.window.push_back(PendingOp {
                            bank,
                            offset,
                            kind: OpKind::Write { data: cell },
                        });
                    }
                    BufferEvent::Dequeue { queue } => {
                        let q = self.queues.get_mut(queue as usize).ok_or(BufferError::BadQueue)?;
                        if q.tail == q.head {
                            return Err(BufferError::QueueEmpty);
                        }
                        let head = q.head;
                        q.head += 1;
                        let (bank, offset) = self.locate(queue, head);
                        let read_seq = self.next_read_seq;
                        self.next_read_seq += 1;
                        self.window.push_back(PendingOp {
                            bank,
                            offset,
                            kind: OpKind::Read { queue, read_seq },
                        });
                    }
                }
                Ok(self.pending.pop_front())
            }
        }
    }

    /// Ticks without events until all pending reads are delivered or the
    /// budget runs out.
    pub fn drain(&mut self, budget: u64) -> Vec<DequeuedCell> {
        let mut out = Vec::new();
        for _ in 0..budget {
            if self.next_deliver_seq == self.next_read_seq
                && self.window.is_empty()
                && self.pending.is_empty()
            {
                break;
            }
            if let Ok(Some(c)) = self.tick(None) {
                out.push(c);
            }
        }
        out.extend(self.pending.drain(..));
        out
    }

    /// SRAM requirement: queue pointers plus the reorder window entries
    /// (address + data + state), the structure the paper calls "a long
    /// reorder buffer like structure".
    pub fn sram_bytes(&self) -> u64 {
        let ptr_bits = u64::from(64 - (self.cells_per_queue.max(2) - 1).leading_zeros()) + 1;
        let pointers = (self.queues.len() as u64 * 2 * ptr_bits).div_ceil(8);
        let per_entry = 8 + self.dram.config().cell_bytes as u64;
        pointers + self.window_cap as u64 * per_entry
    }

    /// Worst-case delay: a request can wait behind the whole window at
    /// one issue per `b` cycles, plus the bank access itself.
    pub fn worst_case_delay_cycles(&self) -> u64 {
        self.window_cap as u64 * self.issue_interval + self.dram.config().timing.l_ratio()
    }
}

impl crate::baselines::PacketBufferModel for CfdsBuffer {
    fn name(&self) -> &'static str {
        "cfds"
    }

    fn tick(&mut self, event: Option<BufferEvent>) -> Result<Option<DequeuedCell>, BufferError> {
        CfdsBuffer::tick(self, event)
    }

    fn sram_bytes(&self) -> u64 {
        CfdsBuffer::sram_bytes(self)
    }

    fn worst_case_delay_cycles(&self) -> u64 {
        CfdsBuffer::worst_case_delay_cycles(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpnm_workloads::packets::payload_bytes;

    fn small() -> CfdsBuffer {
        CfdsBuffer::new(DramConfig::tiny_test(), 4, 16, 32, 2).unwrap()
    }

    #[test]
    fn fifo_roundtrip() {
        let mut buf = small();
        for seq in 0..8u64 {
            buf.tick(Some(BufferEvent::Enqueue { queue: 1, cell: payload_bytes(1, seq, 8) }))
                .unwrap();
        }
        // let the writes land before reading
        buf.drain(200);
        let mut got = Vec::new();
        for _ in 0..8 {
            got.extend(buf.tick(Some(BufferEvent::Dequeue { queue: 1 })).unwrap());
        }
        got.extend(buf.drain(500));
        assert_eq!(got.len(), 8);
        for (seq, c) in got.iter().enumerate() {
            assert_eq!(c.queue, 1);
            assert_eq!(c.data, payload_bytes(1, seq as u64, 8), "cell {seq}");
        }
    }

    #[test]
    fn interleaved_queues_keep_order() {
        let mut buf = small();
        for seq in 0..4u64 {
            for q in 0..4u32 {
                loop {
                    match buf.tick(Some(BufferEvent::Enqueue {
                        queue: q,
                        cell: payload_bytes(q, seq, 8),
                    })) {
                        Ok(_) => break,
                        Err(BufferError::Backpressure) => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }
        buf.drain(500);
        let mut got = Vec::new();
        for _ in 0..4 {
            for q in 0..4u32 {
                loop {
                    match buf.tick(Some(BufferEvent::Dequeue { queue: q })) {
                        Ok(c) => {
                            got.extend(c);
                            break;
                        }
                        Err(BufferError::Backpressure) => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        }
        got.extend(buf.drain(1000));
        assert_eq!(got.len(), 16);
        let mut next = [0u64; 4];
        for c in got {
            let q = c.queue as usize;
            assert_eq!(c.data, payload_bytes(c.queue, next[q], 8));
            next[q] += 1;
        }
    }

    #[test]
    fn window_backpressure() {
        let mut buf = CfdsBuffer::new(DramConfig::tiny_test(), 1, 64, 4, 8).unwrap();
        let mut rejected = 0;
        for seq in 0..32u64 {
            if buf
                .tick(Some(BufferEvent::Enqueue { queue: 0, cell: payload_bytes(0, seq, 8) }))
                .is_err()
            {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "slow issue rate must backpressure");
    }

    #[test]
    fn issue_rate_bounded_by_b() {
        let mut buf = CfdsBuffer::new(DramConfig::tiny_test(), 4, 64, 64, 4).unwrap();
        for seq in 0..40u64 {
            let _ = buf.tick(Some(BufferEvent::Enqueue {
                queue: (seq % 4) as u32,
                cell: payload_bytes(0, seq, 8),
            }));
        }
        // 40 ticks at one issue per 4 cycles → at most 10 issues
        assert!(buf.issued() <= 10, "issued {}", buf.issued());
    }

    #[test]
    fn sram_and_delay_reported() {
        let buf = small();
        assert!(buf.sram_bytes() > 0);
        assert!(buf.worst_case_delay_cycles() >= 32 * 2);
    }

    #[test]
    fn empty_queue_rejected() {
        let mut buf = small();
        assert_eq!(
            buf.tick(Some(BufferEvent::Dequeue { queue: 0 })).unwrap_err(),
            BufferError::QueueEmpty
        );
    }
}
