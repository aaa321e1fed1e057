//! The Nikologiannis–Katevenis model — *"Efficient per-flow queueing in
//! DRAM at OC-192 line rate using out-of-order execution techniques"*,
//! ICC 2001 (paper reference \[22\]).
//!
//! Per-flow queues live entirely in DRAM; bank conflicts are *reduced*
//! (not eliminated) by keeping a pool of pending operations and issuing,
//! each cycle, the oldest operation whose bank is currently free —
//! out-of-order execution across flows, in-order per flow. The pool and
//! the per-flow state are the scheme's large SRAM cost (the Table 3 row
//! lists 520 KB for 64 000 interfaces at OC-192/10 Gbps).

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
    Write {
        data: Vec<u8>,
    },
    Read {
        read_seq: u64,
    },
    /// A linked-list pointer access: per-flow queues in DRAM are linked
    /// lists, so every cell enqueue updates a next-pointer and every
    /// dequeue walks one — a second bank access per cell that halves the
    /// scheme's sustainable rate (why the paper's Table 3 lists it at
    /// OC-192 only).
    Pointer,
}

#[derive(Debug, Clone)]
struct PendingOp {
    queue: u32,
    bank: u32,
    offset: u64,
    kind: OpKind,
}

#[derive(Debug)]
struct DoneRead {
    read_seq: u64,
    ready_at: Cycle,
    cell: DequeuedCell,
}

/// An out-of-order per-flow DRAM packet buffer.
#[derive(Debug)]
pub struct NikologiannisBuffer {
    dram: DramDevice,
    queues: Vec<Pointers>,
    cells_per_queue: u64,
    pool: VecDeque<PendingOp>,
    pool_cap: usize,
    now: u64,
    done: Vec<DoneRead>,
    /// Deliverable cells that surfaced on rejected ticks.
    pending: VecDeque<DequeuedCell>,
    next_read_seq: u64,
    next_deliver_seq: u64,
}

impl NikologiannisBuffer {
    /// Creates the buffer.
    ///
    /// # Errors
    ///
    /// Rejects degenerate geometry or regions exceeding DRAM capacity.
    pub fn new(
        dram_config: DramConfig,
        num_queues: u32,
        cells_per_queue: u64,
        pool_cap: usize,
    ) -> Result<Self, String> {
        if num_queues == 0 || cells_per_queue == 0 || pool_cap == 0 {
            return Err("degenerate configuration".into());
        }
        let total = u64::from(num_queues) * cells_per_queue;
        let capacity = u64::from(dram_config.num_banks) * dram_config.cells_per_bank();
        if total > capacity {
            return Err(format!("{total} cells exceed DRAM capacity {capacity}"));
        }
        dram_config.validate()?;
        Ok(NikologiannisBuffer {
            dram: DramDevice::new(dram_config),
            queues: vec![Pointers::default(); num_queues as usize],
            cells_per_queue,
            pool: VecDeque::with_capacity(pool_cap),
            pool_cap,
            now: 0,
            done: Vec::new(),
            pending: VecDeque::new(),
            next_read_seq: 0,
            next_deliver_seq: 0,
        })
    }

    /// Pending pool occupancy.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn locate(&self, queue: u32, counter: u64) -> (u32, u64) {
        let flat = u64::from(queue) * self.cells_per_queue + counter % self.cells_per_queue;
        let banks = u64::from(self.dram.config().num_banks);
        ((flat % banks) as u32, flat / banks)
    }

    /// Out-of-order issue: the oldest pool entry whose bank is free (the
    /// oldest-first scan keeps same-bank — hence same-address — operations
    /// in order, so there are no read/write hazards).
    fn issue(&mut self) {
        let now = Cycle::new(self.now);
        let Some(pos) =
            self.pool.iter().position(|op| self.dram.is_bank_ready(op.bank, now).unwrap_or(false))
        else {
            return;
        };
        let op = self.pool.remove(pos).expect("position valid");
        match op.kind {
            OpKind::Write { data } => {
                self.dram
                    .try_issue_write(op.bank, op.offset, data, now)
                    .expect("address in range")
                    .expect("bank checked");
            }
            OpKind::Read { read_seq } => {
                let grant = self
                    .dram
                    .try_issue_read(op.bank, op.offset, now)
                    .expect("address in range")
                    .expect("bank checked");
                self.done.push(DoneRead {
                    read_seq,
                    ready_at: grant.data_ready_at,
                    cell: DequeuedCell { queue: op.queue, data: grant.data },
                });
            }
            OpKind::Pointer => {
                // occupies the bank like any access; content is list
                // metadata the model does not need to materialize
                self.dram
                    .try_issue_read(op.bank, op.offset, now)
                    .expect("address in range")
                    .expect("bank checked");
            }
        }
    }

    /// Advances one cell slot.
    ///
    /// # Errors
    ///
    /// [`BufferError::Backpressure`] when the pending pool is full, plus
    /// the queue-state rejections.
    pub fn tick(
        &mut self,
        event: Option<BufferEvent>,
    ) -> Result<Option<DequeuedCell>, BufferError> {
        self.now += 1;
        self.issue();
        while let Some(pos) = self
            .done
            .iter()
            .position(|d| d.read_seq == self.next_deliver_seq && d.ready_at <= Cycle::new(self.now))
        {
            let d = self.done.swap_remove(pos);
            self.next_deliver_seq += 1;
            self.pending.push_back(d.cell);
        }
        match event {
            None => Ok(self.pending.pop_front()),
            Some(ev) => {
                // every cell event needs two pool slots: the data access
                // and the linked-list pointer access
                if self.pool.len() + 1 >= self.pool_cap {
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
                        self.pool.push_back(PendingOp {
                            queue,
                            bank,
                            offset,
                            kind: OpKind::Write { data: cell },
                        });
                        self.pool.push_back(PendingOp {
                            queue,
                            bank,
                            offset,
                            kind: OpKind::Pointer,
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
                        // list walk: pointer first, then the cell
                        self.pool.push_back(PendingOp {
                            queue,
                            bank,
                            offset,
                            kind: OpKind::Pointer,
                        });
                        self.pool.push_back(PendingOp {
                            queue,
                            bank,
                            offset,
                            kind: OpKind::Read { read_seq },
                        });
                    }
                }
                Ok(self.pending.pop_front())
            }
        }
    }

    /// Ticks without events until pending reads are delivered or the
    /// budget runs out.
    pub fn drain(&mut self, budget: u64) -> Vec<DequeuedCell> {
        let mut out = Vec::new();
        for _ in 0..budget {
            if self.next_deliver_seq == self.next_read_seq
                && self.pool.is_empty()
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

    /// SRAM: pool entries (address + cell data + state) plus per-flow
    /// pointer records — large, because the scheme tracks tens of
    /// thousands of flows.
    pub fn sram_bytes(&self) -> u64 {
        let per_flow_record = 8u64; // head/tail pointer record
        let per_entry = 8 + self.dram.config().cell_bytes as u64;
        self.queues.len() as u64 * per_flow_record + self.pool_cap as u64 * per_entry
    }

    /// Worst case the pool drains serially through one bank.
    pub fn worst_case_delay_cycles(&self) -> u64 {
        self.pool_cap as u64 * self.dram.config().timing.l_ratio()
    }
}

impl crate::baselines::PacketBufferModel for NikologiannisBuffer {
    fn name(&self) -> &'static str {
        "nikologiannis"
    }

    fn tick(&mut self, event: Option<BufferEvent>) -> Result<Option<DequeuedCell>, BufferError> {
        NikologiannisBuffer::tick(self, event)
    }

    fn sram_bytes(&self) -> u64 {
        NikologiannisBuffer::sram_bytes(self)
    }

    fn worst_case_delay_cycles(&self) -> u64 {
        NikologiannisBuffer::worst_case_delay_cycles(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpnm_workloads::packets::payload_bytes;

    fn small() -> NikologiannisBuffer {
        NikologiannisBuffer::new(DramConfig::tiny_test(), 4, 16, 16).unwrap()
    }

    #[test]
    fn fifo_roundtrip() {
        let mut buf = small();
        for seq in 0..8u64 {
            buf.tick(Some(BufferEvent::Enqueue { queue: 2, cell: payload_bytes(2, seq, 8) }))
                .unwrap();
        }
        buf.drain(200);
        let mut got = Vec::new();
        for _ in 0..8 {
            got.extend(buf.tick(Some(BufferEvent::Dequeue { queue: 2 })).unwrap());
        }
        got.extend(buf.drain(500));
        assert_eq!(got.len(), 8);
        for (seq, c) in got.iter().enumerate() {
            assert_eq!(c.data, payload_bytes(2, seq as u64, 8), "cell {seq}");
        }
    }

    #[test]
    fn out_of_order_issue_sustains_rotating_banks() {
        // Four queues spread across banks: OoO issue keeps ops moving,
        // but the 2-ops-per-cell cost (data + list pointer) caps the
        // sustainable rate near one cell every two cycles.
        let mut buf = small();
        let mut accepted = 0u64;
        for seq in 0..64u64 {
            let q = (seq % 4) as u32;
            if buf
                .tick(Some(BufferEvent::Enqueue { queue: q, cell: payload_bytes(q, seq / 4, 8) }))
                .is_ok()
            {
                accepted += 1;
            }
        }
        assert!((24..=48).contains(&accepted), "accepted {accepted}");
        assert!(buf.pool_len() <= 16, "pool stays bounded: {}", buf.pool_len());
    }

    #[test]
    fn pool_backpressure() {
        // 1-bank DRAM: every op conflicts, the pool fills.
        let cfg = DramConfig {
            num_banks: 1,
            rows_per_bank: 64,
            cells_per_row: 4,
            cell_bytes: 8,
            timing: vpnm_dram::timing::TimingModel::simple(10),
        };
        let mut buf = NikologiannisBuffer::new(cfg, 1, 64, 4).unwrap();
        let mut pressured = false;
        for seq in 0..16u64 {
            if let Err(BufferError::Backpressure) =
                buf.tick(Some(BufferEvent::Enqueue { queue: 0, cell: payload_bytes(0, seq, 8) }))
            {
                pressured = true;
            }
        }
        assert!(pressured);
    }

    #[test]
    fn per_queue_order_maintained_across_interleaving() {
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
        buf.drain(400);
        let mut got = Vec::new();
        let mut issued = 0u32;
        while issued < 16 {
            let q = issued % 4;
            match buf.tick(Some(BufferEvent::Dequeue { queue: q })) {
                Ok(c) => {
                    got.extend(c);
                    issued += 1;
                }
                Err(BufferError::Backpressure) => continue,
                Err(e) => panic!("{e}"),
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
    fn sram_grows_with_flows() {
        let few = NikologiannisBuffer::new(DramConfig::tiny_test(), 4, 16, 16).unwrap();
        let cfg = DramConfig { rows_per_bank: 1 << 12, ..DramConfig::tiny_test() };
        let many = NikologiannisBuffer::new(cfg, 1000, 16, 16).unwrap();
        assert!(many.sram_bytes() > few.sram_bytes());
    }
}
