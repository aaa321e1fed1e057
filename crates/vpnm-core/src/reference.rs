//! The reference engine: the original, straightforward formulation of the
//! VPNM controller, kept as a living specification.
//!
//! [`ReferenceController`] does exactly what the seed implementation did
//! before the hot-path rework in [`controller`](crate::controller) and
//! [`delay_storage`](crate::delay_storage) — down to owning its own port
//! of the original per-bank stack:
//!
//! * the **delay storage buffer is linear**: CAM lookup, free-row search
//!   and invalidation are all O(K) scans over the rows, exactly as the
//!   seed's `DelayStorageBuffer` (the rework replaced these with a
//!   row-indexed tag CAM and a free bitset);
//! * every bank owns its **own circular delay line**, all advanced in
//!   lockstep every interface cycle (the rework shares one ring);
//! * the bus scheduler **scans all `B` banks** every memory cycle;
//! * occupancy metrics are sampled with **O(B) scans** per interface
//!   cycle;
//! * the memory-clock loop runs **every memory cycle**, busy or idle (no
//!   idle fast-forward).
//!
//! It is deliberately naive: the `tests/engine_equivalence.rs` suite
//! drives it and [`VpnmController`](crate::VpnmController) with identical
//! request streams and requires cycle-for-cycle, byte-for-byte identical
//! outputs and metrics. No benchmark workload runs it: it is a
//! specification, not a speed baseline.
//!
//! It is also the engine that records stall forensics: every tick logs
//! its lifecycle events (accept, merge, write accept, retire, return,
//! stall) into a 64-entry [`ForensicRing`]. Because the suite holds both
//! engines to the same cycle-for-cycle behaviour, replaying a fast run's
//! request stream here rebuilds the event window before any of its
//! stalls, and the fast engine carries no event site of its own.
//!
//! The only intentional departure from the seed is request validation:
//! like the fast engine, malformed requests are rejected gracefully in
//! release builds (the seed asserted unconditionally) so the two engines
//! remain comparable on every input.

use crate::access_queue::{AccessEntry, BankAccessQueue};
use crate::bank_controller::{Accepted, BankEvent};
use crate::config::{SchedulerKind, VpnmConfig};
use crate::delay_line::CircularDelayBuffer;
use crate::delay_storage::RowId;
use crate::forensics::{ForensicKind, ForensicRing};
use crate::hash_engine::HashEngine;
use crate::metrics::ControllerMetrics;
use crate::request::{LineAddr, Request, Response, StallKind, TenantId, TickOutput};
use crate::snapshot::MetricsSnapshot;
use crate::write_buffer::WriteBuffer;
use bytes::Bytes;
use vpnm_dram::{DramConfig, DramDevice, DramStats};
use vpnm_sim::{Cycle, DualClock};

#[derive(Debug, Clone, Default)]
struct SeedRow {
    addr: LineAddr,
    addr_valid: bool,
    counter: u32,
    data: Option<Bytes>,
}

impl SeedRow {
    fn is_free(&self) -> bool {
        self.counter == 0
    }
}

/// The seed's delay storage buffer: plain linear scans, no index
/// structures. Must stay observably identical to the indexed
/// [`DelayStorageBuffer`](crate::delay_storage::DelayStorageBuffer)
/// (locked by that module's differential proptest and by the engine
/// equivalence suite).
#[derive(Debug, Clone)]
struct SeedDelayStorage {
    rows: Vec<SeedRow>,
    live: usize,
}

impl SeedDelayStorage {
    fn new(k: usize) -> Self {
        assert!(k > 0, "delay storage buffer needs at least one row");
        SeedDelayStorage { rows: vec![SeedRow::default(); k], live: 0 }
    }

    fn live_rows(&self) -> usize {
        self.live
    }

    fn lookup(&self, addr: LineAddr) -> Option<RowId> {
        self.rows
            .iter()
            .position(|r| !r.is_free() && r.addr_valid && r.addr == addr)
            .map(|i| i as RowId)
    }

    fn allocate(&mut self, addr: LineAddr) -> Option<RowId> {
        let idx = self.rows.iter().position(SeedRow::is_free)?;
        let row = &mut self.rows[idx];
        row.addr = addr;
        row.addr_valid = true;
        row.counter = 1;
        row.data = None;
        self.live += 1;
        Some(idx as RowId)
    }

    fn merge(&mut self, row: RowId) {
        let r = &mut self.rows[row as usize];
        assert!(!r.is_free(), "merge into free row {row}");
        r.counter += 1;
    }

    fn row_addr(&self, row: RowId) -> LineAddr {
        let r = &self.rows[row as usize];
        assert!(!r.is_free(), "address of free row {row}");
        r.addr
    }

    fn fill(&mut self, row: RowId, data: Bytes) {
        let r = &mut self.rows[row as usize];
        assert!(!r.is_free(), "fill of free row {row}");
        r.data = Some(data);
    }

    fn playback(&mut self, row: RowId) -> (LineAddr, Option<Bytes>) {
        let r = &mut self.rows[row as usize];
        assert!(!r.is_free(), "playback of free row {row}");
        let addr = r.addr;
        let data = r.data.clone();
        r.counter -= 1;
        if r.counter == 0 {
            r.addr_valid = false;
            r.data = None;
            self.live -= 1;
        }
        (addr, data)
    }

    fn invalidate(&mut self, addr: LineAddr) -> bool {
        if let Some(row) = self.lookup(addr) {
            self.rows[row as usize].addr_valid = false;
            true
        } else {
            false
        }
    }
}

/// The seed's per-bank controller: linear delay storage plus its own
/// internal circular delay line, advanced every interface cycle whether
/// or not anything is in flight.
#[derive(Debug, Clone)]
struct SeedBank {
    bank: u32,
    storage: SeedDelayStorage,
    queue: BankAccessQueue,
    writes: WriteBuffer,
    delay_line: CircularDelayBuffer,
    in_service_until: Option<Cycle>,
    merging: bool,
}

impl SeedBank {
    fn new(bank: u32, k: usize, q: usize, wb: usize, d: u64, merging: bool) -> Self {
        SeedBank {
            bank,
            storage: SeedDelayStorage::new(k),
            queue: BankAccessQueue::new(q),
            writes: WriteBuffer::new(wb),
            delay_line: CircularDelayBuffer::new(d as usize),
            in_service_until: None,
            merging,
        }
    }

    fn submit(&mut self, event: BankEvent) -> Result<Accepted, StallKind> {
        match event {
            BankEvent::Read { addr, take } => {
                if self.merging {
                    if let Some(row) = self.storage.lookup(addr) {
                        self.storage.merge(row);
                        return Ok(Accepted::ReadMerged(row));
                    }
                }
                if self.queue.is_full() {
                    return Err(StallKind::AccessQueue);
                }
                let Some(row) = self.storage.allocate(addr) else {
                    return Err(StallKind::DelayStorage);
                };
                self.queue.push(AccessEntry::Read { row, take }).expect("checked for space above");
                Ok(Accepted::ReadQueued(row))
            }
            BankEvent::Write { addr, data } => {
                if self.writes.is_full() {
                    return Err(StallKind::WriteBuffer);
                }
                if self.queue.is_full() {
                    return Err(StallKind::AccessQueue);
                }
                self.writes.push(addr, data).expect("checked for space above");
                self.queue.push(AccessEntry::Write).expect("checked for space above");
                self.storage.invalidate(addr);
                Ok(Accepted::WriteBuffered)
            }
        }
    }

    /// Advances this bank's delay line by one interface cycle, returning
    /// the row played back, its address and its data.
    fn advance_delay_line(
        &mut self,
        incoming: Option<RowId>,
    ) -> Option<(RowId, LineAddr, Option<Bytes>)> {
        let due = self.delay_line.tick(incoming)?;
        let (addr, data) = self.storage.playback(due);
        Some((due, addr, data))
    }

    /// One bus grant: retires the in-service access if it completed, then
    /// issues the queue head if the bank is free. Returns whether an
    /// access retired.
    fn on_bus_grant(&mut self, dram: &mut DramDevice, now_mem: Cycle) -> bool {
        let mut retired = false;
        if let Some(until) = self.in_service_until {
            if now_mem < until {
                return false; // bank busy — the grant is wasted
            }
            self.queue.pop();
            self.in_service_until = None;
            retired = true;
        }
        let Some(front) = self.queue.front().copied() else {
            return retired;
        };
        match dram.is_bank_ready(self.bank, now_mem) {
            Ok(true) => {}
            Ok(false) => return retired,
            Err(e) => panic!("unexpected DRAM error on readiness: {e}"),
        }
        match front {
            AccessEntry::Read { row, take } => {
                let addr = self.storage.row_addr(row);
                let grant = dram
                    .try_issue_read(self.bank, addr.0, now_mem)
                    .expect("address in range")
                    .expect("bank checked ready");
                if take {
                    dram.take(self.bank, addr.0);
                }
                self.storage.fill(row, grant.data);
                self.in_service_until = Some(grant.data_ready_at);
            }
            AccessEntry::Write => {
                let w = self.writes.pop().expect("Write queue entry implies buffered write");
                let done = dram
                    .try_issue_write(self.bank, w.addr.0, w.data, now_mem)
                    .expect("address in range")
                    .expect("bank checked ready");
                self.in_service_until = Some(done);
            }
        }
        retired
    }

    fn wants_grant(&self, now: Cycle) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        match self.in_service_until {
            Some(until) => now >= until && self.queue.len() > 1,
            None => true,
        }
    }

    fn storage_occupancy(&self) -> usize {
        self.storage.live_rows()
    }

    fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn write_depth(&self) -> usize {
        self.writes.len()
    }
}

/// The O(B)-per-cycle, O(K)-per-request reference implementation of the
/// VPNM controller.
///
/// Behaviourally identical to [`VpnmController`](crate::VpnmController) —
/// same responses on the same cycles, same metrics, same stalls — just
/// without any of the incremental bookkeeping. See the module docs.
#[derive(Debug)]
pub struct ReferenceController {
    config: VpnmConfig,
    delay: u64,
    hash: HashEngine,
    clock: DualClock,
    dram: DramDevice,
    banks: Vec<SeedBank>,
    rr_next: u32,
    metrics: ControllerMetrics,
    outstanding: usize,
    /// Who issued the read due at each future interface cycle, indexed by
    /// `cycle % D`. The per-bank delay lines only carry row ids, so the
    /// tenant rides in this parallel wheel: slot `t % D` is read (for the
    /// response due now) *before* an accepted read overwrites it (for the
    /// response due at `t + D`).
    tenant_wheel: Vec<TenantId>,
    /// The last [`FORENSIC_WINDOW`] lifecycle events (see
    /// [`crate::forensics`]).
    forensics: ForensicRing,
}

/// Events the reference's forensic ring retains.
const FORENSIC_WINDOW: usize = 64;

impl ReferenceController {
    /// Builds a reference controller from `config`, keying the universal
    /// hash from `seed`. Same construction as the fast engine.
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for an inconsistent config.
    pub fn new(config: VpnmConfig, seed: u64) -> Result<Self, String> {
        config.validate()?;
        let delay = config.effective_delay();
        let hash = HashEngine::from_seed(config.hash, config.addr_bits, config.bank_bits(), seed);
        let cells_per_row = 64u64;
        let total_cells = 1u64 << config.addr_bits;
        let dram_config = DramConfig {
            num_banks: config.banks,
            rows_per_bank: total_cells.div_ceil(cells_per_row),
            cells_per_row,
            cell_bytes: config.cell_bytes,
            timing: vpnm_dram::timing::TimingModel::simple(config.bank_latency),
        };
        let dram = DramDevice::new(dram_config);
        let wb = config.write_buffer_capacity();
        let banks = (0..config.banks)
            .map(|b| {
                SeedBank::new(
                    b,
                    config.storage_rows,
                    config.queue_entries,
                    wb,
                    delay,
                    config.merging,
                )
            })
            .collect();
        Ok(ReferenceController {
            clock: DualClock::new(config.bus_ratio),
            delay,
            hash,
            dram,
            banks,
            rr_next: 0,
            metrics: ControllerMetrics::with_banks(config.banks as usize),
            outstanding: 0,
            tenant_wheel: vec![TenantId::HOST; delay as usize],
            forensics: ForensicRing::new(FORENSIC_WINDOW),
            config,
        })
    }

    /// The deterministic latency `D` in interface cycles.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// The configuration this controller was built from.
    pub fn config(&self) -> &VpnmConfig {
        &self.config
    }

    /// The current interface cycle.
    pub fn now(&self) -> Cycle {
        self.clock.interface_now()
    }

    /// Accumulated controller metrics.
    pub fn metrics(&self) -> &ControllerMetrics {
        &self.metrics
    }

    /// Statistics of the underlying DRAM device.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Reads still in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The keyed hash engine.
    pub fn hash(&self) -> &HashEngine {
        &self.hash
    }

    /// The bank `addr` maps to under this controller's keyed hash.
    pub fn bank_of(&self, addr: LineAddr) -> u32 {
        self.hash.bank_of(addr.0)
    }

    /// The forensic event ring: the last 64 lifecycle events, recorded
    /// on every tick.
    pub fn forensics(&self) -> &ForensicRing {
        &self.forensics
    }

    /// Freezes the current aggregate metrics into a serializable
    /// [`MetricsSnapshot`]. Running both engines on the same stream
    /// yields byte-identical snapshots (the equivalence suite checks
    /// this).
    pub fn snapshot(&self) -> MetricsSnapshot {
        // The reference advances every memory cycle individually — it
        // never skips, so its snapshot reports 0 skipped cycles.
        MetricsSnapshot::capture(&self.config, self.delay, self.now(), 0, &self.metrics)
    }

    /// Advances exactly one interface cycle — the original formulation:
    /// run every memory cycle with a grant, scan for the pick, scan for
    /// the samples, advance every bank's delay line. Records each
    /// lifecycle event in [`ReferenceController::forensics`]; a retire
    /// carries the interface cycle in progress when its grant fired.
    pub fn tick(&mut self, request: Option<Request>) -> TickOutput {
        loop {
            let mt = self.clock.tick_memory();
            let bank = self.pick_grant(mt.memory_cycle);
            if self.banks[bank].on_bus_grant(&mut self.dram, mt.memory_cycle) {
                let queue_depth = self.banks[bank].queue_depth() as u32;
                let at = self.clock.interface_now();
                self.forensics.record(at, bank as u32, ForensicKind::QueueExit { queue_depth });
            }
            if mt.interface_tick {
                break;
            }
        }
        let now = self.clock.interface_now();
        let wheel_slot = (now.as_u64() % self.delay) as usize;
        // Read the due tenant before an accepted read reuses the slot for
        // the response this cycle schedules `D` cycles out.
        let due_tenant = self.tenant_wheel[wheel_slot];

        let mut stall = None;
        let mut read_row = None; // (bank, row) scheduled into its delay line
        if let Some(req) = request {
            if let Some(kind) = req.malformed(self.config.addr_bits, self.config.cell_bytes) {
                stall = Some(kind);
                self.metrics.record_stall(kind, now);
            } else {
                let addr = req.addr();
                let bank = self.hash.bank_of(addr.0) as usize;
                let tenant = req.tenant();
                let event = match req {
                    Request::Read { addr, take, .. } => BankEvent::Read { addr, take },
                    Request::Write { addr, data, .. } => BankEvent::Write { addr, data },
                };
                let outcome = self.banks[bank].submit(event);
                let bc = &self.banks[bank];
                let queue_depth = bc.queue_depth() as u32;
                let kind = match outcome {
                    Ok(Accepted::ReadQueued(row)) => {
                        self.metrics.reads_accepted += 1;
                        self.outstanding += 1;
                        self.metrics.note_outstanding(self.outstanding as u64);
                        read_row = Some((bank, row));
                        self.tenant_wheel[wheel_slot] = tenant;
                        ForensicKind::Accepted { addr, row, queue_depth }
                    }
                    Ok(Accepted::ReadMerged(row)) => {
                        self.metrics.reads_accepted += 1;
                        self.metrics.reads_merged += 1;
                        self.outstanding += 1;
                        self.metrics.note_outstanding(self.outstanding as u64);
                        read_row = Some((bank, row));
                        self.tenant_wheel[wheel_slot] = tenant;
                        ForensicKind::Merged { addr, row }
                    }
                    Ok(Accepted::WriteBuffered) => {
                        self.metrics.writes_accepted += 1;
                        ForensicKind::WriteAccepted { addr, queue_depth }
                    }
                    Err(kind) => {
                        stall = Some(kind);
                        self.metrics.record_stall(kind, now);
                        ForensicKind::Stalled {
                            kind,
                            addr,
                            storage_live: bc.storage_occupancy() as u32,
                            queue_depth,
                            write_depth: bc.write_depth() as u32,
                        }
                    }
                };
                self.forensics.record(now, bank as u32, kind);
            }
        }

        // Advance every bank's delay line. At most one bank can have a
        // playback due (one request per interface cycle).
        let mut response = None;
        for (i, bc) in self.banks.iter_mut().enumerate() {
            let incoming = match read_row {
                Some((bank, row)) if bank == i => Some(row),
                _ => None,
            };
            if let Some((row, addr, data)) = bc.advance_delay_line(incoming) {
                debug_assert!(response.is_none(), "two playbacks due in one cycle");
                let miss = data.is_none();
                self.forensics.record(now, i as u32, ForensicKind::Returned { addr, row, miss });
                let data = match data {
                    Some(d) => d,
                    None => {
                        self.metrics.deadline_misses += 1;
                        Bytes::from(vec![0u8; self.config.cell_bytes])
                    }
                };
                self.outstanding -= 1;
                self.metrics.responses += 1;
                response = Some(Response {
                    addr,
                    data,
                    issued_at: Cycle::new(now.as_u64() - self.delay),
                    completed_at: now,
                    tenant: due_tenant,
                });
            }
        }

        // occupancy sampling — the original O(B) scans. The per-bank
        // high-water marks piggyback on the same end-of-tick walk (the
        // fast engine maintains them incrementally at the change sites;
        // the equivalence suite requires both formulations to agree).
        let mut max_queue = 0usize;
        let mut storage = 0usize;
        for (i, b) in self.banks.iter().enumerate() {
            let q = b.queue_depth();
            max_queue = max_queue.max(q);
            storage += b.storage_occupancy();
            self.metrics.note_bank_queue_depth(i, q as u32);
            self.metrics.note_bank_storage(i, b.storage_occupancy() as u32);
            self.metrics.note_bank_write_depth(i, b.write_depth() as u32);
        }
        self.metrics.sample_cycle(max_queue as u64, storage as u64);

        TickOutput { response, stall }
    }

    /// The original grant scan: visit all `B` banks from the round-robin
    /// position.
    fn pick_grant(&mut self, now_mem: Cycle) -> usize {
        let rr = self.rr_next as usize;
        self.rr_next = (self.rr_next + 1) % self.config.banks;
        match self.config.scheduler {
            SchedulerKind::RoundRobin => rr,
            SchedulerKind::WorkConserving => {
                if self.banks[rr].wants_grant(now_mem) {
                    return rr;
                }
                let b = self.config.banks as usize;
                (0..b)
                    .map(|i| (rr + i) % b)
                    .filter(|&i| self.banks[i].wants_grant(now_mem))
                    .max_by_key(|&i| self.banks[i].queue_depth())
                    .unwrap_or(rr)
            }
        }
    }

    /// Shorthand for ticking with a read request.
    pub fn tick_read(&mut self, addr: impl Into<LineAddr>) -> TickOutput {
        self.tick(Some(Request::read(addr.into())))
    }

    /// Shorthand for ticking with a write request.
    pub fn tick_write(&mut self, addr: impl Into<LineAddr>, data: impl Into<Bytes>) -> TickOutput {
        self.tick(Some(Request::write(addr.into(), data)))
    }

    /// Ticks with no request until all outstanding reads have been
    /// answered.
    ///
    /// # Panics
    ///
    /// Panics if draining takes more than `outstanding × D + D` cycles.
    pub fn drain(&mut self) -> Vec<Response> {
        let budget = (self.outstanding as u64 + 1) * self.delay + self.delay;
        let mut out = Vec::with_capacity(self.outstanding);
        let mut spent = 0u64;
        while self.outstanding > 0 {
            assert!(spent <= budget, "drain exceeded {budget} cycles");
            if let Some(r) = self.tick(None).response {
                out.push(r);
            }
            spent += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_answers_reads_at_exactly_d() {
        let mut mem = ReferenceController::new(VpnmConfig::small_test(), 3).unwrap();
        let d = mem.delay();
        assert!(mem.tick_write(11, vec![0x5A]).accepted());
        assert!(mem.tick_read(11).accepted());
        let responses = mem.drain();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].latency(), d);
        assert_eq!(responses[0].data[0], 0x5A);
    }

    #[test]
    fn reference_merges_redundant_reads() {
        let mut mem = ReferenceController::new(VpnmConfig::small_test(), 3).unwrap();
        let mut responses = 0;
        for _ in 0..100 {
            let out = mem.tick_read(9);
            assert!(out.accepted());
            responses += out.response.iter().len();
        }
        responses += mem.drain().len();
        assert_eq!(responses, 100);
        assert!(mem.metrics().reads_merged >= 90);
    }

    #[test]
    fn every_lifecycle_event_is_recorded() {
        // Writes, reads, repeats that merge, consuming reads and a
        // single-bank stride that stalls; then drained and flushed, so
        // every issued access has retired. Each event site fires once per
        // occurrence its counter counts, so a missing or doubled site
        // breaks the sum.
        let cfg = VpnmConfig::small_test().with_hash(crate::HashKind::LowBits);
        let mut mem = ReferenceController::new(cfg, 5).unwrap();
        for i in 0..3000u64 {
            mem.tick(match i % 8 {
                0 => Some(Request::write(LineAddr(i % 64), vec![i as u8])),
                1 | 2 => Some(Request::read(LineAddr(i % 64))),
                3 => Some(Request::read(LineAddr(42))),
                4 => Some(Request::take_as(TenantId::HOST, LineAddr(i % 64))),
                5 => Some(Request::read(LineAddr(i * 4 % 4096))),
                6 => None,
                _ => Some(Request::read(LineAddr(i * 37 % 5000))),
            });
        }
        mem.drain();
        while mem.banks.iter().any(|b| b.queue_depth() > 0) {
            mem.tick(None);
        }
        let m = mem.metrics();
        let dram = mem.dram_stats();
        assert!(m.reads_merged > 0 && m.writes_accepted > 0, "{m:?}");
        assert!(m.total_stalls() > 0 && m.responses == m.reads_accepted, "{m:?}");
        let retired = dram.reads + dram.writes;
        let want = m.reads_accepted + m.writes_accepted + m.responses + m.total_stalls() + retired;
        assert_eq!(mem.forensics().recorded(), want);
    }
}
