//! The top-level VPNM memory controller (paper Figure 2): universal hash
//! unit → per-bank controllers → round-robin bus scheduler → DRAM.
//!
//! # Performance engineering
//!
//! This is the hot path of every experiment in the workspace, so the
//! implementation avoids any per-cycle work proportional to the bank count
//! `B` or allocation proportional to traffic. The algorithm is *exactly*
//! the original one — [`ReferenceController`](crate::ReferenceController)
//! keeps the O(B)-per-cycle formulation alive as a differential oracle —
//! but the bookkeeping is incremental:
//!
//! * **Packed scheduling lanes**: each bank's queue depth and in-service
//!   completion time are mirrored in dense arrays, with a count of the
//!   banks whose queue is non-empty. A grant to an empty or mid-service
//!   bank is answered from the lanes without touching the
//!   [`BankController`].
//! * **Clock-derived grant rotor**: the bank that owns memory tick `m` is
//!   `(m - 1) mod B`, a pure function of the clock, so no rotor state is
//!   kept and jumping the clock moves the rotor with it.
//! * **Idle fast-forward**: when no bank is queued every bus grant is a
//!   no-op, so the memory-clock loop is skipped entirely via
//!   [`DualClock::advance_to_interface`], and the batch doors jump whole
//!   request-free spans up to the next due playback
//!   (`skip_idle` — the one multi-cycle skip).
//! * **Shared delay wheel**: because at most one request enters the
//!   controller per interface cycle, at most one playback falls due per
//!   cycle, so one ring of `(bank, row)` slots replaces `B` per-bank
//!   delay lines all spinning in lockstep.
//! * **Incremental occupancy sampling**: the per-cycle metrics (max queue
//!   depth, total storage occupancy) are maintained with a bank-depth
//!   histogram and a live-row counter, updated only at the few points a
//!   depth can change, instead of O(B) scans per interface cycle.
//! * **Zero-allocation data path**: payloads are [`bytes::Bytes`] —
//!   refcounted views handed from DRAM storage through delay storage to
//!   [`Response`] without copying; deadline misses reuse one cached zero
//!   cell.
//!
//! Debug builds re-derive all incremental state from first principles
//! every tick (`debug_assert`s), so the whole test suite doubles as an
//! equivalence check.

use crate::bank_controller::{Accepted, BankController, BankEvent};
use crate::config::{SchedulerKind, VpnmConfig};
use crate::delay_storage::RowId;
use crate::forensics::{ForensicKind, ForensicRing};
use crate::hash_engine::HashEngine;
use crate::memory::PipelinedMemory;
use crate::metrics::ControllerMetrics;
use crate::request::{LineAddr, Request, Response, StallKind, TenantId, TickOutput};
use crate::snapshot::MetricsSnapshot;
use bytes::Bytes;
use vpnm_dram::{DramConfig, DramDevice, DramStats};
use vpnm_hash::BankHasher;
use vpnm_sim::{Cycle, DualClock};

/// Requests bank-hashed per [`HashEngine::hash_batch`] call inside the
/// batch drive loop: large enough to amortize the call and keep the SIMD
/// lanes full, small enough that both scratch arrays (12 KiB together)
/// live on the stack and stay in L1.
const HASH_CHUNK: usize = 1024;

/// What to do when a request cannot be accepted this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallPolicy {
    /// Retry the same request on the next interface cycle (stalls the
    /// line; paper Section 4: "simply stall the controller, where the
    /// slowdown would not even be a fraction of a percent").
    Block,
    /// Drop the request (paper: "the other alternative is to simply drop
    /// the packet").
    Drop,
}

/// Summary of one batch-door call ([`PipelinedMemory::issue_batch`],
/// [`PipelinedMemory::run_epoch_sparse`], [`PipelinedMemory::run_epoch`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Every response that became due during the run, in order.
    pub responses: Vec<Response>,
    /// Requests accepted (including merged reads).
    pub accepted: u64,
    /// Requests that stalled on a full buffer (retryable).
    pub stalled: u64,
    /// Malformed requests rejected outright (not retryable; see
    /// [`StallKind::is_rejection`]).
    pub rejected: u64,
}

/// Run-length accumulator for the two per-cycle occupancy samples
/// ([`ControllerMetrics::sample_cycle`]'s inputs). At steady state
/// consecutive cycles sample identical values — a full-rate read stream
/// allocates and frees one storage row per cycle, holding `storage_live`
/// flat — so the batch drive loop counts the run and flushes it through
/// [`ControllerMetrics::sample_cycles`] in O(1) instead of updating two
/// histograms every cycle. Histogram updates commute, so the deferred
/// flush leaves the final metrics byte-identical to per-cycle recording,
/// even interleaved with the idle skip's own bulk samples.
#[derive(Default)]
struct SampleRun {
    depth: u64,
    live: u64,
    n: u64,
}

impl SampleRun {
    #[inline]
    fn push(&mut self, metrics: &mut ControllerMetrics, depth: u64, live: u64) {
        if self.n != 0 && depth == self.depth && live == self.live {
            self.n += 1;
        } else {
            self.flush(metrics);
            self.depth = depth;
            self.live = live;
            self.n = 1;
        }
    }

    #[inline]
    fn flush(&mut self, metrics: &mut ControllerMetrics) {
        if self.n != 0 {
            metrics.sample_cycles(self.depth, self.live, self.n);
            self.n = 0;
        }
    }
}

/// Index of the first set bit in `bits` at a position in `from..to`, if
/// any — the word-at-a-time scan behind the delay ring's next-due search.
fn first_set_bit(bits: &[u64], from: usize, to: usize) -> Option<usize> {
    if from >= to {
        return None;
    }
    let last_w = (to - 1) / 64;
    let mut w = from / 64;
    let mut word = bits[w] & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            let p = w * 64 + word.trailing_zeros() as usize;
            return (p < to).then_some(p);
        }
        if w == last_w {
            return None;
        }
        w += 1;
        word = bits[w];
    }
}

/// The virtually pipelined memory controller.
///
/// Presents banked DRAM as a flat pipeline: every accepted read is answered
/// after exactly `D` interface cycles regardless of the access pattern.
/// Drive it one interface cycle at a time with [`VpnmController::tick`], or
/// a whole epoch at a time through the [`PipelinedMemory`] batch doors.
///
/// ```
/// use vpnm_core::{Request, LineAddr, VpnmConfig, VpnmController};
///
/// let mut mem = VpnmController::new(VpnmConfig::small_test(), 42).unwrap();
/// let d = mem.delay();
///
/// // Write, then read the same cell.
/// mem.tick(Some(Request::write(LineAddr(7), vec![1, 2, 3])));
/// mem.tick(Some(Request::read(LineAddr(7))));
/// // The response arrives exactly D cycles after the read was accepted.
/// let mut response = None;
/// for _ in 0..d {
///     if let Some(r) = mem.tick(None).response {
///         response = Some(r);
///     }
/// }
/// let r = response.expect("due within D cycles");
/// assert_eq!(&r.data[..3], &[1, 2, 3]);
/// assert_eq!(r.latency(), d);
/// ```
#[derive(Debug)]
pub struct VpnmController {
    config: VpnmConfig,
    delay: u64,
    hash: HashEngine,
    clock: DualClock,
    dram: DramDevice,
    banks: Vec<BankController>,
    metrics: ControllerMetrics,
    outstanding: usize,
    /// Number of banks with a non-empty access queue (the only banks a
    /// bus grant can do anything for): the count of non-zero entries in
    /// `bank_queue_depth`.
    ready_banks: u32,
    /// Struct-of-arrays mirror of each bank's `in_service_until`, as a
    /// dense `u64` lane (`0` = idle; a real completion cycle is always
    /// positive, since DRAM latencies are at least one memory cycle).
    /// The grant picker reads scheduling state every memory tick (and,
    /// work-conserving, for many banks per decision); a packed lane
    /// touches one cache line per eight banks instead of one
    /// [`BankController`] (queue + CAM + write buffer) per bank.
    bank_busy_until: Vec<u64>,
    /// Struct-of-arrays mirror of each bank's access-queue depth — the
    /// other half of the scheduling state, packed for the same linear
    /// scans.
    bank_queue_depth: Vec<u32>,
    /// Cached `max(bank_queue_depth)` (see [`VpnmController::max_queue_depth`]).
    max_depth_lane: u32,
    /// The shared playback wheel: slot `ring_pos` holds the `(bank, row,
    /// tenant)` scheduled `D` interface cycles ago, falling due this
    /// cycle. Carrying the tenant in the wheel slot is what lets the
    /// response echo the issuing tenant without threading tenancy through
    /// any bank structure.
    ring: Vec<Option<(u32, RowId, TenantId)>>,
    ring_pos: usize,
    /// Occupancy bitset over `ring` (bit `i` set ⇔ `ring[i].is_some()`),
    /// letting the event-horizon skip find the next due playback by
    /// scanning words instead of walking `Option` slots one by one.
    ring_occ: Vec<u64>,
    /// Total live delay-storage rows across banks.
    storage_live: u64,
    /// Interface cycles covered by event-horizon skips in the batch
    /// drive loop (drive-mode accounting; not part of
    /// [`ControllerMetrics`] so metrics equality across engines and drive
    /// modes is unaffected).
    cycles_skipped: u64,
    /// Cached zero cell served on deadline misses.
    zero_cell: Bytes,
    /// Forensic event ring (see [`crate::forensics`]); inert unless
    /// [`VpnmConfig::forensics_capacity`] is non-zero, which each drive
    /// entry checks once to pick `step::<true>` or `step::<false>`.
    forensics: ForensicRing,
}

impl VpnmController {
    /// Builds a controller from `config`, keying the universal hash from
    /// `seed`.
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
                BankController::new(b, config.storage_rows, config.queue_entries, wb)
                    .with_merging(config.merging)
            })
            .collect();
        Ok(VpnmController {
            clock: DualClock::new(config.bus_ratio),
            delay,
            hash,
            dram,
            banks,
            metrics: ControllerMetrics::with_banks(config.banks as usize),
            outstanding: 0,
            ready_banks: 0,
            bank_busy_until: vec![0; config.banks as usize],
            bank_queue_depth: vec![0; config.banks as usize],
            max_depth_lane: 0,
            ring: vec![None; delay as usize],
            ring_pos: 0,
            ring_occ: vec![0u64; (delay as usize).div_ceil(64)],
            storage_live: 0,
            cycles_skipped: 0,
            zero_cell: Bytes::from(vec![0u8; config.cell_bytes]),
            forensics: ForensicRing::new(config.forensics_capacity),
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

    /// The current interface cycle (number of completed [`VpnmController::tick`] calls).
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

    /// Reads still in flight (accepted but not yet answered).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The keyed hash engine (exposed for adversary experiments that model
    /// an attacker with full knowledge of the mapping).
    pub fn hash(&self) -> &HashEngine {
        &self.hash
    }

    /// The bank `addr` maps to under the keyed universal hash (the
    /// fabric's per-bank regulator keys its buckets off this).
    pub fn bank_of(&self, addr: LineAddr) -> u32 {
        self.hash.bank_of(addr.0)
    }

    /// The forensic event ring, when enabled via
    /// [`VpnmConfig::forensics_capacity`].
    pub fn forensics(&self) -> &ForensicRing {
        &self.forensics
    }

    /// Interface cycles covered by event-horizon skips rather than
    /// individual ticks (the batch doors skip; [`VpnmController::tick`]
    /// never does).
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Freezes the current aggregate metrics into a serializable
    /// [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::capture(
            &self.config,
            self.delay,
            self.now(),
            self.cycles_skipped,
            &self.metrics,
        )
    }

    /// Advances exactly one interface cycle, optionally presenting one
    /// request, and reports the response due this cycle plus any stall.
    ///
    /// Malformed requests (address outside `addr_bits`, write data larger
    /// than the cell size) are rejected gracefully: the output carries
    /// [`StallKind::AddressRange`] / [`StallKind::OversizedWrite`], the
    /// rejection is counted in
    /// [`ControllerMetrics::malformed_rejections`], and the controller
    /// keeps running. Debug builds additionally `debug_assert!` so tests
    /// catch the caller bug at its source.
    pub fn tick(&mut self, request: Option<Request>) -> TickOutput {
        // The bank hash is total over u64 (always in range), so it can be
        // computed up front; `step` only consults it after validation.
        let bank = match &request {
            Some(req) => self.hash.bank_of(req.addr().0) as usize,
            None => 0,
        };
        let mut response = None;
        let mut emit = |r| response = Some(r);
        let stall = if self.forensics.is_enabled() {
            self.step::<true>(request, bank, &mut emit)
        } else {
            self.step::<false>(request, bank, &mut emit)
        };
        let depth = self.max_queue_depth();
        self.metrics.sample_cycle(depth, self.storage_live);
        TickOutput { response, stall }
    }

    /// One interface cycle with the bank mapping already computed —
    /// [`VpnmController::tick`] with the hash hoisted out so the batch
    /// drive loop can amortize hashing over a whole chunk. `bank` is only
    /// read for a `Some` request that passes validation. Inlined into its
    /// callers ([`VpnmController::tick`] and the two halves of the batch
    /// drive loop) so the request stays in registers instead of crossing a call boundary
    /// every simulated cycle, and a due response is handed to `emit` in
    /// place rather than moved out through a return value.
    ///
    /// `REC` compiles the seven forensic event sites in or out. Callers
    /// pass the value their entry point read from the ring, so the silent
    /// instantiation never branches on the forensics gate.
    #[inline]
    fn step<const REC: bool>(
        &mut self,
        request: Option<Request>,
        bank: usize,
        emit: &mut impl FnMut(Response),
    ) -> Option<StallKind> {
        // --- memory-clock domain: run memory cycles (with one bus grant
        // each) until the next interface edge falls. When no bank has
        // queued work a grant cannot do anything (an in-service access
        // keeps its queue slot, so empty queues imply idle banks), and the
        // whole remaining window is skipped in one step.
        loop {
            if self.ready_banks == 0 {
                self.clock.advance_to_interface();
                break;
            }
            let mt = self.clock.tick_memory();
            // The bus is a strict rotation: memory tick `m` belongs to
            // bank `(m - 1) mod B`. `banks` is validated to be a power of
            // two, so the wrap is a mask — this runs every memory cycle,
            // where a `div` would be the single most expensive
            // instruction in the loop.
            let rr = (mt.memory_cycle.as_u64() - 1) as u32 & (self.config.banks - 1);
            if let Some(bank) = self.pick_grant(rr, mt.memory_cycle) {
                // A grant to a bank whose in-service access has not yet
                // completed is a guaranteed no-op (`on_bus_grant` bails
                // before touching anything) — the packed busy lane answers
                // that from one hot cache line, so the wasted slot never
                // dereferences the BankController at all.
                let busy = self.bank_busy_until[bank];
                if busy != 0 && mt.memory_cycle.as_u64() < busy {
                    if mt.interface_tick {
                        break;
                    }
                    continue;
                }
                let g = self.banks[bank].on_bus_grant(&mut self.dram, mt.memory_cycle);
                // A grant can issue without retiring (busy-until changes,
                // depth does not), so the busy lane resyncs on every
                // grant; the depth lane only when a retire freed a slot
                // (the one queue movement a grant can cause).
                self.bank_busy_until[bank] = g.busy_until;
                if g.retired {
                    let after = g.depth as usize;
                    self.bank_queue_depth[bank] = g.depth;
                    if g.depth + 1 == self.max_depth_lane {
                        self.rescan_max_depth();
                    }
                    if after == 0 {
                        self.ready_banks -= 1;
                    }
                    if REC {
                        self.forensics.record(
                            self.clock.interface_now(),
                            bank as u32,
                            ForensicKind::QueueExit { queue_depth: g.depth },
                        );
                    }
                }
            }
            if mt.interface_tick {
                break;
            }
        }
        let now = self.clock.interface_now();

        // --- interface-clock domain: accept at most one request …
        let mut stall = None;
        let mut read_row: Option<(u32, RowId, TenantId)> = None;
        // Bank that allocated a storage row this tick, for end-of-tick
        // high-water-mark sampling (occupancy can only set a new maximum
        // on a tick that allocated).
        let mut alloc_bank: Option<usize> = None;
        if let Some(req) = request {
            if let Some(kind) = req.malformed(self.config.addr_bits, self.config.cell_bytes) {
                stall = Some(kind);
                self.metrics.record_stall(kind, now);
            } else {
                let addr = req.addr();
                let tenant = req.tenant();
                let event = match req {
                    Request::Read { addr, .. } => BankEvent::Read { addr },
                    Request::Write { addr, data, .. } => BankEvent::Write { addr, data },
                };
                match self.banks[bank].submit(event) {
                    Ok(Accepted::ReadQueued(row)) => {
                        self.metrics.reads_accepted += 1;
                        self.outstanding += 1;
                        self.metrics.note_outstanding(self.outstanding as u64);
                        read_row = Some((bank as u32, row, tenant));
                        self.storage_live += 1;
                        alloc_bank = Some(bank);
                        let after = self.banks[bank].queue_depth();
                        self.bank_queue_depth[bank] = after as u32;
                        self.max_depth_lane = self.max_depth_lane.max(after as u32);
                        self.metrics.note_bank_queue_depth(bank, after as u32);
                        // `after > 1` means the bank was already queued
                        // (and so already counted ready).
                        if after == 1 {
                            self.ready_banks += 1;
                        }
                        if REC {
                            self.forensics.record(
                                now,
                                bank as u32,
                                ForensicKind::Accepted { addr, row, queue_depth: after as u32 },
                            );
                        }
                    }
                    Ok(Accepted::ReadMerged(row)) => {
                        self.metrics.reads_accepted += 1;
                        self.metrics.reads_merged += 1;
                        self.outstanding += 1;
                        self.metrics.note_outstanding(self.outstanding as u64);
                        read_row = Some((bank as u32, row, tenant));
                        if REC {
                            let merged = ForensicKind::Merged { addr, row };
                            self.forensics.record(now, bank as u32, merged);
                        }
                    }
                    Ok(Accepted::WriteBuffered) => {
                        self.metrics.writes_accepted += 1;
                        let after = self.banks[bank].queue_depth();
                        self.bank_queue_depth[bank] = after as u32;
                        self.max_depth_lane = self.max_depth_lane.max(after as u32);
                        self.metrics.note_bank_queue_depth(bank, after as u32);
                        self.metrics.note_bank_write_depth(
                            bank,
                            self.banks[bank].write_buffer_depth() as u32,
                        );
                        if after == 1 {
                            self.ready_banks += 1;
                        }
                        if REC {
                            self.forensics.record(
                                now,
                                bank as u32,
                                ForensicKind::WriteAccepted { addr, queue_depth: after as u32 },
                            );
                        }
                    }
                    Err(kind) => {
                        stall = Some(kind);
                        self.metrics.record_stall(kind, now);
                        if REC {
                            let bc = &self.banks[bank];
                            let context = ForensicKind::Stalled {
                                kind,
                                addr,
                                storage_live: bc.storage_occupancy() as u32,
                                queue_depth: bc.queue_depth() as u32,
                                write_depth: bc.write_buffer_depth() as u32,
                            };
                            self.forensics.record(now, bank as u32, context);
                        }
                    }
                }
            }
        }

        // … and advance the shared playback wheel. At most one request
        // enters per interface cycle, so at most one playback falls due.
        let due = {
            let slot = &mut self.ring[self.ring_pos];
            let due = slot.take();
            *slot = read_row;
            // The occupancy bit already equals `due.is_some()`, so at full
            // rate (due read out, new read in) the bitmap needs no write.
            if due.is_some() != read_row.is_some() {
                let bit = 1u64 << (self.ring_pos % 64);
                let word = &mut self.ring_occ[self.ring_pos / 64];
                if read_row.is_some() {
                    *word |= bit;
                } else {
                    *word &= !bit;
                }
            }
            // Branch instead of `%`: the ring length is not a power of
            // two, and this wrap runs every interface cycle.
            let next = self.ring_pos + 1;
            self.ring_pos = if next == self.ring.len() { 0 } else { next };
            due
        };
        // The playback wheel knows every future deadline, so the row
        // falling due a few cycles from now can start its cache-line fill
        // today — by its deadline the row was last touched a whole bank
        // access ago and has long left the cache. (Ring slots themselves
        // stay resident: the wheel is walked sequentially every cycle.)
        const PLAYBACK_LEAD: usize = 8;
        if self.ring.len() > PLAYBACK_LEAD {
            let mut i = self.ring_pos + PLAYBACK_LEAD;
            if i >= self.ring.len() {
                i -= self.ring.len();
            }
            if let Some((bank, row, _)) = self.ring[i] {
                self.banks[bank as usize].prefetch_row(row);
            }
        }
        if let Some((bank, row, tenant)) = due {
            let bc = &mut self.banks[bank as usize];
            let live_before = bc.storage_occupancy();
            let pb = bc.playback(row);
            self.storage_live -= (live_before - bc.storage_occupancy()) as u64;
            let miss = pb.data.is_none();
            let data = match pb.data {
                Some(d) => d,
                None => {
                    self.metrics.deadline_misses += 1;
                    self.zero_cell.clone()
                }
            };
            self.outstanding -= 1;
            self.metrics.responses += 1;
            if REC {
                self.forensics.record(
                    now,
                    bank,
                    ForensicKind::Returned { addr: pb.addr, row, miss },
                );
            }
            emit(Response {
                addr: pb.addr,
                data,
                issued_at: Cycle::new(now.as_u64() - self.delay),
                completed_at: now,
                tenant,
            });
        }

        // occupancy sampling for the occupancy distributions — O(1) from
        // the incrementally maintained histogram and live-row counter.
        // The per-bank storage high-water mark is sampled at the tick
        // boundary (matching the reference engine's end-of-tick scan) and
        // only for the bank that allocated a row this tick — the only
        // bank whose boundary occupancy can have risen.
        if let Some(bank) = alloc_bank {
            self.metrics.note_bank_storage(bank, self.banks[bank].storage_occupancy() as u32);
        }
        // NOTE: the per-cycle occupancy sample (`sample_cycle`) is the
        // caller's duty — `tick` records it immediately, the batch drive
        // loop run-length-batches it (see `SampleRun`). Histogram updates
        // commute, so the final metrics are identical either way.

        #[cfg(debug_assertions)]
        self.check_incremental_invariants();

        stall
    }

    /// Current maximum bank queue depth. Cached: accepts can only raise
    /// it (one compare), and a retire can only lower it when the retiring
    /// bank sat at the cached maximum — only that case rescans the packed
    /// depth lane (a handful of vector instructions at paper bank counts).
    #[inline]
    fn max_queue_depth(&self) -> u64 {
        u64::from(self.max_depth_lane)
    }

    /// Rescans the depth lane after a retire dethroned the cached max.
    #[inline]
    fn rescan_max_depth(&mut self) {
        self.max_depth_lane = self.bank_queue_depth.iter().copied().max().unwrap_or(0);
    }

    /// Selects the bus grant for the memory cycle `now_mem`, whose
    /// round-robin owner is bank `rr`, per the configured policy.
    ///
    /// Semantically identical to granting the round-robin owner (or, for
    /// the work-conserving policy, the deepest ready queue when the owner
    /// would waste the slot) — but `None` short-circuits grants the
    /// original formulation issued to banks with empty queues, where
    /// `on_bus_grant` is a guaranteed no-op.
    #[inline]
    fn pick_grant(&self, rr: u32, now_mem: Cycle) -> Option<usize> {
        let rr = rr as usize;
        let owner_queued = self.bank_queue_depth[rr] != 0;
        match self.config.scheduler {
            SchedulerKind::RoundRobin => owner_queued.then_some(rr),
            SchedulerKind::WorkConserving => {
                // The round-robin owner keeps its slot whenever it has
                // useful work (preserving the per-bank service guarantee
                // that `recommended_delay` relies on); a slot the owner
                // would waste is reclaimed by the deepest ready queue —
                // the "idle slots … can be eliminated" optimization of
                // paper Section 4. Ties break to the last candidate in
                // rotated order, matching `Iterator::max_by_key` over the
                // original scan. The candidate filter reads the packed
                // busy/depth lanes — one cache line per eight banks —
                // instead of dereferencing every `BankController`.
                let now = now_mem.as_u64();
                if self.lane_wants_grant(rr, now) {
                    return Some(rr);
                }
                let mask = self.config.banks as usize - 1;
                let mut best: Option<(usize, u32)> = None;
                for i in 0..=mask {
                    let bank = (rr + i) & mask;
                    if !self.lane_wants_grant(bank, now) {
                        continue;
                    }
                    let depth = self.bank_queue_depth[bank];
                    match best {
                        Some((_, best_depth)) if depth < best_depth => {}
                        _ => best = Some((bank, depth)),
                    }
                }
                // The fallback grant to the owner still matters when the
                // owner's in-service access completed and can retire.
                best.map(|(bank, _)| bank).or(owner_queued.then_some(rr))
            }
        }
    }

    /// [`BankController::wants_grant`] evaluated from the packed
    /// scheduling lanes: the bank holds queued work and either sits idle
    /// or has a completed in-service access plus a successor to issue.
    /// Must stay bit-equivalent to the bank's own answer — the invariant
    /// checker and the grant property tests pin the two together.
    #[inline]
    fn lane_wants_grant(&self, bank: usize, now_mem: u64) -> bool {
        let depth = self.bank_queue_depth[bank];
        if depth == 0 {
            return false;
        }
        let busy = self.bank_busy_until[bank];
        busy == 0 || (now_mem >= busy && depth > 1)
    }

    /// Rebuilds the scheduling lanes from the per-bank ground truth.
    /// Only the tests need this: they hand-build bank states by calling
    /// [`BankController::submit`] directly, bypassing the accept path
    /// that normally keeps the lanes current.
    #[cfg(test)]
    fn resync_lanes(&mut self) {
        for (i, bc) in self.banks.iter().enumerate() {
            self.bank_queue_depth[i] = bc.queue_depth() as u32;
            self.bank_busy_until[i] = bc.in_service_until().map_or(0, |u| u.as_u64());
        }
        self.rescan_max_depth();
        self.ready_banks = self.bank_queue_depth.iter().filter(|&&d| d != 0).count() as u32;
    }

    /// Re-derives the incremental indices from first principles — compiled
    /// only into debug builds, where every test doubles as an equivalence
    /// check between the O(1) bookkeeping and the O(B) ground truth.
    #[cfg(debug_assertions)]
    fn check_incremental_invariants(&self) {
        let max = self.banks.iter().map(BankController::queue_depth).max().unwrap_or(0);
        debug_assert_eq!(max as u64, self.max_queue_depth(), "depth lane out of sync");
        let live: usize = self.banks.iter().map(BankController::storage_occupancy).sum();
        debug_assert_eq!(live as u64, self.storage_live, "live-row counter out of sync");
        let ready = self.banks.iter().filter(|bc| bc.queue_depth() > 0).count();
        debug_assert_eq!(ready, self.ready_banks as usize, "ready-bank count out of sync");
        for (i, bc) in self.banks.iter().enumerate() {
            debug_assert_eq!(
                self.bank_queue_depth[i] as usize,
                bc.queue_depth(),
                "queue-depth lane out of sync for bank {i}"
            );
            debug_assert_eq!(
                self.bank_busy_until[i],
                bc.in_service_until().map_or(0, |u| u.as_u64()),
                "busy-until lane out of sync for bank {i}"
            );
        }
        for (i, slot) in self.ring.iter().enumerate() {
            debug_assert_eq!(
                self.ring_occ[i / 64] >> (i % 64) & 1 == 1,
                slot.is_some(),
                "ring occupancy bit out of sync at slot {i}"
            );
        }
    }

    /// The one batch drive loop: advances `len` interface cycles as a
    /// **sparse epoch**, presenting request `k` of `count` on cycle offset
    /// `at(k).0` (offsets strictly increasing and `< len`) and running
    /// every other cycle idle. Produces exactly the responses, metrics and
    /// acceptance counts of the equivalent [`VpnmController::tick`]
    /// sequence — a property test pins this for every encoding — while
    /// amortizing two costs the per-tick path pays every cycle:
    ///
    /// * **Chunked batch hashing**: bank mappings are computed
    ///   [`HASH_CHUNK`] requests at a time through
    ///   [`HashEngine::hash_batch`] (SIMD where available) into stack
    ///   buffers, so the hash tables stay hot and no per-call allocation
    ///   scales with the epoch.
    /// * **Event-horizon skipping**: the idle gap before the next request
    ///   (or the end of the epoch) is known from the offsets alone, so
    ///   [`VpnmController::idle_span`] jumps the clock straight to the
    ///   next due playback whenever no bank is queued
    ///   ([`VpnmController::skip_idle`]); skipped spans are counted in
    ///   [`VpnmController::cycles_skipped`]. The cost of an epoch scales
    ///   with its requests and due playbacks, not with `len`.
    ///
    /// `at` is the caller's view of its own encoding, monomorphised in: a
    /// dense `&[Request]` has `at(k).0 == k`, so its gap test is a
    /// never-taken branch and no offset array is ever materialised. The
    /// presenting `step` below always carries a request and the idle one
    /// in `idle_span` never does, so each inlines specialised; funnelling
    /// both through one call site with a run-time `Option` measured 4–5 %
    /// slower on a dense stream. `REC` is the forensics gate its door
    /// read once (see [`VpnmController::step`]), threaded through
    /// unchanged.
    fn drive<'a, const REC: bool>(
        &mut self,
        len: u64,
        count: usize,
        at: impl Fn(usize) -> (u64, &'a Request),
    ) -> RunReport {
        debug_assert!(
            (1..count).all(|k| at(k - 1).0 < at(k).0) && (count == 0 || at(count - 1).0 < len),
            "offsets must be strictly increasing and < len"
        );
        let mut report = RunReport::default();
        // At steady state an epoch answers about as many reads as it
        // presents; reserving keeps collection off the reallocation path.
        report.responses.reserve(count);
        let mut samples = SampleRun::default();
        let mut addrs = [0u64; HASH_CHUNK];
        let mut banks = [0u32; HASH_CHUNK];
        // Cycles `0..i` of the epoch are done; requests `0..k` presented.
        let mut i = 0u64;
        let mut k = 0usize;
        while k < count {
            // The hash is total over u64, so malformed addresses hash
            // harmlessly — `step` validates before consulting the bank.
            let n = HASH_CHUNK.min(count - k);
            for (j, a) in addrs[..n].iter_mut().enumerate() {
                *a = at(k + j).1.addr().0;
            }
            self.hash.hash_batch(&addrs[..n], &mut banks[..n]);
            for (j, &bank) in banks[..n].iter().enumerate() {
                let (offset, request) = at(k + j);
                if i < offset {
                    self.idle_span::<REC>(offset - i, &mut samples, &mut report.responses);
                }
                let stall = self.step::<REC>(Some(request.clone()), bank as usize, &mut |r| {
                    report.responses.push(r)
                });
                let depth = self.max_queue_depth();
                samples.push(&mut self.metrics, depth, self.storage_live);
                match stall {
                    None => report.accepted += 1,
                    Some(kind) if kind.is_rejection() => report.rejected += 1,
                    Some(_) => report.stalled += 1,
                }
                i = offset + 1;
            }
            k += n;
        }
        if i < len {
            self.idle_span::<REC>(len - i, &mut samples, &mut report.responses);
        }
        samples.flush(&mut self.metrics);
        report
    }

    /// The request-free half of [`VpnmController::drive`]: advances `gap`
    /// interface cycles known to present nothing, jumping to the next
    /// due playback while no bank is queued and taking a normal idle step
    /// otherwise (a bank is queued, or a playback falls due on that very
    /// cycle). Not generic over the door's view, so every encoding shares
    /// one copy per `REC`.
    fn idle_span<const REC: bool>(
        &mut self,
        gap: u64,
        samples: &mut SampleRun,
        responses: &mut Vec<Response>,
    ) {
        let mut left = gap;
        while left > 0 {
            if self.ready_banks == 0 {
                let n = self.skip_idle::<REC>(left);
                if n > 0 {
                    left -= n;
                    continue;
                }
            }
            self.step::<REC>(None, 0, &mut |r| responses.push(r));
            let depth = self.max_queue_depth();
            samples.push(&mut self.metrics, depth, self.storage_live);
            left -= 1;
        }
    }

    /// Fast-forwards through up to `gap` interface cycles that are known
    /// to present no request, with no bank holding queued work
    /// (`ready_banks == 0`). Returns the cycles actually skipped: the
    /// distance to the next due playback caps the jump, and 0 means a
    /// playback falls due on the current cycle, which needs a normal step.
    ///
    /// Every controller field changes exactly as that many `tick(None)`
    /// calls would have changed it — no grant fires (no bank queued), no
    /// playback falls due (ring span empty), and queue depths / storage
    /// occupancy are frozen, so the occupancy samples are identical by
    /// bulk-recording.
    fn skip_idle<const REC: bool>(&mut self, gap: u64) -> u64 {
        debug_assert_eq!(self.ready_banks, 0);
        // Occupied ring slots equal `outstanding` reads, so an empty
        // controller skips the whole gap without scanning.
        let n = if self.outstanding == 0 { gap } else { gap.min(self.next_due_distance()) };
        if n > 0 {
            self.clock.advance_interfaces(n);
            self.ring_pos = ((self.ring_pos as u64 + n) % self.ring.len() as u64) as usize;
            let depth = self.max_queue_depth();
            self.metrics.sample_cycles(depth, self.storage_live, n);
            self.cycles_skipped += n;
            if REC {
                self.forensics.record(
                    self.clock.interface_now(),
                    0,
                    ForensicKind::FastForward { interface_cycles: n },
                );
            }
        }
        n
    }

    /// Interface cycles from now until the next occupied delay-ring slot
    /// falls due (0 when `ring[ring_pos]` itself is occupied), found by
    /// scanning the occupancy bitset a word at a time.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the ring is empty; callers guard on
    /// `outstanding > 0`.
    fn next_due_distance(&self) -> u64 {
        let len = self.ring.len();
        let pos = self.ring_pos;
        match first_set_bit(&self.ring_occ, pos, len) {
            Some(p) => (p - pos) as u64,
            None => {
                let p = first_set_bit(&self.ring_occ, 0, pos)
                    .expect("outstanding > 0 implies an occupied ring slot");
                (len - pos + p) as u64
            }
        }
    }

    /// Ticks with no request until all outstanding reads have been
    /// answered, returning the collected responses.
    ///
    /// # Panics
    ///
    /// Panics if draining takes more than `outstanding × D + D` cycles,
    /// which would indicate a broken deterministic-latency invariant.
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

    /// Re-keys the universal mapping and migrates the stored data — the
    /// paper's response to repeated stalls (Section 4: "change the
    /// universal mapping function and reordering the data on the
    /// occurrence of multiple stalls (an expensive operation, but
    /// certainly possible with frequency on the order of once a day)").
    ///
    /// Outstanding reads are drained first (the returned responses are
    /// handed back), then every populated line moves to its new bank.
    /// Returns `(drained_responses, lines_migrated)`.
    ///
    /// # Panics
    ///
    /// Panics if draining exceeds its budget, which would indicate a
    /// broken deterministic-latency invariant.
    pub fn rekey(&mut self, new_seed: u64) -> (Vec<Response>, u64) {
        let drained = self.drain();
        // Also flush buffered writes so the migration sees final contents.
        let mut guard = 0u64;
        while self.banks.iter().any(|b| b.queue_depth() > 0 || b.write_buffer_depth() > 0) {
            self.tick(None);
            guard += 1;
            assert!(guard <= 4 * self.delay * u64::from(self.config.banks), "write flush stuck");
        }
        let new_hash = HashEngine::from_seed(
            self.config.hash,
            self.config.addr_bits,
            self.config.bank_bits(),
            new_seed,
        );
        // Walk the populated cells: offset == line address in our layout,
        // so a line moves when its bank assignment changes.
        let mut moved = 0u64;
        for (bank, offset) in self.dram.populated() {
            let new_bank = new_hash.bank_of(offset);
            if new_bank != bank {
                let data = self.dram.take(bank, offset).expect("listed as populated");
                self.dram.poke(new_bank, offset, data);
                moved += 1;
            }
        }
        self.hash = new_hash;
        (drained, moved)
    }

    /// Submits a request under the given stall policy, ticking until it is
    /// accepted (Block) or giving up immediately (Drop). Returns all
    /// responses that became due while waiting, plus whether the request
    /// was ultimately accepted.
    ///
    /// Malformed requests are rejected immediately under either policy —
    /// retrying can never make an out-of-range address valid.
    pub fn submit_with_policy(
        &mut self,
        request: Request,
        policy: StallPolicy,
    ) -> (Vec<Response>, bool) {
        let mut responses = Vec::new();
        let pending = Some(request);
        loop {
            let out = self.tick(pending.clone());
            responses.extend(out.response);
            match (out.stall, policy) {
                (None, _) => return (responses, true),
                (Some(kind), _) if kind.is_rejection() => return (responses, false),
                (Some(_), StallPolicy::Drop) => return (responses, false),
                (Some(_), StallPolicy::Block) => {
                    // keep `pending` and retry next cycle
                    debug_assert!(pending.is_some());
                }
            }
        }
    }
}

/// Convenience constructors for the two request kinds.
impl VpnmController {
    /// Shorthand for ticking with a read request.
    pub fn tick_read(&mut self, addr: impl Into<LineAddr>) -> TickOutput {
        self.tick(Some(Request::read(addr.into())))
    }

    /// Shorthand for ticking with a write request.
    pub fn tick_write(&mut self, addr: impl Into<LineAddr>, data: impl Into<Bytes>) -> TickOutput {
        self.tick(Some(Request::write(addr.into(), data)))
    }
}

/// The trait surface: the four-method core forwards to the inherent
/// methods, and the batch doors are views over the one private `drive`
/// loop (the option-dense `run_epoch` door is the trait default, which
/// re-encodes sparsely and lands in `run_epoch_sparse`).
impl PipelinedMemory for VpnmController {
    fn delay(&self) -> u64 {
        // Explicit paths: the inherent methods share these names.
        VpnmController::delay(self)
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        VpnmController::tick(self, request)
    }

    fn outstanding(&self) -> usize {
        VpnmController::outstanding(self)
    }

    fn now(&self) -> Cycle {
        VpnmController::now(self)
    }

    fn drain(&mut self) -> Vec<Response> {
        VpnmController::drain(self)
    }

    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        let at = |k: usize| (requests[k].0, &requests[k].1);
        if self.forensics.is_enabled() {
            self.drive::<true>(len, requests.len(), at)
        } else {
            self.drive::<false>(len, requests.len(), at)
        }
    }

    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        // Dense view: offset(k) == k, so `drive`'s gap test never fires.
        let (len, at) = (requests.len() as u64, |k: usize| (k as u64, &requests[k]));
        if self.forensics.is_enabled() {
            self.drive::<true>(len, requests.len(), at)
        } else {
            self.drive::<false>(len, requests.len(), at)
        }
    }

    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        Some(VpnmController::bank_of(self, addr))
    }

    fn metrics(&self) -> Option<&ControllerMetrics> {
        Some(VpnmController::metrics(self))
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(VpnmController::snapshot(self))
    }

    fn total_stalls(&self) -> u64 {
        VpnmController::metrics(self).total_stalls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_engine::HashKind;
    use crate::memory::{sparse_of, ticked};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> VpnmController {
        VpnmController::new(VpnmConfig::small_test(), 1).unwrap()
    }

    #[test]
    fn every_read_latency_is_exactly_d() {
        let mut mem = small();
        let d = mem.delay();
        let mut rng = StdRng::seed_from_u64(7);
        let mut issued = 0u64;
        let mut completed = 0u64;
        for _ in 0..2000 {
            let addr = rng.gen_range(0..1u64 << 16);
            let out = mem.tick_read(addr);
            if out.accepted() {
                issued += 1;
            }
            if let Some(r) = out.response {
                assert_eq!(r.latency(), d, "latency must be deterministic");
                completed += 1;
            }
        }
        completed += mem.drain().len() as u64;
        assert_eq!(issued, completed);
        assert_eq!(mem.metrics().deadline_misses, 0);
    }

    #[test]
    fn read_your_writes() {
        let mut mem = small();
        for a in 0..32u64 {
            let out = mem.tick_write(a, vec![a as u8 + 1]);
            assert!(out.accepted());
        }
        let mut got = Vec::new();
        for a in 0..32u64 {
            let out = mem.tick_read(a);
            assert!(out.accepted());
            got.extend(out.response);
        }
        got.extend(mem.drain());
        assert_eq!(got.len(), 32);
        for r in got {
            assert_eq!(r.data[0], r.addr.0 as u8 + 1, "addr {}", r.addr);
        }
    }

    #[test]
    fn redundant_stream_merges_and_answers() {
        // "A,A,A,A,…" must be absorbed by the merging queue (paper
        // Section 3.4) without bank-access-queue pressure.
        let mut mem = small();
        mem.tick_write(5, vec![0x55]);
        let mut responses = 0;
        for _ in 0..500 {
            let out = mem.tick_read(5);
            assert!(out.accepted(), "merging must prevent stalls on A,A,A,…");
            responses += out.response.iter().len();
        }
        responses += mem.drain().len();
        assert_eq!(responses, 500);
        assert!(mem.metrics().reads_merged >= 490);
        assert_eq!(mem.metrics().total_stalls(), 0);
    }

    #[test]
    fn a_b_pattern_merges_too() {
        let mut mem = small();
        mem.tick_write(1, vec![0xA1]);
        mem.tick_write(2, vec![0xB2]);
        let mut responses: Vec<Response> = Vec::new();
        for i in 0..400 {
            let addr = if i % 2 == 0 { 1 } else { 2 };
            let out = mem.tick_read(addr);
            assert!(out.accepted());
            responses.extend(out.response);
        }
        responses.extend(mem.drain());
        assert_eq!(responses.len(), 400);
        for r in &responses {
            let want = if r.addr.0 == 1 { 0xA1 } else { 0xB2 };
            assert_eq!(r.data[0], want);
        }
        assert_eq!(mem.metrics().total_stalls(), 0);
    }

    #[test]
    fn adversarial_single_bank_stream_stalls_lowbits() {
        // With the non-universal low-bits mapping an adversary strides by
        // B and swamps one bank — the design the paper's randomization
        // fixes.
        let cfg = VpnmConfig::small_test().with_hash(HashKind::LowBits);
        let mut mem = VpnmController::new(cfg, 0).unwrap();
        let mut stalls = 0;
        for i in 0..200u64 {
            let out = mem.tick_read(i * 4); // all hit bank 0
            stalls += u64::from(!out.accepted());
        }
        assert!(stalls > 50, "expected heavy stalling, saw {stalls}");
        // And the same stream under H3 sails through (different banks).
        let cfg = VpnmConfig::small_test().with_hash(HashKind::H3);
        let mut mem = VpnmController::new(cfg, 3).unwrap();
        let mut h3_stalls = 0;
        for i in 0..200u64 {
            let out = mem.tick_read(i * 4);
            h3_stalls += u64::from(!out.accepted());
        }
        assert!(h3_stalls < stalls / 4, "h3 {h3_stalls} vs lowbits {stalls}");
    }

    #[test]
    fn first_stall_time_recorded() {
        let cfg = VpnmConfig::small_test().with_hash(HashKind::LowBits);
        let mut mem = VpnmController::new(cfg, 0).unwrap();
        for i in 0..100u64 {
            mem.tick_read(i * 4);
        }
        let m = mem.metrics();
        assert!(m.total_stalls() > 0);
        assert!(m.first_stall_at.is_some());
    }

    #[test]
    fn blocking_policy_eventually_accepts() {
        let cfg = VpnmConfig::small_test().with_hash(HashKind::LowBits);
        let mut mem = VpnmController::new(cfg, 0).unwrap();
        let mut accepted = 0;
        let mut responses = Vec::new();
        for i in 0..50u64 {
            let (rs, ok) =
                mem.submit_with_policy(Request::read(LineAddr(i * 4)), StallPolicy::Block);
            responses.extend(rs);
            accepted += u64::from(ok);
        }
        responses.extend(mem.drain());
        assert_eq!(accepted, 50);
        assert_eq!(responses.len(), 50);
    }

    #[test]
    fn drop_policy_loses_requests_but_continues() {
        let cfg = VpnmConfig::small_test().with_hash(HashKind::LowBits);
        let mut mem = VpnmController::new(cfg, 0).unwrap();
        let mut dropped = 0;
        let mut responses = Vec::new();
        for i in 0..100u64 {
            let (rs, ok) =
                mem.submit_with_policy(Request::read(LineAddr(i * 4)), StallPolicy::Drop);
            responses.extend(rs);
            dropped += u64::from(!ok);
        }
        assert!(dropped > 0);
        responses.extend(mem.drain());
        assert_eq!(responses.len() as u64, 100 - dropped);
    }

    #[test]
    fn mixed_random_workload_differentially_checked() {
        // Golden-model check against a plain map: every read result must
        // equal the last write accepted before the read was accepted.
        use std::collections::HashMap;
        let mut mem = small();
        let mut rng = StdRng::seed_from_u64(99);
        let mut golden: HashMap<u64, u8> = HashMap::new();
        let mut expected: HashMap<u64, Vec<u8>> = HashMap::new(); // keyed by issue cycle
        let mut all: Vec<Response> = Vec::new();
        for _ in 0..3000 {
            let addr = rng.gen_range(0..64u64);
            let out = if rng.gen_bool(0.3) {
                let v = rng.gen::<u8>();
                let out = mem.tick_write(addr, vec![v]);
                if out.accepted() {
                    golden.insert(addr, v);
                }
                out
            } else {
                let out = mem.tick_read(addr);
                if out.accepted() {
                    let snapshot = vec![golden.get(&addr).copied().unwrap_or(0)];
                    expected.insert(mem.now().as_u64(), snapshot);
                }
                out
            };
            all.extend(out.response);
        }
        all.extend(mem.drain());
        assert_eq!(mem.metrics().deadline_misses, 0);
        for r in all {
            let want = expected
                .remove(&r.issued_at.as_u64())
                .unwrap_or_else(|| panic!("unexpected response issued at {}", r.issued_at));
            assert_eq!(r.data[0], want[0], "addr {}", r.addr);
        }
        assert!(expected.is_empty(), "responses missing for {} reads", expected.len());
    }

    #[test]
    fn throughput_near_line_rate_under_uniform_load() {
        // Paper Section 3.2: "the memory bandwidth delivered by the entire
        // scheme is almost equal to the case where there are no bank
        // conflicts."
        let mut mem = VpnmController::new(VpnmConfig::test_roomy(), 5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let total = 20_000u64;
        let mut accepted = 0u64;
        for _ in 0..total {
            let out = mem.tick_read(rng.gen_range(0..1u64 << 16));
            accepted += u64::from(out.accepted());
        }
        let rate = accepted as f64 / total as f64;
        assert!(rate > 0.999, "acceptance rate {rate}");
    }

    #[test]
    fn rekey_preserves_data_and_changes_mapping() {
        use vpnm_hash::BankHasher;
        let mut mem = VpnmController::new(VpnmConfig::test_roomy(), 50).unwrap();
        for a in 0..64u64 {
            assert!(mem.tick_write(a, vec![a as u8]).accepted());
        }
        // put a read in flight to exercise the drain path
        mem.tick_read(7);
        let old_map: Vec<u32> = (0..64u64).map(|a| mem.hash().bank_of(a)).collect();
        let (drained, moved) = mem.rekey(51);
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].data[0], 7);
        let new_map: Vec<u32> = (0..64u64).map(|a| mem.hash().bank_of(a)).collect();
        assert_ne!(old_map, new_map, "re-keying must reshuffle banks");
        assert!(moved > 0, "some populated lines must have migrated");
        // every line still reads back correctly through the new mapping
        for a in 0..64u64 {
            assert!(mem.tick_read(a).accepted());
        }
        let responses = mem.drain();
        assert_eq!(responses.len(), 64);
        for r in responses {
            assert_eq!(r.data[0], r.addr.0 as u8, "post-rekey data intact at {}", r.addr);
        }
    }

    #[test]
    fn work_conserving_scheduler_upholds_invariants() {
        let cfg = VpnmConfig {
            scheduler: crate::config::SchedulerKind::WorkConserving,
            ..VpnmConfig::small_test()
        };
        let mut mem = VpnmController::new(cfg, 9).unwrap();
        let d = mem.delay();
        let mut rng = StdRng::seed_from_u64(31);
        let mut issued = 0u64;
        let mut done = 0u64;
        for _ in 0..5000 {
            let out = mem.tick_read(rng.gen_range(0..1u64 << 16));
            issued += u64::from(out.accepted());
            if let Some(r) = out.response {
                assert_eq!(r.latency(), d);
                done += 1;
            }
        }
        done += mem.drain().len() as u64;
        assert_eq!(issued, done);
        assert_eq!(mem.metrics().deadline_misses, 0);
    }

    #[test]
    fn work_conserving_never_stalls_more_than_round_robin() {
        // The reclaimed slots can only help: compare stall counts on the
        // same saturating stream.
        let run = |scheduler| {
            let cfg = VpnmConfig { scheduler, ..VpnmConfig::small_test() };
            let mut mem = VpnmController::new(cfg, 77).unwrap();
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..30_000 {
                mem.tick_read(rng.gen_range(0..1u64 << 16));
            }
            mem.metrics().total_stalls()
        };
        let rr = run(crate::config::SchedulerKind::RoundRobin);
        let wc = run(crate::config::SchedulerKind::WorkConserving);
        assert!(wc <= rr, "work-conserving ({wc}) must not exceed round-robin ({rr})");
    }

    #[test]
    fn merging_disabled_stalls_on_redundant_flood() {
        let cfg = VpnmConfig { merging: false, ..VpnmConfig::small_test() };
        let mut mem = VpnmController::new(cfg, 5).unwrap();
        let mut stalls = 0u64;
        for _ in 0..500 {
            stalls += u64::from(!mem.tick_read(42).accepted());
        }
        assert!(stalls > 300, "A,A,A flood must devastate the no-merge ablation: {stalls}");
    }

    #[test]
    fn out_of_range_address_rejected() {
        let mut mem = small();
        if cfg!(debug_assertions) {
            // Debug builds still assert at the source of the caller bug.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mem.tick_read(1u64 << 20);
            }));
            assert!(result.is_err(), "debug builds must assert on malformed addresses");
        } else {
            // Release builds reject gracefully and keep running.
            let out = mem.tick_read(1u64 << 20);
            assert_eq!(out.stall, Some(StallKind::AddressRange));
            assert!(!out.accepted());
            assert_eq!(mem.metrics().malformed_rejections, 1);
            assert_eq!(mem.metrics().total_stalls(), 0, "rejections are not stalls");
            assert!(mem.metrics().first_stall_at.is_none());
            assert!(mem.tick_read(1).accepted(), "controller must keep working");
        }
    }

    #[test]
    fn oversized_write_rejected() {
        let mut mem = small();
        let too_big = vec![0u8; mem.config().cell_bytes + 1];
        if cfg!(debug_assertions) {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mem.tick_write(1, too_big.clone());
            }));
            assert!(result.is_err(), "debug builds must assert on oversized writes");
        } else {
            let out = mem.tick_write(1, too_big);
            assert_eq!(out.stall, Some(StallKind::OversizedWrite));
            assert_eq!(mem.metrics().malformed_rejections, 1);
            assert_eq!(mem.metrics().total_stalls(), 0);
            assert!(mem.tick_write(1, vec![1]).accepted(), "controller must keep working");
        }
    }

    #[test]
    fn blocking_policy_gives_up_on_malformed_request() {
        if cfg!(debug_assertions) {
            return; // covered by the assertion tests above
        }
        let mut mem = small();
        // Under Block a retryable stall would loop; a rejection must
        // return immediately instead of spinning forever.
        let (rs, ok) = mem.submit_with_policy(Request::read(LineAddr(1 << 20)), StallPolicy::Block);
        assert!(!ok);
        assert!(rs.is_empty());
    }

    #[test]
    fn invalid_config_reports_error() {
        let cfg = VpnmConfig::small_test().with_banks(3);
        assert!(VpnmController::new(cfg, 0).is_err());
    }

    /// Snapshot bytes with the one sanctioned batch/tick divergence (the
    /// `cycles_skipped` drive-mode counter) masked off.
    fn snapshot_sans_skips(mem: &VpnmController) -> String {
        let mut snap = mem.snapshot();
        snap.cycles_skipped = 0;
        snap.to_json()
    }

    /// The one surviving drive-path property: **batch door ≡ `tick`
    /// sequence**. Runs `stream` (after ticking `prefix` into every twin,
    /// so epochs start from a warm state with reads in flight) through
    /// every encoding that can express it — option-dense `run_epoch`,
    /// sparse `run_epoch_sparse`, and, when no slot is idle, dense
    /// `issue_batch` — and demands byte-identical reports, clock, metrics
    /// and snapshot (modulo `cycles_skipped`, which must instead agree
    /// between the doors). Returns the cycles a batch door skipped, so
    /// callers can also assert the skip machinery actually engaged.
    fn assert_doors_match_ticks(
        cfg: &VpnmConfig,
        prefix: &[Option<Request>],
        stream: &[Option<Request>],
    ) -> u64 {
        let mk = || {
            let mut mem = VpnmController::new(cfg.clone(), 7).unwrap();
            ticked(&mut mem, prefix);
            mem
        };
        let mut oracle = mk();
        let want = ticked(&mut oracle, stream);
        assert_eq!(oracle.cycles_skipped(), 0, "tick never skips");

        let sparse = sparse_of(stream);
        let dense: Option<Vec<Request>> = stream.iter().cloned().collect();
        type Door<'a> = Box<dyn Fn(&mut VpnmController) -> RunReport + 'a>;
        let mut doors: Vec<(&str, Door<'_>)> = vec![
            ("run_epoch", Box::new(|m| m.run_epoch(stream))),
            ("run_epoch_sparse", Box::new(|m| m.run_epoch_sparse(stream.len() as u64, &sparse))),
        ];
        if let Some(dense) = &dense {
            doors.push(("issue_batch", Box::new(|m| m.issue_batch(dense))));
        }
        let mut twins = Vec::new();
        for (door, run) in &doors {
            let mut mem = mk();
            assert_eq!(run(&mut mem), want, "{door}: report");
            assert_eq!(mem.now(), oracle.now(), "{door}: clock");
            assert_eq!(mem.metrics(), oracle.metrics(), "{door}: metrics");
            assert_eq!(snapshot_sans_skips(&mem), oracle.snapshot().to_json(), "{door}: snapshot");
            twins.push((door, mem));
        }
        // Whatever is still in flight at the epoch seam must come out
        // identically afterwards.
        let want_drained = oracle.drain();
        let skipped = twins[0].1.cycles_skipped();
        for (door, mut mem) in twins {
            assert_eq!(mem.drain(), want_drained, "{door}: drain");
            // One loop behind every door: the same stream takes the same
            // skips whichever encoding it arrives in.
            assert_eq!(mem.cycles_skipped(), skipped, "{door}: skip accounting");
        }
        skipped
    }

    fn read(a: u64) -> Option<Request> {
        Some(Request::read(LineAddr(a)))
    }

    fn write(a: u64, v: u8) -> Option<Request> {
        Some(Request::write(LineAddr(a), vec![v]))
    }

    #[test]
    fn doors_match_ticks_on_a_dense_stream() {
        // Every cycle presents a request — reads, writes, repeats that
        // merge, and a colliding stride that stalls — across more than
        // one hash chunk, so all three encodings (dense included) run and
        // the chunk refill seam is crossed mid-stream.
        let stream: Vec<Option<Request>> = (0..(2 * HASH_CHUNK as u64 + 300))
            .map(|i| match i % 9 {
                0 => write(i % 64, i as u8),
                1 | 2 => read(i % 64),
                3 => read(42),
                4 => read((i % 256) * 64),
                _ => read(i * 37 % 5000),
            })
            .collect();
        for ratio in [1.0, 1.3] {
            let cfg = VpnmConfig::small_test().with_bus_ratio(ratio);
            assert_doors_match_ticks(&cfg, &[], &stream);
            // And from a warm start with reads already in flight.
            assert_doors_match_ticks(&cfg, &stream[..50], &stream[50..]);
        }
    }

    #[test]
    fn doors_match_ticks_across_gaps_longer_than_d() {
        // Bursts separated by idle gaps of at least D, plus an idle tail
        // past the last request: the batch doors must take event-horizon
        // skips and still be observationally identical to the ticked run.
        let cfg = VpnmConfig::small_test();
        let d = VpnmController::new(cfg.clone(), 7).unwrap().delay() as usize;
        let mut stream: Vec<Option<Request>> = Vec::new();
        for burst in 0..20u64 {
            for i in 0..12u64 {
                let a = (burst * 977 + i * 37) % 5000;
                stream.push(if i % 5 == 4 { write(a % 64, i as u8) } else { read(a) });
            }
            stream.extend(std::iter::repeat_n(None, d + burst as usize));
        }
        stream.extend(std::iter::repeat_n(None, 200));
        let skipped = assert_doors_match_ticks(&cfg, &[], &stream);
        assert!(skipped > 0, "gaps must be skipped");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn doors_match_ticks_with_malformed_requests_mid_batch() {
        // An out-of-range address and an oversized write in the middle of
        // a batch are rejected and counted exactly as `tick` rejects them
        // (debug builds assert at the source instead), and the requests
        // after them are unaffected.
        let cfg = VpnmConfig::small_test();
        let oob = Some(Request::read(LineAddr(1 << cfg.addr_bits)));
        let fat = Some(Request::write(LineAddr(3), vec![0u8; cfg.cell_bytes + 1]));
        let mut dense: Vec<Option<Request>> = (0..40u64).map(|i| read(i * 13 % 500)).collect();
        dense[17] = oob.clone();
        dense[23] = fat.clone();
        assert_doors_match_ticks(&cfg, &[], &dense);
        let mut gappy = dense.clone();
        gappy.splice(20..20, std::iter::repeat_n(None, 150));
        assert_doors_match_ticks(&cfg, &[], &gappy);
        let mut mem = VpnmController::new(cfg, 7).unwrap();
        let flat: Vec<Request> = dense.into_iter().flatten().collect();
        let report = mem.issue_batch(&flat);
        assert_eq!(report.rejected, 2);
        assert_eq!(mem.metrics().malformed_rejections, 2);
    }

    #[test]
    fn sparse_epoch_skip_lands_exactly_on_retire_cycle() {
        // One read in flight, then a pure-idle epoch: the event-horizon
        // jump must stop exactly at the ring slot where the playback falls
        // due, answer it with latency D, then skip the remaining budget.
        for ratio in [1.0, 1.3, 2.0] {
            let cfg = VpnmConfig::small_test().with_bus_ratio(ratio);
            let mut mem = VpnmController::new(cfg.clone(), 21).unwrap();
            let d = mem.delay();
            mem.tick_write(9, vec![0x5A]);
            assert!(mem.tick_read(9).accepted());
            let before = mem.now().as_u64();
            let report = mem.run_epoch_sparse(5 * d, &[]);
            assert_eq!(report.responses.len(), 1, "ratio {ratio}");
            let r = &report.responses[0];
            assert_eq!(r.latency(), d, "ratio {ratio}");
            assert_eq!(r.data[0], 0x5A, "ratio {ratio}");
            assert_eq!(mem.outstanding(), 0);
            assert_eq!(mem.now().as_u64(), before + 5 * d, "budget fully consumed");
            assert!(mem.cycles_skipped() > 0, "idle spans must be skipped");
            assert_eq!(mem.metrics().deadline_misses, 0);
            // The same scenario as a stream, through every door.
            let idle = vec![None; 5 * d as usize];
            assert_doors_match_ticks(&cfg, &[write(9, 0x5A), read(9)], &idle);
        }
    }

    #[test]
    fn doors_record_forensics_like_ticks() {
        // The batch doors' recording instantiation (`drive::<true>`) is
        // reached by nothing but this test. With the ring on, a door must
        // record exactly the events the `tick` sequence records, plus the
        // `FastForward` markers only its idle skip emits; with the ring
        // off it records nothing. The run itself — responses, metrics,
        // snapshot — must not depend on the capacity at all.
        let d = VpnmController::new(VpnmConfig::small_test(), 7).unwrap().delay() as usize;
        // A dense prefix across the hash-chunk seam: reads, writes, and
        // repeats that merge …
        let dense: Vec<Option<Request>> = (0..(2 * HASH_CHUNK as u64 + 300))
            .map(|i| match i % 7 {
                0 => write(i % 64, i as u8),
                1 | 2 => read(i % 64),
                3 => read(42),
                _ => read(i * 37 % 5000),
            })
            .collect();
        // … then bursts separated by idle stretches longer than D.
        let mut stream = dense.clone();
        for burst in 0..120u64 {
            for i in 0..24u64 {
                let a = (burst * 977 + i * 37) % 5000;
                stream.push(match i % 4 {
                    0 => write(a % 64, i as u8),
                    1 => read(7),
                    _ => read(a),
                });
            }
            stream.extend(std::iter::repeat_n(None, d + 1 + burst as usize % 9));
        }
        let sparse = sparse_of(&stream);
        let flat: Vec<Request> = dense.iter().flatten().cloned().collect();
        type Door<'a> = Box<dyn Fn(&mut VpnmController) -> RunReport + 'a>;
        let doors: [(&str, &[Option<Request>], Door<'_>); 2] = [
            (
                "run_epoch_sparse",
                &stream,
                Box::new(|m| m.run_epoch_sparse(stream.len() as u64, &sparse)),
            ),
            ("issue_batch", &dense, Box::new(|m| m.issue_batch(&flat))),
        ];
        let mut by_capacity = Vec::new();
        for cap in [0usize, 65536] {
            let cfg = VpnmConfig::small_test().with_forensics_capacity(cap);
            let mk = || VpnmController::new(cfg.clone(), 7).unwrap();
            let mut runs = Vec::new();
            for (door, input, run) in &doors {
                let mut oracle = mk();
                let want = ticked(&mut oracle, input);
                let mut mem = mk();
                let got = run(&mut mem);
                assert_eq!(got, want, "{door}, capacity {cap}: report");
                assert_eq!(mem.metrics(), oracle.metrics(), "{door}, capacity {cap}: metrics");
                assert_eq!(snapshot_sans_skips(&mem), oracle.snapshot().to_json(), "{door}");
                assert_eq!(mem.forensics().dropped(), 0, "{door}: the ring must not wrap");
                let (skips, events): (Vec<_>, Vec<_>) = mem
                    .forensics()
                    .events()
                    .into_iter()
                    .partition(|e| matches!(e.kind, ForensicKind::FastForward { .. }));
                assert_eq!(events, oracle.forensics().events(), "{door}, capacity {cap}: events");
                if cap == 0 {
                    assert!(events.is_empty() && skips.is_empty(), "{door}: ring off");
                } else {
                    // Every well-formed request leaves at least one event.
                    let requests = input.iter().flatten().count();
                    assert!(events.len() >= requests, "{door}: ring on records");
                    if *door == "run_epoch_sparse" {
                        assert!(!skips.is_empty(), "idle stretches must be fast-forwarded");
                    }
                }
                runs.push((got, mem.snapshot().to_json()));
            }
            by_capacity.push(runs);
        }
        assert_eq!(by_capacity[0], by_capacity[1], "capacity must not change the run");
    }

    proptest! {
        /// Batch door ≡ `tick` sequence over arbitrary streams — reads,
        /// writes that merge and forward, colliding strides that stall,
        /// idle runs long enough to trigger event-horizon skips, and an
        /// idle budget tail — in all three encodings: the stream itself
        /// through the option-dense and sparse doors, and its gap-free
        /// projection through the dense door as well.
        #[test]
        fn batch_doors_equal_tick_sequence(
            chunks in proptest::collection::vec(
                prop_oneof![
                    4 => (0u64..1 << 16).prop_map(|a| vec![read(a)]),
                    1 => (0u64..64u64, any::<u8>()).prop_map(|(a, v)| vec![write(a, v)]),
                    // Colliding reads: a stride the low-bits baseline
                    // would funnel into one bank, to exercise stalls.
                    1 => (0u64..256u64).prop_map(|a| vec![read(a * 64)]),
                    2 => (1usize..100).prop_map(|n| vec![None; n]),
                ],
                0..60,
            ),
            tail in 0usize..120,
            warm in 0usize..40,
            ratio_idx in 0usize..3,
        ) {
            let mut stream: Vec<Option<Request>> = chunks.concat();
            stream.extend(std::iter::repeat_n(None, tail));
            let cfg = VpnmConfig::small_test().with_bus_ratio([1.0, 1.3, 1.7][ratio_idx]);
            let warm = warm.min(stream.len());
            assert_doors_match_ticks(&cfg, &stream[..warm], &stream[warm..]);
            let dense: Vec<Option<Request>> =
                stream.iter().filter(|slot| slot.is_some()).cloned().collect();
            assert_doors_match_ticks(&cfg, &[], &dense);
        }
    }

    #[test]
    fn idle_gaps_preserve_deterministic_latency() {
        // The idle fast-forward must not disturb response timing, even at
        // a fractional memory/interface clock ratio where the skipped
        // window length varies cycle to cycle.
        for ratio in [1.0, 1.3, 2.0] {
            let cfg = VpnmConfig::small_test().with_bus_ratio(ratio);
            let mut mem = VpnmController::new(cfg, 21).unwrap();
            let d = mem.delay();
            mem.tick_write(9, vec![0x77]);
            // long idle stretch — fast-forwarded internally
            for _ in 0..10 * d {
                assert!(mem.tick(None).response.is_none());
            }
            let out = mem.tick_read(9);
            assert!(out.accepted());
            let responses = mem.drain();
            assert_eq!(responses.len(), 1, "ratio {ratio}");
            assert_eq!(responses[0].latency(), d, "ratio {ratio}");
            assert_eq!(responses[0].data[0], 0x77, "ratio {ratio}");
            assert_eq!(mem.metrics().deadline_misses, 0);
        }
    }

    #[test]
    fn response_payload_is_shared_not_copied() {
        // Zero-allocation data path: the response hands back the very
        // cell stored in DRAM, by refcount.
        let mut mem = small();
        let cell = mem.config().cell_bytes;
        mem.tick_write(3, vec![0xAB; cell]);
        mem.tick_read(3);
        let first = mem.drain();
        mem.tick_read(3);
        let second = mem.drain();
        assert_eq!(first[0].data, second[0].data);
        assert_eq!(
            first[0].data.as_slice().as_ptr(),
            second[0].data.as_slice().as_ptr(),
            "same backing DRAM cell across independent reads"
        );
    }

    /// The original O(B) grant scan, kept inline as the specification the
    /// indexed `pick_grant` is checked against.
    fn grant_spec(mem: &VpnmController, rr: usize, now_mem: Cycle) -> usize {
        match mem.config.scheduler {
            SchedulerKind::RoundRobin => rr,
            SchedulerKind::WorkConserving => {
                if mem.banks[rr].wants_grant(now_mem) {
                    return rr;
                }
                let b = mem.config.banks as usize;
                (0..b)
                    .map(|i| (rr + i) % b)
                    .filter(|&i| mem.banks[i].wants_grant(now_mem))
                    .max_by_key(|&i| mem.banks[i].queue_depth())
                    .unwrap_or(rr)
            }
        }
    }

    /// Probes `pick_grant` at a given round-robin position. Tests build
    /// bank states by hand (direct `submit` calls bypass the accept
    /// path), so the packed scheduling lanes are rebuilt before asking
    /// the picker.
    fn probe_grant(mem: &mut VpnmController, rr: u32, now_mem: Cycle) -> Option<usize> {
        mem.resync_lanes();
        mem.pick_grant(rr, now_mem)
    }

    #[test]
    fn work_conserving_grant_order_pinned() {
        // Regression pin for the lane-walk grant picker: a hand-built
        // queue state with a depth tie must grant exactly as the original
        // rotated `max_by_key` scan did (last maximal candidate wins).
        let cfg =
            VpnmConfig { scheduler: SchedulerKind::WorkConserving, ..VpnmConfig::small_test() };
        let mut mem = VpnmController::new(cfg, 1).unwrap();
        let banks = mem.config.banks as usize;
        assert!(banks >= 4);
        // depths: bank0 = 2, bank2 = 3, bank3 = 3, rest empty
        for (bank, depth) in [(0usize, 2usize), (2, 3), (3, 3)] {
            for i in 0..depth {
                let addr = LineAddr((bank * 1000 + i) as u64);
                mem.banks[bank].submit(BankEvent::Read { addr }).unwrap();
            }
        }
        let t = Cycle::ZERO;
        // owners with work keep their slot
        assert_eq!(probe_grant(&mut mem, 0, t), Some(0));
        assert_eq!(probe_grant(&mut mem, 2, t), Some(2));
        assert_eq!(probe_grant(&mut mem, 3, t), Some(3));
        // idle owners: deepest queue wins, ties to the later candidate in
        // rotated order — from bank 1 the order is 2, 3, 0, so bank 3
        assert_eq!(probe_grant(&mut mem, 1, t), Some(3));
        // from the last bank the order wraps: 0, 2, 3 → still bank 3
        assert_eq!(probe_grant(&mut mem, banks as u32 - 1, t), Some(3));
        // spec agreement on every start position
        for rr in 0..banks {
            let fast = probe_grant(&mut mem, rr as u32, t);
            let spec = grant_spec(&mem, rr, t);
            match fast {
                Some(g) => assert_eq!(g, spec, "rr={rr}"),
                None => assert_eq!(mem.banks[spec].queue_depth(), 0, "rr={rr}"),
            }
        }
    }

    #[test]
    fn round_robin_grant_skips_only_empty_banks() {
        let mut mem = small();
        let t = Cycle::ZERO;
        assert_eq!(probe_grant(&mut mem, 0, t), None, "no work anywhere");
        mem.banks[2].submit(BankEvent::Read { addr: LineAddr(1) }).unwrap();
        assert_eq!(probe_grant(&mut mem, 2, t), Some(2));
        assert_eq!(probe_grant(&mut mem, 1, t), None, "strict round-robin never reassigns");
    }

    proptest! {
        /// Work-conserving fairness: the round-robin owner is never
        /// displaced while it wants the grant, and the indexed picker
        /// agrees with the original O(B) scan in every reachable state.
        /// At 128 banks the rotated lane walk wraps at `B`, past a 64-bank
        /// word edge, with most banks empty or one deep.
        #[test]
        fn work_conserving_owner_never_displaced(
            addrs in proptest::collection::vec(0u64..(1 << 16), 1..300),
            banks_idx in 0usize..2,
        ) {
            let cfg = VpnmConfig {
                scheduler: SchedulerKind::WorkConserving,
                ..VpnmConfig::small_test().with_banks([4, 128][banks_idx])
            };
            let mut mem = VpnmController::new(cfg, 5).unwrap();
            let banks = mem.config.banks;
            for (i, &addr) in addrs.iter().enumerate() {
                if i % 5 == 4 {
                    mem.tick_write(addr, vec![i as u8]);
                } else {
                    mem.tick_read(addr);
                }
                // Probe the scheduler from every round-robin position in
                // the state this tick left behind. A probe round is
                // O(B²), so rounds are spaced B/4 ticks apart: every tick
                // at 4 banks, every 32nd at 128.
                if i % (banks as usize / 4) != 0 {
                    continue;
                }
                let now_mem = mem.clock.memory_now();
                for rr in 0..banks {
                    let fast = probe_grant(&mut mem, rr, now_mem);
                    if mem.banks[rr as usize].wants_grant(now_mem) {
                        prop_assert_eq!(
                            fast, Some(rr as usize),
                            "owner {} displaced", rr
                        );
                    }
                    let spec = grant_spec(&mem, rr as usize, now_mem);
                    match fast {
                        Some(g) => prop_assert_eq!(g, spec, "rr={}", rr),
                        // None elides a grant the spec wasted on an
                        // empty-queue bank.
                        None => prop_assert_eq!(
                            mem.banks[spec].queue_depth(), 0, "rr={}", rr
                        ),
                    }
                }
            }
        }
    }
}
