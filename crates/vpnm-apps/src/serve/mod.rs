//! Live serving front-end: concurrent producers driving a
//! fabric-backed packet buffer at a paced line rate.
//!
//! This module is the operational composition of everything below it —
//! the VPNM paper's deterministic-latency promise (every read accepted at
//! cycle `t` answers at exactly `t + D`, Section 4) turned into a serving
//! loop with the moving parts a deployment has:
//!
//! ```text
//!  producers (N threads)      calling thread: scheduler (epoch e+1)  memory thread (epoch e)
//!  ───────────────────        ─────────────────────────────────────  ───────────────────────
//!  Bernoulli(load) / trace ┌► bounded ingress queue, admit
//!  flow IDs from the mix ──┤  FlowTable: slot == queue, counters
//!  bounded lanes (park) ───┘  == head/tail pointers → cell address
//!                             egress-first schedule, payload bytes,
//!                             freeze arena, build requests ── work lane ──► run_epoch_owned
//!                                                                           → fabric workers
//!  egress ◄── pair, verify, latency ◄──── report lane (epoch e−1) ◄──── deterministic t+D return
//! ```
//!
//! **Two stages, one epoch in flight.** The scheduler never reads a
//! response to decide anything: admission and egress run on the flow
//! table's pointers, because every read returns at exactly `t + D`. So
//! it builds epoch e+1 and retires the report of epoch e−1 while the
//! memory thread runs epoch e. The memory thread owns the memory and
//! does nothing else: per epoch, one `run_epoch_owned` call, which moves
//! the requests into the memory, and the two hand-offs. Both are
//! `sync_channel(1)` lanes, and the emptied request buffer travels back
//! with its report.
//!
//! **Backpressure is explicit and bounded everywhere.** A packet that
//! cannot be absorbed is *rejected* at a named, counted boundary — never
//! queued unboundedly: tail drops at the ingress queue
//! ([`ServingMetrics::ingress_drops`]), full per-flow rings
//! (`flow_queue_drops`), a full flow table (`flow_table_drops`), and the
//! astronomically-rare memory stall (`stall_drops`). Producers that
//! outrun the server *park* on their bounded hand-off lanes
//! (`producer_parks`).
//!
//! **One memory operation per interface cycle** is shared between
//! enqueue (admit) and dequeue (transmit), so the serving loop is stable
//! for offered loads up to 0.5 packets/cycle; above that the overload
//! machinery is what's being exercised.
//!
//! **Determinism.** For a fixed seed and config, every simulation-domain
//! output — admissions, drops, latencies, the memory snapshot — is
//! byte-identical at any `--workers` or pacing rate. Producer content is
//! a pure function of `(seed, producer, epoch)`; the fabric's epoch path
//! is pinned byte-identical across worker counts; wall-clock influence
//! is confined to the measurement-domain fields that
//! [`ServingMetrics::canonical`] zeroes.

mod flow_table;
mod ingress;

pub use flow_table::FlowTable;
pub use ingress::{
    read_trace, write_trace, Arrival, ArrivalSource, EpochPlan, IngressRig, TRACE_MAGIC,
    TRACE_MAGIC_V2,
};

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

use bytes::Bytes;
use vpnm_core::{
    MetricsSnapshot, PipelinedMemory, Request, RunReport, ServingMetrics, TenantId, TenantStats,
    VpnmConfig,
};
use vpnm_sim::{FineHistogram, Histogram, WallPacer};
use vpnm_workloads::packets::{payload_extend, payload_matches};
use vpnm_workloads::{HeavyTailFlows, MultiTenantMix, Tagged, TenantFlowGen, UniformAddresses};

use crate::engine::EngineOpts;
use crate::packet_buffer::{cell_addr, check_region};

/// Flow-ID distribution for synthetic traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowMix {
    /// Uniform over `[0, space)` — maximizes distinct flows.
    Uniform {
        /// Flow-ID space size.
        space: u64,
    },
    /// Heavy-tailed (truncated-Zipf-like) over `[0, space)` — a few
    /// elephant flows carry ~half the packets
    /// ([`HeavyTailFlows`]).
    HeavyTail {
        /// Flow-ID space size.
        space: u64,
        /// Tail exponent; 1.0 ≈ Zipf(s = 1), larger is more skewed.
        skew: f64,
    },
    /// Multi-tenant blend ([`MultiTenantMix`]): `tenants - 1`
    /// well-behaved heavy-tailed tenants plus one adversarial tenant
    /// (the last ID) spending `adversary_pct` percent of the offered
    /// packets on a bank-stride sweep.
    MultiTenant {
        /// Flow-ID space size.
        space: u64,
        /// Total tenant count (the adversary is `tenants - 1`).
        tenants: u16,
        /// Percentage of offered packets from the adversary (0 = all
        /// tenants well-behaved).
        adversary_pct: u32,
        /// Bank count the adversary's stride assumes (fabric-global).
        banks: u64,
    },
}

impl FlowMix {
    /// The flow-ID space the mix draws from.
    pub fn space(&self) -> u64 {
        match self {
            FlowMix::Uniform { space }
            | FlowMix::HeavyTail { space, .. }
            | FlowMix::MultiTenant { space, .. } => *space,
        }
    }

    /// Rejects the parameters the mix's generator asserts on
    /// ([`UniformAddresses::new`], [`HeavyTailFlows::new`],
    /// [`MultiTenantMix::new`]), so a bad mix is an `Err` from
    /// [`run_serve`] instead of a panic in every producer thread.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the mix and what is wrong
    /// with it.
    pub fn check(&self) -> Result<(), String> {
        let invalid = |why: String| Err(format!("invalid flow mix {self:?}: {why}"));
        match *self {
            FlowMix::Uniform { space: 0 } => invalid("the flow space is empty".into()),
            FlowMix::HeavyTail { space, .. } | FlowMix::MultiTenant { space, .. } if space < 2 => {
                invalid("a heavy-tailed space needs at least 2 flows".into())
            }
            FlowMix::HeavyTail { skew, .. } if !(skew > 0.0 && skew.is_finite()) => {
                invalid("skew must be positive and finite".into())
            }
            FlowMix::MultiTenant { tenants: 0, .. } => invalid("no tenants".into()),
            FlowMix::MultiTenant { adversary_pct: 101.., .. } => {
                invalid("the adversary share is a percentage".into())
            }
            FlowMix::MultiTenant { tenants: 1, adversary_pct: 1.., .. } => {
                invalid("an adversarial tenant needs a well-behaved victim (tenants >= 2)".into())
            }
            FlowMix::MultiTenant { space, banks, adversary_pct: 1.., .. }
                if banks == 0 || space < banks =>
            {
                invalid(format!("the adversary's stride needs 1..={space} banks"))
            }
            _ => Ok(()),
        }
    }

    /// The mix's flow generator, seeded with `seed`. Panics on
    /// parameters [`FlowMix::check`] refuses.
    pub fn generator(&self, seed: u64) -> Box<dyn TenantFlowGen + Send> {
        match *self {
            FlowMix::Uniform { space } => {
                Box::new(Tagged::new(0, UniformAddresses::new(space, seed)))
            }
            FlowMix::HeavyTail { space, skew } => {
                Box::new(Tagged::new(0, HeavyTailFlows::new(space, skew, seed)))
            }
            FlowMix::MultiTenant { space, tenants, adversary_pct, banks } => {
                Box::new(MultiTenantMix::new(tenants, space, banks, adversary_pct, seed))
            }
        }
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine/fabric topology (the shared `--channels/--select/--workers`
    /// selection).
    pub engine: EngineOpts,
    /// Memory design point each channel runs.
    pub base: VpnmConfig,
    /// Concurrent producer threads (at least one).
    pub producers: u32,
    /// Offered window in interface cycles.
    pub cycles: u64,
    /// Cycles per epoch batch (the producer hand-off and
    /// `run_epoch_owned` unit).
    pub epoch_len: u64,
    /// Traffic source.
    pub source: ArrivalSource,
    /// Ingress-queue bound in packets; occupancy never exceeds it.
    pub queue_depth: usize,
    /// Per-flow buffer ring depth in cells: a power of two up to 2³², so
    /// that it divides the range of the flow table's 32-bit pointers.
    pub cells_per_queue: u64,
    /// Payload bytes per cell, `1..=base.cell_bytes`; the memory stores
    /// design-point-sized cells, zero-padded past the payload.
    pub cell_bytes: usize,
    /// Wall-clock pacing in interface cycles per second, `1..=1e9`;
    /// `None` = unpaced (as fast as the host allows).
    pub pace: Option<u64>,
    /// Root seed; all simulation-domain output is a pure function of
    /// `(seed, config)`.
    pub seed: u64,
    /// Verify every transmitted payload against the deterministic
    /// pattern it was enqueued with.
    pub verify: bool,
}

impl ServeConfig {
    /// A small, fast default suitable for tests and the README demo:
    /// 4 producers at load 0.45 over a heavy-tailed 2¹⁶-flow space.
    pub fn demo() -> Self {
        ServeConfig {
            engine: EngineOpts::default(),
            base: VpnmConfig::paper_optimal(),
            producers: 4,
            cycles: 200_000,
            epoch_len: 4096,
            source: ArrivalSource::Synthetic {
                load: 0.45,
                mix: FlowMix::HeavyTail { space: 1 << 16, skew: 1.0 },
            },
            queue_depth: 512,
            cells_per_queue: 16,
            cell_bytes: 64,
            pace: None,
            seed: 42,
            verify: true,
        }
    }

    /// The number of flow IDs the source draws from; `None` past
    /// `u64::MAX` (a trace holding flow `u64::MAX`).
    fn flow_space(&self) -> Option<u64> {
        match &self.source {
            ArrivalSource::Synthetic { mix, .. } => Some(mix.space()),
            ArrivalSource::Trace(t) => {
                t.iter().map(|a| a.flow).max().map_or(Some(1), |m| m.checked_add(1))
            }
        }
    }
}

/// Outcome of a serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The serving counters (also attached to [`ServeReport::snapshot`]).
    pub serving: ServingMetrics,
    /// The memory engine's merged snapshot with `serving` attached,
    /// when the engine exposes metrics.
    pub snapshot: Option<MetricsSnapshot>,
    /// Packets still unaccounted after the drain budget (0 on every
    /// healthy run; non-zero means the drain phase gave up).
    pub residual: u64,
}

/// One epoch on its way from the scheduler to the memory thread and
/// back: its length and its requests, each at its cycle offset. The
/// memory consumes the requests and the emptied buffer returns with the
/// epoch's report, so two of these shuttle between the stages for the
/// whole run.
#[derive(Default)]
struct EpochWork {
    len: u64,
    requests: Vec<(u64, Request)>,
}

/// What the memory thread hands back for one epoch.
type EpochDone = (RunReport, EpochWork);

/// In-flight bookkeeping for one offered packet after admission.
struct PendingCell {
    arrival: u64,
    slot: u32,
    seq: u64,
    tenant: u16,
}

/// Serve-side per-tenant accounting: the lane of `tenant` (out-of-range
/// IDs share the last lane). Only the drop, delivery and latency fields
/// are filled; they are folded into the snapshot's
/// [`TenantSection`](vpnm_core::TenantSection) on return.
#[inline]
fn tenant_lane(lanes: &mut [TenantStats], tenant: u16) -> &mut TenantStats {
    let last = lanes.len() - 1;
    &mut lanes[usize::from(tenant).min(last)]
}

/// The scheduling stage of [`run_serve`], on the calling thread:
/// admission, the egress policy, the head/tail pointers and the cell
/// addresses they give, payload generation, the epoch's requests, and
/// response pairing and delivery verification. It never touches the
/// memory. It sees the memory only through the epochs it sends and the
/// reports that come back.
///
/// Nothing a scheduling pass reads — the ingress queue, the transmit
/// FIFO, the flow table's pointers — depends on a response, so epoch e+1
/// can be scheduled before epoch e has run. Reports are absorbed in epoch
/// order, popping `issued` from the front while scheduling pushes at the
/// back, and every counter either side touches is a sum; the result is
/// the serial loop's, byte for byte.
struct Scheduler<'a> {
    cfg: &'a ServeConfig,
    table: FlowTable,
    /// Ingress entries carry their flow-table slot, resolved at
    /// admission time by one `slot_of` probe. Admission order equals
    /// FIFO service order, so hoisting the probe from service to
    /// admission preserves the exact probe sequence — and with it the
    /// table layout — byte for byte.
    ingress: VecDeque<(u64, Option<u32>, u16)>,
    tx_fifo: VecDeque<PendingCell>,
    /// Dequeues issued to the memory, in issue order: responses come
    /// back in the same order, since every read takes exactly `D`.
    issued: VecDeque<PendingCell>,
    /// The epoch's payload bytes, frozen into one arena per epoch.
    payload: Vec<u8>,
    /// Per-tenant lanes, allocated only when the engine selection is
    /// QoS-tracked.
    tenant_lanes: Option<Vec<TenantStats>>,
    serving: ServingMetrics,
    latency: FineHistogram,
    occupancy: Histogram,
    stalls_seen: u64,
}

impl<'a> Scheduler<'a> {
    fn new(cfg: &'a ServeConfig, capacity: u32) -> Self {
        Scheduler {
            cfg,
            table: FlowTable::new(capacity),
            // `queue_depth` is a bound, not a size: reserve no more than one
            // epoch of arrivals up front, so a huge bound cannot overflow
            // or exhaust the allocator.
            ingress: VecDeque::with_capacity(
                cfg.queue_depth.min(usize::try_from(cfg.epoch_len).unwrap_or(usize::MAX)),
            ),
            tx_fifo: VecDeque::new(),
            issued: VecDeque::new(),
            payload: Vec::new(),
            tenant_lanes: cfg
                .engine
                .qos()
                .map(|q| vec![TenantStats::default(); usize::from(q.tenants.max(1))]),
            serving: ServingMetrics {
                producers: cfg.producers,
                paced_rate: cfg.pace.unwrap_or(0),
                queue_bound: cfg.queue_depth,
                ..ServingMetrics::default()
            },
            latency: FineHistogram::new(),
            occupancy: Histogram::new(),
            stalls_seen: 0,
        }
    }

    /// Packets admitted or queued but not yet retired.
    fn backlog(&self) -> u64 {
        (self.ingress.len() + self.tx_fifo.len() + self.issued.len()) as u64
    }

    fn drop_one(&mut self, tenant: u16) {
        if let Some(lanes) = self.tenant_lanes.as_mut() {
            tenant_lane(lanes, tenant).dropped += 1;
        }
    }

    /// The epoch loop: the offered window, then idle drain epochs until
    /// everything admitted has retired (bounded budget: backlog +
    /// pipeline delay). Epoch e goes to the memory thread before the
    /// report for e−1 is absorbed, so the two stages overlap — except
    /// before the last offered epoch and every drain epoch, whose drain
    /// budget and `done` test must see every earlier report absorbed.
    fn run(
        mut self,
        delay: u64,
        started: Instant,
        work: SyncSender<EpochWork>,
        done: Receiver<EpochDone>,
    ) -> Result<Self, String> {
        let cfg = self.cfg;
        let plan = EpochPlan { cycles: cfg.cycles, epoch_len: cfg.epoch_len };
        let mut rig = IngressRig::spawn(cfg.producers, &cfg.source, plan, cfg.seed);
        let mut pacer = cfg.pace.map(WallPacer::new);
        let mut cycles_banked = 0u64;
        let offered_epochs = plan.epochs();
        let drain_budget =
            |backlog: u64, delay: u64, epoch_len: u64| (backlog + delay).div_ceil(epoch_len) + 2;
        let mut drain_end: Option<u64> = None;
        let mut spare = EpochWork::default();
        let mut in_flight = false;
        for epoch in 0.. {
            if epoch + 1 >= offered_epochs && in_flight {
                spare = self.absorb(&done)?;
                in_flight = false;
            }
            let (start, end) = if epoch < offered_epochs {
                plan.window(epoch)
            } else {
                let budget_exhausted = drain_end.is_some_and(|e| epoch >= e);
                if self.backlog() == 0 || budget_exhausted {
                    break;
                }
                let start = cfg.cycles + (epoch - offered_epochs) * cfg.epoch_len;
                (start, start + cfg.epoch_len)
            };

            let arrivals: &[Arrival] = if epoch < offered_epochs { rig.next_epoch() } else { &[] };
            if epoch + 1 == offered_epochs {
                let backlog = self.backlog() + arrivals.len() as u64 + cfg.epoch_len;
                drain_end = Some(offered_epochs + drain_budget(backlog, delay, cfg.epoch_len));
            }

            // Pace: wait until the wall clock has earned `len` more cycles.
            let len = end - start;
            if let Some(pacer) = pacer.as_mut() {
                loop {
                    let elapsed = started.elapsed().as_nanos() as u64;
                    cycles_banked += pacer.cycles_due(elapsed);
                    if cycles_banked >= len {
                        cycles_banked -= len;
                        break;
                    }
                    let wait = pacer.nanos_until_next(elapsed).max(1);
                    std::thread::sleep(std::time::Duration::from_nanos(wait.min(5_000_000)));
                }
            }

            let mut next = std::mem::take(&mut spare);
            self.schedule(start, end, arrivals, &mut next);
            work.send(next).map_err(|_| "the memory thread stopped")?;
            if in_flight {
                spare = self.absorb(&done)?;
            }
            in_flight = true;
        }
        // Join first, then take the exact park total: `join` reads the
        // counters with `Acquire` after every producer thread has exited,
        // so no in-flight increment is missed at shutdown.
        self.serving.producer_parks = rig.join();
        Ok(self)
    }

    /// Schedules the cycles `[start, end)` into `work`: one memory
    /// operation per cycle, shared between egress (transmit) and
    /// admission. The epoch's payload is then frozen into one arena, and
    /// every write carries a zero-copy slice of it.
    fn schedule(&mut self, start: u64, end: u64, arrivals: &[Arrival], work: &mut EpochWork) {
        let cfg = self.cfg;
        work.len = end - start;
        work.requests.clear();
        self.payload.clear();
        let mut next_arrival = 0usize;
        for c in start..end {
            while next_arrival < arrivals.len() && arrivals[next_arrival].cycle == c {
                let a = arrivals[next_arrival];
                self.serving.offered += 1;
                if self.ingress.len() >= cfg.queue_depth {
                    self.serving.ingress_drops += 1;
                    self.drop_one(a.tenant);
                } else {
                    self.ingress.push_back((a.cycle, self.table.slot_of(a.flow), a.tenant));
                }
                next_arrival += 1;
            }
            self.occupancy.record(self.ingress.len() as u64);

            let offset = c - start;
            // Egress-first when the transmit backlog has caught up with
            // ingress: keeps both sides bounded and the pipe full.
            if !self.tx_fifo.is_empty() && self.tx_fifo.len() >= self.ingress.len() {
                let cell = self.tx_fifo.pop_front().expect("non-empty");
                let head = self.table.note_dequeue(cell.slot);
                debug_assert_eq!(head, cell.seq, "per-flow FIFO order");
                let addr = cell_addr(cell.slot, head, cfg.cells_per_queue);
                work.requests.push((offset, Request::take_as(TenantId(cell.tenant), addr)));
                self.issued.push_back(cell);
            } else if let Some((arrived, slot, tenant)) = self.ingress.pop_front() {
                match slot {
                    None => {
                        self.serving.flow_table_drops += 1;
                        self.drop_one(tenant);
                    }
                    Some(slot) if u64::from(self.table.occupancy(slot)) >= cfg.cells_per_queue => {
                        self.serving.flow_queue_drops += 1;
                        self.drop_one(tenant);
                    }
                    Some(slot) => {
                        let seq = self.table.note_enqueue(slot);
                        payload_extend(slot, seq, cfg.cell_bytes, &mut self.payload);
                        let addr = cell_addr(slot, seq, cfg.cells_per_queue);
                        // The payload slice is filled in once the arena is frozen.
                        let write = Request::write_as(TenantId(tenant), addr, Bytes::default());
                        work.requests.push((offset, write));
                        self.serving.admitted += 1;
                        self.tx_fifo.push_back(PendingCell { arrival: arrived, slot, seq, tenant });
                    }
                }
            }
            self.serving.transmit_backlog_hwm =
                self.serving.transmit_backlog_hwm.max(self.tx_fifo.len() as u64);
        }

        self.freeze(work);
    }

    /// Freezes the epoch's payload into one arena — one allocation and
    /// one copy per epoch, on this thread (see `run_serve` on where
    /// long-lived memory is allocated) — and points each write at its
    /// zero-copy slice of it.
    fn freeze(&self, work: &mut EpochWork) {
        let cell_bytes = self.cfg.cell_bytes;
        let arena = Bytes::copy_from_slice(&self.payload);
        let mut start = 0;
        for (_, request) in &mut work.requests {
            if let Request::Write { data, .. } = request {
                *data = arena.slice(start..start + cell_bytes);
                start += cell_bytes;
            }
        }
    }

    /// Waits for the oldest epoch in flight, retires its deliveries
    /// (pairing, verification, latency) and returns its buffers.
    fn absorb(&mut self, done: &Receiver<EpochDone>) -> Result<EpochWork, String> {
        let cfg = self.cfg;
        let (run, work) = done.recv().map_err(|_| "the memory thread stopped")?;
        debug_assert_eq!(run.rejected, 0, "run_serve's checks admit no malformed request");
        self.stalls_seen += run.stalled;
        for r in run.responses {
            // A stalled read loses its response; skip (and count) the
            // orphaned issue-side entries until the response's queue.
            let queue = r.addr.0 / cfg.cells_per_queue;
            let cell = loop {
                let front = self.issued.pop_front().ok_or("response without an issued dequeue")?;
                if u64::from(front.slot) == queue {
                    break front;
                }
                self.serving.stall_drops += 1;
                self.drop_one(front.tenant);
            };
            // The device returns design-point-sized cells, zero-padded
            // past the `cell_bytes` the payload filled.
            let payload = r.data.get(..cfg.cell_bytes);
            if cfg.verify
                && !payload.is_some_and(|p| payload_matches(cell.slot, cell.seq, cfg.cell_bytes, p))
            {
                if self.stalls_seen == 0 {
                    return Err(format!(
                        "payload mismatch on stall-free run: flow slot {} seq {}",
                        cell.slot, cell.seq
                    ));
                }
                // A stalled write leaves a hole: the dequeue of its slot
                // reads the zero cell, because the dequeue of the slot's
                // previous cell freed it. The packet was lost to the
                // stall.
                self.serving.stall_drops += 1;
                self.drop_one(cell.tenant);
                continue;
            }
            self.serving.transmitted += 1;
            let waited = r.completed_at.as_u64().saturating_sub(cell.arrival);
            self.latency.record(waited);
            if let Some(lanes) = self.tenant_lanes.as_mut() {
                let lane = tenant_lane(lanes, cell.tenant);
                lane.transmitted += 1;
                lane.latency.record(waited);
            }
        }
        Ok(work)
    }
}

/// The memory thread of [`run_serve`]: builds the memory, reports its
/// pipeline delay (or the build error), then runs each epoch it receives
/// until the work lane closes, and returns the memory's snapshot.
fn run_memory(
    cfg: &ServeConfig,
    ready: &SyncSender<Result<u64, String>>,
    work: Receiver<EpochWork>,
    done: &SyncSender<EpochDone>,
) -> Option<MetricsSnapshot> {
    // The receiver outlives this thread: it is dropped only when the
    // scope returns.
    let reason = "the scheduler waits for the memory";
    let mut mem = match cfg.engine.build(cfg.base.clone(), cfg.seed) {
        Ok(mem) => mem,
        Err(e) => {
            ready.send(Err(e)).expect(reason);
            return None;
        }
    };
    ready.send(Ok(mem.delay())).expect(reason);
    for mut work in work {
        let run = mem.run_epoch_owned(work.len, &mut work.requests);
        if done.send((run, work)).is_err() {
            break;
        }
    }
    mem.snapshot()
}

/// Runs one serving session end to end: spawn producers, drive the
/// memory epoch by epoch (pacing if configured), drain, and account.
///
/// Two stages overlap. The calling thread is the scheduler: it owns the
/// producers, the flow table (whose counters are the queues' head and
/// tail pointers), the ingress, transmit and issued queues, pacing,
/// payload generation, response pairing and verification, and builds
/// epoch e+1 while a scoped memory thread runs epoch e. The memory
/// thread builds the memory itself (a `Box<dyn PipelinedMemory>` is not
/// `Send`) and per epoch runs only `run_epoch_owned`. Long-lived
/// payload memory is allocated on the calling thread: it freezes each
/// epoch's payload into the arena the device's storage pins. Freezing
/// it on the spawned thread instead raises peak RSS (docs/PERFORMANCE.md,
/// Layers 9 and 11).
///
/// On return every offered packet is accounted exactly once:
/// `offered == transmitted + ingress_drops + flow_queue_drops +
/// flow_table_drops + stall_drops + residual`
/// (see [`ServingMetrics::conserves`]).
///
/// # Errors
///
/// Returns a message for invalid geometry, memory config, pacing, load or
/// flow mix — checked before any producer thread starts — or, with
/// [`ServeConfig::verify`], for a payload that fails verification on a
/// stall-free run (which would be a correctness bug, not congestion).
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, String> {
    if cfg.epoch_len == 0 || cfg.cycles == 0 || cfg.producers == 0 || cfg.queue_depth == 0 {
        return Err("cycles, epoch_len, producers and queue_depth must be positive".into());
    }
    if cfg.cell_bytes == 0 || cfg.cell_bytes > cfg.base.cell_bytes {
        // Larger payloads would be rejected by the memory controller as
        // oversized writes on every single enqueue — catch the
        // misconfiguration here instead of silently dropping the run.
        return Err(format!(
            "cell_bytes {} must be in 1..={} (the memory design point's cell size)",
            cfg.cell_bytes, cfg.base.cell_bytes
        ));
    }
    if !(1u64 << 32).is_multiple_of(cfg.cells_per_queue) {
        // A cell's ring position is its flow-table pointer mod the depth,
        // and the pointers wrap at 2^32: any other depth would alias a
        // queued cell after the wrap.
        return Err(format!(
            "cells_per_queue {} must be a power of two up to 2^32",
            cfg.cells_per_queue
        ));
    }
    if let Some(rate) = cfg.pace.filter(|r| !(1..=1_000_000_000).contains(r)) {
        return Err(format!("pace {rate} must be in 1..=1e9 interface cycles per second"));
    }
    if let ArrivalSource::Synthetic { load, mix } = &cfg.source {
        mix.check()?;
        if !(0.0..=1.0).contains(load) {
            return Err(format!("load {load} must be in [0, 1] packets per cycle"));
        }
    }
    if cfg.epoch_len.saturating_mul(cfg.cell_bytes as u64) > u64::from(u32::MAX) {
        return Err("epoch_len * cell_bytes must fit in 32 bits (payload arena offsets)".into());
    }
    let capacity = cfg
        .flow_space()
        .and_then(u64::checked_next_power_of_two)
        .and_then(|c| u32::try_from(c.max(2)).ok())
        .ok_or("flow space too large")?;
    // The memory cannot see the queue layout; a region larger than the
    // memory would surface as rejected enqueues booked as stall drops.
    check_region(capacity, cfg.cells_per_queue, cfg.base.addr_bits)?;

    let (scheduler, snapshot, started) = std::thread::scope(|s| {
        let (ready_tx, ready_rx) = sync_channel::<Result<u64, String>>(1);
        let (work_tx, work_rx) = sync_channel::<EpochWork>(1);
        let (done_tx, done_rx) = sync_channel::<EpochDone>(1);
        // The memory thread. One epoch is in flight at a time on each
        // lane; the work lane closing (the scheduler returned) ends the
        // loop, and a closed report lane (the scheduler gave up on an
        // error) stops it.
        let memory = s.spawn(move || run_memory(cfg, &ready_tx, work_rx, &done_tx));
        let scheduler = Scheduler::new(cfg, capacity);
        let delay = ready_rx.recv().map_err(|_| "the memory thread stopped")??;
        let started = Instant::now();
        let scheduled = scheduler.run(delay, started, work_tx, done_rx);
        let snapshot = memory.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        Ok::<_, String>((scheduled?, snapshot, started))
    })?;
    let Scheduler {
        table,
        ingress,
        tx_fifo,
        issued,
        mut tenant_lanes,
        mut serving,
        latency,
        occupancy,
        ..
    } = scheduler;

    // Anything still unpaired after a full drain is an orphan of a
    // stalled (or regulator-deferred) read.
    serving.stall_drops += issued.len() as u64;
    if let Some(lanes) = tenant_lanes.as_mut() {
        for cell in &issued {
            tenant_lane(lanes, cell.tenant).dropped += 1;
        }
    }

    serving.flows = table.flows();
    serving.latency = latency;
    serving.ingress_occupancy = occupancy;
    serving.wall_nanos = started.elapsed().as_nanos() as u64;
    if serving.wall_nanos > 0 {
        serving.mpps = serving.transmitted as f64 / (serving.wall_nanos as f64 / 1e9) / 1e6;
    }

    let residual = (ingress.len() + tx_fifo.len()) as u64;
    debug_assert!(serving.conserves(residual), "packet conservation");
    let snapshot = snapshot.map(|mut s| {
        // Fold the serve-side attribution (drops, deliveries, latency)
        // into the fabric's tenant section, which already carries the
        // regulator-side issued/deferred counts.
        if let (Some(section), Some(lanes)) = (s.tenants.as_mut(), tenant_lanes.as_ref()) {
            for (stats, lane) in section.per_tenant.iter_mut().zip(lanes) {
                stats.merge_from(lane);
            }
        }
        s.with_serving(serving.clone())
    });
    Ok(ServeReport { serving, snapshot, residual })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpnm_core::ChannelSelect;

    fn small() -> ServeConfig {
        ServeConfig {
            base: VpnmConfig::test_roomy(),
            cycles: 50_000,
            epoch_len: 1024,
            source: ArrivalSource::Synthetic {
                load: 0.45,
                mix: FlowMix::Uniform { space: 1 << 10 },
            },
            cell_bytes: 8,
            ..ServeConfig::demo()
        }
    }

    #[test]
    fn sustained_load_transmits_every_packet() {
        let report = run_serve(&small()).unwrap();
        let s = &report.serving;
        assert!(s.offered > 20_000, "offered {}", s.offered);
        assert_eq!(s.transmitted, s.offered, "no loss below the stability bound");
        assert_eq!(s.ingress_drops + s.flow_queue_drops + s.flow_table_drops + s.stall_drops, 0);
        assert_eq!(report.residual, 0, "drain retires everything");
        assert!(s.conserves(0));
        assert_eq!(s.latency.total(), s.transmitted);
        // Every packet waits at least the deterministic pipeline delay.
        assert!(s.latency.min().unwrap() >= VpnmConfig::test_roomy().recommended_delay());
        assert!(s.flows > 900, "uniform over 1024 flows, saw {}", s.flows);
        let snap = report.snapshot.expect("engine exposes metrics");
        assert_eq!(snap.serving.as_ref().unwrap().canonical(), s.canonical());
    }

    #[test]
    fn bad_configs_are_errors_not_panics() {
        let mix =
            |mix| ServeConfig { source: ArrivalSource::Synthetic { load: 0.45, mix }, ..small() };
        let load = |load| ServeConfig {
            source: ArrivalSource::Synthetic { load, mix: FlowMix::Uniform { space: 1 << 10 } },
            ..small()
        };
        let max_flow = vec![Arrival { cycle: 0, flow: u64::MAX, tenant: 0 }];
        let tenants = |tenants, adversary_pct, banks| FlowMix::MultiTenant {
            space: 1 << 10,
            tenants,
            adversary_pct,
            banks,
        };
        let cases = [
            ("no producers", ServeConfig { producers: 0, ..small() }),
            ("pace above 1e9", ServeConfig { pace: Some(2_000_000_000), ..small() }),
            ("pace of zero", ServeConfig { pace: Some(0), ..small() }),
            ("zero-byte cells", ServeConfig { cell_bytes: 0, ..small() }),
            ("one heavy-tail flow", mix(FlowMix::HeavyTail { space: 1, skew: 1.0 })),
            ("zero skew", mix(FlowMix::HeavyTail { space: 1 << 10, skew: 0.0 })),
            ("empty uniform space", mix(FlowMix::Uniform { space: 0 })),
            ("no tenants", mix(tenants(0, 0, 8))),
            ("adversary share above 100 %", mix(tenants(4, 101, 8))),
            ("adversary without a victim", mix(tenants(1, 25, 8))),
            ("stride wider than the space", mix(tenants(4, 25, 1 << 11))),
            ("stride over no banks", mix(tenants(4, 25, 0))),
            ("buffer larger than the memory", ServeConfig { cells_per_queue: 128, ..small() }),
            ("ring depth not a power of two", ServeConfig { cells_per_queue: 12, ..small() }),
            (
                // Refused by `VpnmController::new`, on the memory thread.
                "memory config the controller refuses",
                ServeConfig {
                    base: VpnmConfig { banks: 3, ..VpnmConfig::test_roomy() },
                    ..small()
                },
            ),
            ("flow space above 2^63", mix(FlowMix::Uniform { space: u64::MAX })),
            (
                "trace holding flow u64::MAX",
                ServeConfig {
                    source: ArrivalSource::Trace(std::sync::Arc::new(max_flow)),
                    ..small()
                },
            ),
            ("load above 1", load(1.5)),
            ("negative load", load(-0.1)),
            ("NaN load", load(f64::NAN)),
        ];
        for (label, cfg) in cases {
            assert!(run_serve(&cfg).is_err(), "{label}: must be rejected before producers start");
        }
        // The edges of each check still run.
        assert!(run_serve(&mix(FlowMix::Uniform { space: 1 })).is_ok());
        assert!(run_serve(&mix(tenants(1, 0, 0))).is_ok());
        assert!(run_serve(&ServeConfig { cells_per_queue: 64, ..small() }).is_ok());
        assert!(run_serve(&ServeConfig { queue_depth: usize::MAX, ..small() }).is_ok());
        assert!(run_serve(&load(0.0)).is_ok());
        assert!(run_serve(&load(1.0)).is_ok());
    }

    #[test]
    fn stalled_writes_are_stall_drops_not_payload_errors() {
        // The small geometry with Q = 8 (a four-cell write buffer) stalls
        // reads and writes at load 0.45. A stalled read orphans its
        // dequeue: one stall drop per read stall at most, and reads stall
        // only on the access queue or the delay storage. Every drop past
        // those is a stalled write whose slot was still dequeued, read
        // back as the zero cell, and booked by verification as a stall
        // drop instead of failing the run.
        let cfg = ServeConfig {
            base: VpnmConfig::small_test().with_queue(8).with_storage_rows(16),
            ..small()
        };
        let report = run_serve(&cfg).expect("stalls are congestion, not a correctness bug");
        let s = &report.serving;
        let metrics = &report.snapshot.expect("engine exposes metrics").metrics;
        assert!(metrics.write_buffer_stalls > 0, "the config must stall writes");
        let read_stalls_at_most = metrics.access_queue_stalls + metrics.delay_storage_stalls;
        assert!(s.stall_drops > read_stalls_at_most, "{} drops", s.stall_drops);
        assert!(s.conserves(report.residual));
        assert_eq!(report.residual, 0);
    }

    #[test]
    fn cells_smaller_than_the_design_point_verify_their_prefix() {
        // The device hands back design-point cells zero-padded past the
        // payload; only the payload's own bytes are compared.
        let base = VpnmConfig::paper_optimal();
        let cfg = ServeConfig { cell_bytes: base.cell_bytes / 2, base, cycles: 20_000, ..small() };
        let s = run_serve(&cfg).unwrap().serving;
        assert!(s.offered > 8_000, "offered {}", s.offered);
        assert_eq!(s.transmitted, s.offered, "every packet verifies and is transmitted");
    }

    #[test]
    fn overload_keeps_ingress_bounded_and_accounts_drops() {
        let cfg = ServeConfig {
            queue_depth: 64,
            source: ArrivalSource::Synthetic {
                load: 0.9,
                mix: FlowMix::HeavyTail { space: 1 << 10, skew: 1.0 },
            },
            ..small()
        };
        let report = run_serve(&cfg).unwrap();
        let s = &report.serving;
        assert!(s.ingress_drops > 0, "offered 0.9 > service 0.5 must tail-drop");
        assert!(s.ingress_occupancy.max().unwrap() <= 64, "occupancy never exceeds the bound");
        assert!(s.transmitted < s.offered);
        assert!(s.conserves(report.residual));
        assert_eq!(report.residual, 0);
    }

    #[test]
    fn full_flow_table_drops_new_flows() {
        let cfg = ServeConfig {
            source: ArrivalSource::Synthetic {
                load: 0.4,
                // space 16 over a 16-slot table: once all 16 slots are
                // claimed nothing drops; shrink the table via a trace
                // with more flows than slots instead.
                mix: FlowMix::Uniform { space: 16 },
            },
            cycles: 4_000,
            ..small()
        };
        // 40 distinct flows, table capacity next_pow2(40) = 64 — no table
        // drops; now force them with a trace whose flow space rounds to a
        // tiny table but carries more distinct flows than slots. The
        // trace path sizes the table from the max flow ID.
        let trace: Vec<Arrival> =
            (0..200u64).map(|i| Arrival { cycle: i * 2, flow: i % 7, tenant: 0 }).collect();
        let traced = ServeConfig {
            source: ArrivalSource::Trace(std::sync::Arc::new(trace)),
            cycles: 400,
            ..cfg.clone()
        };
        let report = run_serve(&traced).unwrap();
        assert_eq!(report.serving.flows, 7);
        assert!(report.serving.conserves(report.residual));
        // And the synthetic small-space run conserves too.
        let r2 = run_serve(&cfg).unwrap();
        assert!(r2.serving.conserves(r2.residual));
        assert_eq!(r2.serving.flows, 16);
    }

    #[test]
    fn multi_tenant_serve_attributes_every_packet_and_contains_the_adversary() {
        use vpnm_core::RegulatorMode;
        let banks = u64::from(VpnmConfig::test_roomy().banks) * 2;
        let mk = |regulator| ServeConfig {
            engine: EngineOpts {
                channels: 2,
                select: ChannelSelect::UniversalHash,
                tenants: 4,
                regulator,
                tenant_rate: (1, 4),
                tenant_burst: 8,
                ..EngineOpts::default()
            },
            cycles: 30_000,
            source: ArrivalSource::Synthetic {
                load: 0.45,
                mix: FlowMix::MultiTenant { space: 1 << 10, tenants: 4, adversary_pct: 40, banks },
            },
            ..small()
        };

        // Tracked but unregulated: the section is present, serve-side
        // attribution is exact, nothing is deferred.
        let tracked = run_serve(&mk(RegulatorMode::Off)).unwrap();
        let snap = tracked.snapshot.as_ref().expect("fabric exposes metrics");
        let section = snap.tenants.as_ref().expect("qos selection implies a tenant section");
        assert_eq!(section.per_tenant.len(), 4);
        let s = &tracked.serving;
        let transmitted: u64 = section.per_tenant.iter().map(|t| t.transmitted).sum();
        let dropped: u64 = section.per_tenant.iter().map(|t| t.dropped).sum();
        assert_eq!(transmitted, s.transmitted, "per-tenant deliveries sum to the total");
        assert_eq!(
            dropped,
            s.ingress_drops + s.flow_queue_drops + s.flow_table_drops + s.stall_drops,
            "per-tenant drops sum to the total"
        );
        assert!(section.per_tenant.iter().all(|t| t.deferred == 0), "off mode never defers");
        assert!(section.per_tenant.iter().all(|t| t.transmitted > 0));
        let lat_total: u64 = section.per_tenant.iter().map(|t| t.latency.total()).sum();
        assert_eq!(lat_total, s.latency.total(), "per-tenant latency covers every delivery");

        // Regulated: the adversarial tenant (last ID, 40% of offered
        // packets against a 25% budget) absorbs the deferrals; the
        // well-behaved tenants keep transmitting.
        let regulated = run_serve(&mk(RegulatorMode::Global)).unwrap();
        let rsec = regulated.snapshot.as_ref().unwrap().tenants.as_ref().expect("tenant section");
        let adv = &rsec.per_tenant[3];
        assert!(adv.deferred > 0, "the greedy tenant must be throttled");
        for (i, t) in rsec.per_tenant.iter().take(3).enumerate() {
            assert!(t.transmitted > 0, "victim t{i} starved");
            assert!(
                adv.deferred > 4 * t.deferred,
                "deferrals concentrate on the adversary: adv {} vs t{i} {}",
                adv.deferred,
                t.deferred
            );
        }
    }

    #[test]
    fn deferred_dequeue_after_the_last_response_is_counted_once() {
        // Regression: a dequeue the regulator defers after the last
        // delivered response is an orphan in both the buffer's in-flight
        // FIFO and the loop's `issued` FIFO; counting it from both broke
        // conservation by one per orphan. The greedy tenant keeps sending
        // through the final offered epoch against a 1/8 budget, so its
        // last dequeues are deferred with no later response behind them.
        use vpnm_core::RegulatorMode;
        let cycles = 2048u64;
        let trace: Vec<Arrival> = (0..cycles)
            .step_by(4)
            .map(|c| Arrival { cycle: c, flow: (c / 4) % 64, tenant: u16::from(c % 16 != 0) })
            .collect();
        let cfg = ServeConfig {
            engine: EngineOpts {
                channels: 2,
                select: ChannelSelect::UniversalHash,
                tenants: 2,
                regulator: RegulatorMode::Global,
                tenant_rate: (1, 8),
                tenant_burst: 2,
                ..EngineOpts::default()
            },
            cycles,
            epoch_len: 512,
            source: ArrivalSource::Trace(std::sync::Arc::new(trace)),
            ..small()
        };
        let report = run_serve(&cfg).unwrap();
        let s = &report.serving;
        assert_eq!(s.offered, cycles / 4);
        assert!(s.stall_drops > 0, "the regulator must defer the greedy tenant");
        assert!(
            s.conserves(report.residual),
            "offered {} != transmitted {} + stall drops {} + other drops {} + residual {}",
            s.offered,
            s.transmitted,
            s.stall_drops,
            s.ingress_drops + s.flow_queue_drops + s.flow_table_drops,
            report.residual
        );
        let section = report.snapshot.as_ref().unwrap().tenants.as_ref().expect("qos section");
        let dropped: u64 = section.per_tenant.iter().map(|t| t.dropped).sum();
        assert_eq!(
            dropped,
            s.ingress_drops + s.flow_queue_drops + s.flow_table_drops + s.stall_drops,
            "per-tenant drops sum to the total"
        );
    }

    #[test]
    fn canonical_results_are_identical_across_worker_counts() {
        let base = ServeConfig {
            engine: EngineOpts {
                channels: 4,
                select: ChannelSelect::UniversalHash,
                workers: 1,
                ..EngineOpts::default()
            },
            cycles: 20_000,
            source: ArrivalSource::Synthetic {
                load: 0.45,
                mix: FlowMix::HeavyTail { space: 1 << 12, skew: 1.0 },
            },
            ..small()
        };
        let one = run_serve(&base).unwrap();
        let four = run_serve(&ServeConfig {
            engine: EngineOpts { workers: 4, ..base.engine },
            ..base.clone()
        })
        .unwrap();
        assert_eq!(one.serving.canonical(), four.serving.canonical());
        let canonical_json = |r: &ServeReport| {
            let mut snap = r.snapshot.clone().expect("engine exposes metrics");
            snap.serving = snap.serving.map(|m| m.canonical());
            snap.to_json()
        };
        assert_eq!(
            canonical_json(&one),
            canonical_json(&four),
            "simulation domain is byte-identical at any worker count"
        );
        // Pacing moves wall time only, never a packet.
        let paced = run_serve(&ServeConfig { pace: Some(20_000_000), ..base.clone() }).unwrap();
        assert_eq!(
            one.serving.canonical(),
            ServingMetrics { paced_rate: 0, ..paced.serving.canonical() },
            "pacing changes only the config echo, never a packet"
        );
        assert!(paced.serving.wall_nanos >= 900_000, "20k cycles at 20M/s is >= ~1ms");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The serving layer's two backpressure invariants, under random
        /// load (including deep overload), bounds, and seeds:
        /// ingress occupancy never exceeds the configured bound, and
        /// every offered packet is accounted exactly once.
        #[test]
        fn ingress_bounded_and_packets_conserved(
            load_pct in 5u32..100,
            queue_depth in 1usize..96,
            producers in 1u32..6,
            seed in 0u64..1000,
        ) {
            let load = f64::from(load_pct) / 100.0;
            let cfg = ServeConfig {
                engine: EngineOpts::default(),
                base: VpnmConfig::test_roomy(),
                producers,
                cycles: 6_000,
                epoch_len: 512,
                source: ArrivalSource::Synthetic {
                    load,
                    mix: FlowMix::HeavyTail { space: 256, skew: 1.0 },
                },
                queue_depth,
                cells_per_queue: 8,
                cell_bytes: 8,
                pace: None,
                seed,
                verify: true,
            };
            let report = run_serve(&cfg).unwrap();
            let s = &report.serving;
            if let Some(max) = s.ingress_occupancy.max() {
                prop_assert!(max <= queue_depth as u64,
                    "occupancy {max} exceeded bound {queue_depth}");
            }
            prop_assert!(s.conserves(report.residual),
                "offered {} != transmitted {} + drops {}+{}+{}+{} + residual {}",
                s.offered, s.transmitted, s.ingress_drops, s.flow_queue_drops,
                s.flow_table_drops, s.stall_drops, report.residual);
            prop_assert_eq!(s.latency.total(), s.transmitted);
        }
    }
}
