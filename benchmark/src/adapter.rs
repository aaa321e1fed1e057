//! The benchmark's only door into the workspace.
//!
//! Every call the benchmark makes into `crates/*` and `compat/*` is in
//! this file, and no other file of the benchmark names a workspace crate
//! (a unit test checks that). A change that removes or re-signs one of
//! the items used here must come with a benchmark issue; `README.md`
//! lists them under "API contract". The types re-exported below are the
//! data half of the same contract: other files read their public fields
//! but call nothing on them except through this file.

use std::sync::Arc;

pub use bytes::Bytes;
pub use vpnm_apps::packet_buffer::{BufferEpochReport, LaneEvent, VpnmPacketBuffer};
pub use vpnm_apps::serve::{Arrival, FlowTable, IngressRig, ServeConfig, ServeReport};
pub use vpnm_core::{
    HashEngine, IdealMemory, MetricsSnapshot, PipelinedMemory, Request, Response, RunReport,
    ServingMetrics, VpnmController, VpnmFabric,
};
pub use vpnm_dram::{DramDevice, DramStats};
pub use vpnm_hash::ChannelSelector;
pub use vpnm_sim::{FineHistogram, Histogram};

use vpnm_apps::engine::EngineOpts;
use vpnm_apps::serve::{ArrivalSource, EpochPlan};
use vpnm_core::ring::{spsc, SpscReceiver, SpscSender};
use vpnm_core::{
    ChannelSelect, ControllerMetrics, LineAddr, RegulatorMode, TenantId, TickOutput, VpnmConfig,
};
use vpnm_dram::DramConfig;
use vpnm_sim::Cycle;
use vpnm_workloads::{AddressGenerator, HeavyTailFlows, UniformAddresses};

use crate::trace::{Origin, Span};

// ---------------------------------------------------------------- engines

/// The engine topology of a workload, in the benchmark's own terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Memory channels (1 = a bare controller, no fabric).
    pub channels: u32,
    /// Fabric worker threads.
    pub workers: usize,
    /// Tenants sharing the fabric (1 = no QoS section).
    pub tenants: u16,
    /// `Global` regulator at rate 1/4, burst 16, when set.
    pub regulated: bool,
}

impl Topology {
    /// One bare controller.
    pub const BARE: Topology = Topology { channels: 1, workers: 1, tenants: 1, regulated: false };
}

/// The design point of every workload: `VpnmConfig::paper_optimal()`.
pub fn design_point() -> VpnmConfig {
    VpnmConfig::paper_optimal()
}

/// The deterministic latency `D` of the design point.
pub fn design_delay() -> u64 {
    design_point().effective_delay()
}

fn engine_opts(t: &Topology) -> EngineOpts {
    EngineOpts {
        channels: t.channels,
        select: if t.channels > 1 { ChannelSelect::UniversalHash } else { ChannelSelect::LowBits },
        workers: t.workers,
        tenants: t.tenants,
        regulator: if t.regulated { RegulatorMode::Global } else { RegulatorMode::Off },
        tenant_rate: (1, 4),
        tenant_burst: 16,
        ..EngineOpts::default()
    }
}

/// `EngineOpts::build`: the engine exactly as `run_serve` builds it.
pub fn build_engine(t: &Topology, seed: u64) -> Result<Box<dyn PipelinedMemory>, String> {
    engine_opts(t).build(design_point(), seed)
}

/// `VpnmController::new` at the design point.
pub fn bare_controller(seed: u64) -> Result<VpnmController, String> {
    VpnmController::new(design_point(), seed)
}

/// `VpnmFabric::with_engines` over the same geometry `build_engine` uses,
/// each channel produced by `wrap(controller)`.
pub fn fabric_of<M: PipelinedMemory + Send + 'static>(
    t: &Topology,
    seed: u64,
    mut wrap: impl FnMut(VpnmController) -> M,
) -> Result<VpnmFabric<M>, String> {
    let cfg = engine_opts(t).fabric_config(design_point());
    let mut fab =
        VpnmFabric::with_engines(cfg, seed, |_, c, s| VpnmController::new(c, s).map(&mut wrap))?;
    fab.set_workers(t.workers);
    Ok(fab)
}

/// `IdealMemory::new` with the design point's delay and cell size.
pub fn ideal_memory() -> IdealMemory {
    IdealMemory::new(design_delay(), design_point().cell_bytes)
}

/// `Request::read_as` / `Request::write_as`.
pub fn request(addr: u64, tenant: u16, data: Option<Bytes>) -> Request {
    match data {
        None => Request::read_as(TenantId(tenant), LineAddr(addr)),
        Some(d) => Request::write_as(TenantId(tenant), LineAddr(addr), d),
    }
}

/// `(addr, is_write, tenant)` of a request.
pub fn request_parts(r: &Request) -> (u64, bool, u16) {
    (r.addr().0, !r.is_read(), r.tenant().0)
}

/// `(addr, issued_at, completed_at)` of a response.
pub fn response_parts(r: &Response) -> (u64, u64, u64) {
    (r.addr.0, r.issued_at.as_u64(), r.completed_at.as_u64())
}

/// `Bytes::from(Vec<u8>)`.
pub fn arena(bytes: Vec<u8>) -> Bytes {
    Bytes::from(bytes)
}

/// `Bytes::slice`.
pub fn arena_slice(arena: &Bytes, start: usize, end: usize) -> Bytes {
    arena.slice(start..end)
}

/// `PipelinedMemory::now` as a plain number.
pub fn mem_now<M: PipelinedMemory + ?Sized>(mem: &M) -> u64 {
    mem.now().as_u64()
}

/// `PipelinedMemory::delay`.
pub fn mem_delay<M: PipelinedMemory + ?Sized>(mem: &M) -> u64 {
    mem.delay()
}

/// `PipelinedMemory::issue_batch`.
pub fn issue_batch<M: PipelinedMemory + ?Sized>(mem: &mut M, requests: &[Request]) -> RunReport {
    mem.issue_batch(requests)
}

/// `PipelinedMemory::run_epoch_sparse`.
pub fn run_epoch_sparse<M: PipelinedMemory + ?Sized>(
    mem: &mut M,
    len: u64,
    requests: &[(u64, Request)],
) -> RunReport {
    mem.run_epoch_sparse(len, requests)
}

/// `PipelinedMemory::drain`.
pub fn drain<M: PipelinedMemory + ?Sized>(mem: &mut M) -> Vec<Response> {
    mem.drain()
}

/// `PipelinedMemory::snapshot`.
pub fn snapshot_of<M: PipelinedMemory + ?Sized>(mem: &M) -> Option<MetricsSnapshot> {
    mem.snapshot()
}

// ------------------------------------------------------------ the serving run

/// The geometry of one serving workload, in the benchmark's own terms.
#[derive(Debug, Clone, Copy)]
pub struct ServeGeometry {
    /// Offered window in interface cycles.
    pub cycles: u64,
    /// Cycles per epoch.
    pub epoch_len: u64,
    /// Ingress queue bound in packets.
    pub queue_depth: usize,
    /// Cells per flow queue.
    pub cells_per_queue: u64,
    /// Producer threads.
    pub producers: u32,
}

/// An arrival of the trace.
pub fn arrival(cycle: u64, flow: u64, tenant: u16) -> Arrival {
    Arrival { cycle, flow, tenant }
}

/// The `ServeConfig` of a workload: trace source, unpaced, verifying.
pub fn serve_config(
    g: &ServeGeometry,
    t: &Topology,
    trace: Arc<Vec<Arrival>>,
    seed: u64,
) -> ServeConfig {
    ServeConfig {
        engine: engine_opts(t),
        base: design_point(),
        producers: g.producers,
        cycles: g.cycles,
        epoch_len: g.epoch_len,
        source: ArrivalSource::Trace(trace),
        queue_depth: g.queue_depth,
        cells_per_queue: g.cells_per_queue,
        cell_bytes: design_point().cell_bytes,
        pace: None,
        seed,
        verify: true,
    }
}

/// `vpnm_apps::serve::run_serve`.
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, String> {
    vpnm_apps::serve::run_serve(cfg)
}

/// The snapshot JSON with the measurement-domain serving fields zeroed
/// (`ServingMetrics::canonical` + `MetricsSnapshot::to_json`).
pub fn canonical_json(snapshot: &MetricsSnapshot) -> String {
    let mut s = snapshot.clone();
    s.serving = s.serving.map(|m| m.canonical());
    s.to_json()
}

/// `ServingMetrics::conserves`.
pub fn conserves(serving: &ServingMetrics, residual: u64) -> bool {
    serving.conserves(residual)
}

/// Quantile, minimum and sample count of a latency histogram.
pub fn latency_quantile(h: &FineHistogram, q: f64) -> u64 {
    h.quantile(q).unwrap_or(0)
}

/// Smallest recorded latency.
pub fn latency_min(h: &FineHistogram) -> Option<u64> {
    h.min()
}

/// `Histogram::quantile` of the ingress occupancy.
pub fn occupancy_quantile(h: &Histogram, q: f64) -> u64 {
    h.quantile(q).unwrap_or(0)
}

/// Memory-engine stalls (`ControllerMetrics::total_stalls`) and memory
/// requests presented (accepted + stalled).
pub fn stalls_and_requests(m: &ControllerMetrics) -> (u64, u64) {
    (m.total_stalls(), m.accepted() + m.total_stalls())
}

/// The largest value in each per-bank high-water lane.
pub fn bank_hwms(m: &ControllerMetrics) -> (u64, u64, u64) {
    let max = |v: &[u32]| u64::from(v.iter().copied().max().unwrap_or(0));
    (max(&m.bank_queue_hwm), max(&m.bank_storage_hwm), max(&m.bank_write_hwm))
}

// ------------------------------------- the serving loop's parts (driver.rs)

/// What the driver needs from a `ServeConfig` besides its public fields.
pub struct ServeParts {
    /// Flow-table capacity == packet-buffer queue count.
    pub capacity: u32,
    /// Epochs in the offered window.
    pub offered_epochs: u64,
    /// Tenant lanes to keep (0 = untracked).
    pub tenant_lanes: usize,
    plan: EpochPlan,
}

/// The derived geometry `run_serve` computes up front.
pub fn serve_parts(cfg: &ServeConfig) -> Result<ServeParts, String> {
    let ArrivalSource::Trace(trace) = &cfg.source else {
        return Err("the benchmark serves traces only".into());
    };
    let space = trace.iter().map(|a| a.flow).max().map_or(1, |m| m + 1);
    let capacity = u32::try_from(space.next_power_of_two().max(2))
        .map_err(|_| "flow space too large".to_string())?;
    let plan = EpochPlan { cycles: cfg.cycles, epoch_len: cfg.epoch_len };
    Ok(ServeParts {
        capacity,
        offered_epochs: plan.epochs(),
        tenant_lanes: cfg.engine.qos().map_or(0, |q| usize::from(q.tenants.max(1))),
        plan,
    })
}

impl ServeParts {
    /// `EpochPlan::window`.
    pub fn window(&self, epoch: u64) -> (u64, u64) {
        self.plan.window(epoch)
    }
}

/// `IngressRig::spawn`.
pub fn rig_spawn(cfg: &ServeConfig, parts: &ServeParts) -> IngressRig {
    IngressRig::spawn(cfg.producers, &cfg.source, parts.plan, cfg.seed)
}

/// `IngressRig::next_epoch`.
pub fn rig_next_epoch(rig: &mut IngressRig) -> &[Arrival] {
    rig.next_epoch()
}

/// `IngressRig::join`.
pub fn rig_join(rig: IngressRig) -> u64 {
    rig.join()
}

/// `FlowTable::new`.
pub fn flow_table(capacity: u32) -> FlowTable {
    FlowTable::new(capacity)
}

/// `FlowTable::slots_of_batch`.
pub fn slots_of_batch(t: &mut FlowTable, flows: &[u64], out: &mut Vec<Option<u32>>) {
    t.slots_of_batch(flows, out);
}

/// `FlowTable::slot_of`.
pub fn slot_of(t: &mut FlowTable, flow: u64) -> Option<u32> {
    t.slot_of(flow)
}

/// `FlowTable::occupancy`.
pub fn flow_occupancy(t: &FlowTable, slot: u32) -> u64 {
    u64::from(t.occupancy(slot))
}

/// `FlowTable::note_enqueue`.
pub fn note_enqueue(t: &mut FlowTable, slot: u32) -> u64 {
    t.note_enqueue(slot)
}

/// `FlowTable::note_dequeue`.
pub fn note_dequeue(t: &mut FlowTable, slot: u32) -> u64 {
    t.note_dequeue(slot)
}

/// `FlowTable::flows`.
pub fn flow_count(t: &FlowTable) -> u64 {
    t.flows()
}

/// `vpnm_workloads::packets::payload_extend`.
pub fn payload_extend(slot: u32, seq: u64, size: usize, out: &mut Vec<u8>) {
    vpnm_workloads::packets::payload_extend(slot, seq, size, out);
}

/// `vpnm_workloads::packets::payload_matches`.
pub fn payload_matches(slot: u32, seq: u64, size: usize, data: &[u8]) -> bool {
    vpnm_workloads::packets::payload_matches(slot, seq, size, data)
}

/// `VpnmPacketBuffer::with_memory`.
pub fn packet_buffer<M: PipelinedMemory>(
    mem: M,
    queues: u32,
    cells_per_queue: u64,
) -> Result<VpnmPacketBuffer<M>, String> {
    VpnmPacketBuffer::with_memory(mem, queues, cells_per_queue)
}

/// `VpnmPacketBuffer::delay`.
pub fn buffer_delay<M: PipelinedMemory>(buf: &VpnmPacketBuffer<M>) -> u64 {
    buf.delay()
}

/// `VpnmPacketBuffer::run_epoch_arena`.
pub fn run_epoch_arena<M: PipelinedMemory>(
    buf: &mut VpnmPacketBuffer<M>,
    len: u64,
    events: &[(u64, LaneEvent)],
    arena: &Bytes,
) -> BufferEpochReport {
    buf.run_epoch_arena(len, events, arena)
}

/// `VpnmPacketBuffer::reconcile_lost`.
pub fn reconcile_lost<M: PipelinedMemory>(buf: &mut VpnmPacketBuffer<M>) -> u64 {
    buf.reconcile_lost()
}

/// `VpnmPacketBuffer::memory`.
pub fn buffer_memory<M: PipelinedMemory>(buf: &VpnmPacketBuffer<M>) -> &M {
    buf.memory()
}

/// The serve-side per-tenant lanes `run_serve` folds into the snapshot.
pub struct TenantLanes {
    /// Drops per tenant.
    pub dropped: Vec<u64>,
    /// Deliveries per tenant.
    pub transmitted: Vec<u64>,
    latency: Vec<FineHistogram>,
}

impl TenantLanes {
    /// Lanes for `tenants` tenants.
    pub fn new(tenants: usize) -> Self {
        TenantLanes {
            dropped: vec![0; tenants],
            transmitted: vec![0; tenants],
            latency: vec![FineHistogram::new(); tenants],
        }
    }

    /// The lane of `tenant` (out-of-range ids clamp to the last).
    pub fn lane(&self, tenant: u16) -> usize {
        usize::from(tenant).min(self.dropped.len() - 1)
    }

    /// Records a delivery.
    pub fn deliver(&mut self, tenant: u16, waited: u64) {
        let lane = self.lane(tenant);
        self.transmitted[lane] += 1;
        self.latency[lane].record(waited);
    }
}

/// The latency and occupancy recorders of the serving loop.
#[derive(Default)]
pub struct ServeHistograms {
    latency: FineHistogram,
    occupancy: Histogram,
}

impl ServeHistograms {
    /// `FineHistogram::record`.
    pub fn latency(&mut self, waited: u64) {
        self.latency.record(waited);
    }

    /// `Histogram::record`.
    pub fn occupancy(&mut self, depth: u64) {
        self.occupancy.record(depth);
    }
}

/// The empty `ServingMetrics` `run_serve` starts from.
pub fn serving_metrics(cfg: &ServeConfig) -> ServingMetrics {
    ServingMetrics {
        producers: cfg.producers,
        paced_rate: 0,
        queue_bound: cfg.queue_depth,
        ..ServingMetrics::default()
    }
}

/// The tail of `run_serve`: attach histograms to `serving`, take the
/// memory's snapshot, fold the tenant lanes in and attach `serving`.
pub fn finish_snapshot<M: PipelinedMemory>(
    buf: &VpnmPacketBuffer<M>,
    serving: &mut ServingMetrics,
    hist: ServeHistograms,
    lanes: Option<&TenantLanes>,
) -> Option<MetricsSnapshot> {
    serving.latency = hist.latency;
    serving.ingress_occupancy = hist.occupancy;
    buf.memory().snapshot().map(|mut s| {
        if let (Some(section), Some(lanes)) = (s.tenants.as_mut(), lanes) {
            for (i, stats) in section.per_tenant.iter_mut().enumerate() {
                if i < lanes.dropped.len() {
                    stats.dropped += lanes.dropped[i];
                    stats.transmitted += lanes.transmitted[i];
                    stats.latency.merge(&lanes.latency[i]);
                }
            }
        }
        s.with_serving(serving.clone())
    })
}

// ------------------------------------------------------------------ tracing

/// One captured call into a memory: the span length and the requests
/// presented, as `(cycle offset, request)`.
#[derive(Debug, Clone)]
pub struct CapturedEpoch {
    /// Cycles the call advanced.
    pub len: u64,
    /// The requests presented.
    pub requests: Vec<(u64, Request)>,
}

/// A [`PipelinedMemory`] that records a span around every batch call into
/// the memory it wraps, and optionally captures the request stream.
///
/// It forwards **every** trait method, those with default bodies too: a
/// missed `issue_batch` or `run_epoch_sparse` would fall back to the
/// trait's tick loop and measure a different program.
#[derive(Debug)]
pub struct Traced<M> {
    inner: M,
    layer: &'static str,
    origin: Origin,
    calls: u64,
    spans: Vec<Span>,
    capture_left: usize,
    captured: Vec<CapturedEpoch>,
}

impl<M: PipelinedMemory> Traced<M> {
    /// Wraps `inner`, recording spans under `layer` on `origin`'s clock.
    pub fn new(inner: M, layer: &'static str, origin: Origin) -> Self {
        Traced {
            inner,
            layer,
            origin,
            calls: 0,
            spans: Vec::new(),
            capture_left: 0,
            captured: Vec::new(),
        }
    }

    /// Also captures the first `budget` requests presented.
    pub fn capturing(mut self, budget: usize) -> Self {
        self.capture_left = budget;
        self
    }

    /// The wrapped memory.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn capture(&mut self, len: u64, requests: impl Iterator<Item = (u64, Request)>) {
        if self.capture_left == 0 {
            return;
        }
        let requests: Vec<(u64, Request)> = requests.collect();
        self.capture_left = self.capture_left.saturating_sub(requests.len().max(1));
        self.captured.push(CapturedEpoch { len, requests });
    }

    fn span<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce(&mut M) -> R) -> R {
        let start_ns = self.origin.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.origin.now_ns();
        self.spans.push(Span {
            layer: self.layer,
            name,
            epoch: self.calls,
            parent: None,
            start_ns,
            end_ns,
            items,
        });
        self.calls += 1;
        out
    }
}

impl<M: PipelinedMemory> PipelinedMemory for Traced<M> {
    fn delay(&self) -> u64 {
        self.inner.delay()
    }
    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        self.inner.tick(request)
    }
    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn issue_read(&mut self, addr: LineAddr) -> TickOutput {
        self.inner.issue_read(addr)
    }
    fn issue_write(&mut self, addr: LineAddr, data: Bytes) -> TickOutput {
        self.inner.issue_write(addr, data)
    }
    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        self.inner.bank_of(addr)
    }
    fn drain(&mut self) -> Vec<Response> {
        self.span("drain", 0, |m| m.drain())
    }
    fn run_epoch(&mut self, requests: &[Option<Request>]) -> RunReport {
        self.capture(
            requests.len() as u64,
            requests.iter().enumerate().filter_map(|(i, r)| Some((i as u64, r.clone()?))),
        );
        let items = requests.iter().flatten().count() as u64;
        self.span("run_epoch", items, |m| m.run_epoch(requests))
    }
    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        self.capture(len, requests.iter().cloned());
        self.span("run_epoch_sparse", requests.len() as u64, |m| m.run_epoch_sparse(len, requests))
    }
    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        self.capture(
            requests.len() as u64,
            requests.iter().enumerate().map(|(i, r)| (i as u64, r.clone())),
        );
        self.span("issue_batch", requests.len() as u64, |m| m.issue_batch(requests))
    }
    fn metrics(&self) -> Option<&ControllerMetrics> {
        self.inner.metrics()
    }
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.snapshot()
    }
    fn total_stalls(&self) -> u64 {
        self.inner.total_stalls()
    }
}

/// What a traced engine hands back after a run.
#[derive(Debug, Default)]
pub struct Harvest {
    /// Spans of the engine and of every engine under it.
    pub spans: Vec<Span>,
    /// The request stream that entered the engine.
    pub captured: Vec<CapturedEpoch>,
    /// DRAM device statistics, summed over channels.
    pub dram: DramStats,
    /// Requests each channel accepted.
    pub channel_requests: Vec<u64>,
    /// `cycles_skipped` summed over channels.
    pub cycles_skipped: u64,
}

/// The two traced engine shapes the workloads use.
pub trait TracedEngine: PipelinedMemory {
    /// Collects spans, capture and device statistics.
    fn harvest(&self) -> Harvest;
}

fn harvest_channel(c: &Traced<VpnmController>, into: &mut Harvest) {
    into.spans.extend_from_slice(c.spans());
    into.dram.merge_from(c.inner().dram_stats());
    into.channel_requests.push(c.inner().metrics().accepted());
    into.cycles_skipped += c.inner().cycles_skipped();
}

impl TracedEngine for Traced<VpnmController> {
    fn harvest(&self) -> Harvest {
        let mut h = Harvest { captured: self.captured.clone(), ..Harvest::default() };
        harvest_channel(self, &mut h);
        h
    }
}

impl TracedEngine for Traced<VpnmFabric<Traced<VpnmController>>> {
    fn harvest(&self) -> Harvest {
        let mut h = Harvest {
            spans: self.spans.clone(),
            captured: self.captured.clone(),
            ..Harvest::default()
        };
        for c in 0..self.inner.num_channels() {
            harvest_channel(self.inner.channel(c), &mut h);
        }
        h
    }
}

/// A bare controller under a `controller` tracer.
pub fn traced_controller(
    seed: u64,
    origin: Origin,
    capture: usize,
) -> Result<Traced<VpnmController>, String> {
    Ok(Traced::new(bare_controller(seed)?, "controller", origin).capturing(capture))
}

/// A fabric of traced controllers under a `fabric` tracer.
pub fn traced_fabric(
    t: &Topology,
    seed: u64,
    origin: Origin,
    capture: usize,
) -> Result<Traced<VpnmFabric<Traced<VpnmController>>>, String> {
    let fab = fabric_of(t, seed, |c| Traced::new(c, "controller", origin))?;
    Ok(Traced::new(fab, "fabric", origin).capturing(capture))
}

/// `DramStats::bus_efficiency` up to the device's last activity, averaged
/// over `channels` devices.
pub fn bus_efficiency(stats: &DramStats, channels: u32) -> f64 {
    stats.last_activity.map_or(0.0, |now| stats.bus_efficiency(now) / f64::from(channels.max(1)))
}

// ------------------------------------------------------- leaf-layer replays

/// The controller's bank hash (`HashEngine::from_seed`) at the design point.
pub fn hash_engine(seed: u64) -> HashEngine {
    let c = design_point();
    HashEngine::from_seed(c.hash, c.addr_bits, c.bank_bits(), seed)
}

/// `HashEngine::hash_batch`.
pub fn hash_batch(h: &HashEngine, addrs: &[u64], out: &mut [u32]) {
    h.hash_batch(addrs, out);
}

/// The fabric's channel-select stage (`ChannelSelector::new`).
pub fn channel_selector(t: &Topology, seed: u64) -> Result<ChannelSelector, String> {
    let cfg = engine_opts(t).fabric_config(design_point());
    ChannelSelector::new(cfg.select, cfg.base.addr_bits, cfg.channel_bits(), seed)
}

/// `ChannelSelector::route_batch`.
pub fn route_batch(s: &ChannelSelector, addrs: &[u64], channels: &mut [u32], locals: &mut [u64]) {
    s.route_batch(addrs, channels, locals);
}

/// The DRAM device a design-point controller sits on (`DramDevice::new`
/// with the geometry `VpnmController::new` derives), and its bank latency.
pub fn dram_device() -> (DramDevice, u64) {
    let c = design_point();
    let cells_per_row = 64u64;
    let device = DramDevice::new(DramConfig {
        num_banks: c.banks,
        rows_per_bank: (1u64 << c.addr_bits).div_ceil(cells_per_row),
        cells_per_row,
        cell_bytes: c.cell_bytes,
        timing: vpnm_dram::timing::TimingModel::simple(c.bank_latency),
    });
    (device, c.bank_latency)
}

/// `DramDevice::try_issue_read` / `try_issue_write` at memory cycle `now`;
/// true when the bank took the access.
pub fn dram_access(
    d: &mut DramDevice,
    bank: u32,
    addr: u64,
    write: Option<&Bytes>,
    now: u64,
) -> bool {
    let now = Cycle::new(now);
    match write {
        None => d.try_issue_read(bank, addr, now).expect("address in range").is_some(),
        Some(data) => {
            d.try_issue_write(bank, addr, data.clone(), now).expect("address in range").is_some()
        }
    }
}

/// `DramDevice::stats`.
pub fn dram_stats(d: &DramDevice) -> &DramStats {
    d.stats()
}

/// Two-thread ping over `vpnm_core::ring::spsc`, shaped like the ingress
/// rig: a two-deep data lane of `batch`-item buffers and a recycle lane
/// back. Returns the items received.
pub fn ring_ping(batches: usize, batch: usize) -> u64 {
    let (tx, mut rx): (SpscSender<Vec<u64>>, SpscReceiver<Vec<u64>>) = spsc(2);
    let (pool_tx, mut pool_rx): (SpscSender<Vec<u64>>, SpscReceiver<Vec<u64>>) = spsc(4);
    let producer = std::thread::spawn(move || {
        for b in 0..batches {
            let mut buf = pool_rx.try_recv().unwrap_or_default();
            buf.extend((0..batch).map(|i| (b * batch + i) as u64));
            if !tx.send(buf) {
                return;
            }
        }
    });
    let mut items = 0u64;
    for _ in 0..batches {
        let mut buf = rx.recv().expect("producer sends every batch");
        items += buf.len() as u64;
        std::hint::black_box(buf.last());
        buf.clear();
        let _ = pool_tx.try_send(buf);
    }
    producer.join().expect("ring producer panicked");
    items
}

/// The repo's own generators over `n` draws (`HeavyTailFlows` for flow
/// ids, `UniformAddresses` for line addresses); returns a checksum.
pub fn repo_generator_draws(flows: Option<u64>, seed: u64, n: usize) -> u64 {
    let mut sum = 0u64;
    match flows {
        Some(space) => {
            let mut g = HeavyTailFlows::new(space, 1.0, seed);
            (0..n).for_each(|_| sum = sum.wrapping_add(g.next_addr()));
        }
        None => {
            let mut g = UniformAddresses::new(1 << design_point().addr_bits, seed);
            (0..n).for_each(|_| sum = sum.wrapping_add(g.next_addr()));
        }
    }
    sum
}

// ------------------------------------------------------------- test doubles

/// A memory that forwards to `inner` but returns one response a cycle
/// late and one with a flipped payload byte — the two faults the
/// contract checker exists to catch.
#[cfg(test)]
pub struct Faulty<M> {
    inner: M,
    seen: u64,
}

#[cfg(test)]
impl<M: PipelinedMemory> Faulty<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        Faulty { inner, seen: 0 }
    }

    fn spoil(&mut self, mut report: RunReport) -> RunReport {
        for r in &mut report.responses {
            self.seen += 1;
            if self.seen == 100 {
                r.completed_at = Cycle::new(r.completed_at.as_u64() + 1);
            }
            if self.seen == 200 {
                let mut bytes = r.data.to_vec();
                bytes[5] ^= 0x40;
                r.data = Bytes::from(bytes);
            }
        }
        report
    }
}

#[cfg(test)]
impl<M: PipelinedMemory> PipelinedMemory for Faulty<M> {
    fn delay(&self) -> u64 {
        self.inner.delay()
    }
    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        self.inner.tick(request)
    }
    fn outstanding(&self) -> usize {
        self.inner.outstanding()
    }
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
        let r = self.inner.run_epoch_sparse(len, requests);
        self.spoil(r)
    }
    fn issue_batch(&mut self, requests: &[Request]) -> RunReport {
        let r = self.inner.issue_batch(requests);
        self.spoil(r)
    }
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense and a sparse stream through a wrapped and a bare
    /// controller: identical responses and identical snapshot JSON,
    /// `cycles_skipped` included — so the wrapper took the same drive
    /// path, not the trait's tick-loop defaults.
    #[test]
    fn traced_forwards_the_batch_doors() {
        let mut bare = bare_controller(9).unwrap();
        let mut wrapped = traced_controller(9, Origin::start(), 3100).unwrap();
        let dense: Vec<Request> =
            (0..3000u64).map(|i| request(i * 7919 % 100_003, 0, None)).collect();
        assert_eq!(PipelinedMemory::issue_batch(&mut bare, &dense), wrapped.issue_batch(&dense));
        let sparse: Vec<(u64, Request)> = (0..200u64)
            .map(|i| {
                let data = (i % 3 == 0).then(|| arena(vec![i as u8; 64]));
                (i * 40 + i % 7, request(i * 31 % 977, 0, data))
            })
            .collect();
        assert_eq!(
            PipelinedMemory::run_epoch_sparse(&mut bare, 9000, &sparse),
            wrapped.run_epoch_sparse(9000, &sparse)
        );
        let opt: Vec<Option<Request>> =
            (0..500u64).map(|i| (i % 5 == 0).then(|| request(i, 0, None))).collect();
        assert_eq!(PipelinedMemory::run_epoch(&mut bare, &opt), wrapped.run_epoch(&opt));
        assert_eq!(PipelinedMemory::drain(&mut bare), wrapped.drain());
        assert!(bare.cycles_skipped() > 0, "the sparse stream must exercise the skip path");
        assert_eq!(bare.snapshot().to_json(), wrapped.snapshot().unwrap().to_json());
        assert_eq!(wrapped.total_stalls(), PipelinedMemory::total_stalls(&bare));
        assert_eq!(wrapped.bank_of(LineAddr(77)), Some(bare.bank_of(LineAddr(77))));
        assert!(wrapped.metrics().is_some());
        let names: Vec<&str> = wrapped.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["issue_batch", "run_epoch_sparse", "run_epoch", "drain"]);
        assert_eq!(wrapped.spans()[1].items, 200);
        assert_eq!(wrapped.captured.len(), 2, "capture stops at its budget");
    }
}
