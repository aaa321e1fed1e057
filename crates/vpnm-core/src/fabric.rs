//! Multi-channel composition: several independent VPNM controllers
//! behind one flat deterministic-latency interface.
//!
//! A line card that outgrows one controller's bandwidth adds *channels*,
//! not ports: [`VpnmFabric`] stripes a single request stream over `C`
//! independent [`PipelinedMemory`] engines, each owning a private
//! `1/C`-slice of the address space. The channel for an address is chosen
//! by a bijective [`ChannelSelector`] stage (low bits, or a keyed
//! invertible permutation — the paper's universal-hash argument,
//! Section 3.2, lifted from banks to channels), and the *local* address
//! the channel sees is the remainder of the split, so every fabric line
//! maps to exactly one physical cell.
//!
//! The fabric preserves the VPNM contract end to end: all channels share
//! one pinned delay `D`, tick in lockstep, and a read accepted at fabric
//! cycle `t` is answered at exactly `t + D` — whichever channel served
//! it. Because the interface accepts at most one request per cycle and
//! every channel answers after the same `D`, at most one response is due
//! per fabric cycle; the fabric re-translates its local address back to
//! the fabric address before delivery.
//!
//! With `channels == 1` the selector is the identity and the fabric is a
//! transparent wrapper: it reproduces the bare controller cycle-for-cycle
//! and its merged snapshot serializes to the same bytes.
//!
//! Observability composes via [`MetricsSnapshot::merge`]: per-channel
//! snapshots fold into one fabric-level snapshot (counters add,
//! histograms merge, per-bank high-water marks concatenate in channel
//! order) plus the fabric's own malformed-request accounting — requests
//! are range-checked against the *fabric* address space before routing,
//! since a bit-select stage would otherwise silently alias out-of-range
//! addresses into a valid channel.

use crate::config::VpnmConfig;
use crate::controller::RunReport;
use crate::memory::PipelinedMemory;
use crate::metrics::ControllerMetrics;
use crate::pool::WorkerPool;
use crate::regulator::{QosConfig, Regulator, RegulatorMode};
use crate::request::{LineAddr, Request, Response, StallKind, TickOutput};
use crate::snapshot::{MetricsSnapshot, TenantSection};
use vpnm_sim::Cycle;

pub use vpnm_hash::{ChannelSelect, ChannelSelector};

/// Geometry of a multi-channel fabric: how many channels, how addresses
/// pick one, and the per-channel controller configuration template.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of independent channels (a power of two in `1..=256`).
    pub channels: u32,
    /// How a fabric address selects its channel.
    pub select: ChannelSelect,
    /// Template for every channel. `base.addr_bits` is the **fabric**
    /// address width; each channel is built from this config with
    /// `log2(channels)` fewer address bits and the common delay pinned
    /// (see [`FabricConfig::channel_config`]).
    pub base: VpnmConfig,
    /// Multi-tenant QoS at the fabric ingress: `None` (the default
    /// single-tenant case) adds zero cost and keeps every output
    /// byte-identical to a QoS-less fabric; `Some` tracks per-tenant
    /// issue/deferral counts and, when the mode is not
    /// [`RegulatorMode::Off`], regulates each tenant with deterministic
    /// token buckets ([`Regulator`]).
    pub qos: Option<QosConfig>,
}

impl FabricConfig {
    /// A single-channel fabric — a transparent wrapper around `base`.
    pub fn single(base: VpnmConfig) -> Self {
        FabricConfig { channels: 1, select: ChannelSelect::LowBits, base, qos: None }
    }

    /// `log2(channels)`.
    pub fn channel_bits(&self) -> u32 {
        self.channels.trailing_zeros()
    }

    /// The common deterministic delay `D` every channel is pinned to:
    /// the base config's effective delay (computed at the full fabric
    /// address width, which upper-bounds every channel's own safe
    /// minimum since the hash stage only narrows).
    pub fn fabric_delay(&self) -> u64 {
        self.base.effective_delay()
    }

    /// The per-channel controller configuration: `base` with the channel
    /// bits carved off `addr_bits` and `delay_override` pinned to
    /// [`FabricConfig::fabric_delay`] so all channels agree on `D` even
    /// though their narrower hash stages would recommend less. A
    /// single-channel fabric uses `base` verbatim.
    pub fn channel_config(&self) -> VpnmConfig {
        let cbits = self.channel_bits();
        if cbits == 0 {
            return self.base.clone();
        }
        let mut cfg = self.base.clone();
        cfg.addr_bits -= cbits;
        cfg.delay_override = Some(self.fabric_delay());
        cfg
    }

    /// Validates the fabric geometry, including that each channel's
    /// reduced configuration is itself valid.
    ///
    /// # Errors
    ///
    /// Describes the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || !self.channels.is_power_of_two() {
            return Err(format!("channels must be a power of two, got {}", self.channels));
        }
        if self.channels > 256 {
            return Err(format!("channels must be at most 256, got {}", self.channels));
        }
        if self.channel_bits() >= self.base.addr_bits {
            return Err(format!(
                "{} channels leave no address bits of the {}-bit fabric space for the channels \
                 themselves",
                self.channels, self.base.addr_bits
            ));
        }
        if let Some(q) = &self.qos {
            q.validate()?;
        }
        self.channel_config().validate().map_err(|e| format!("per-channel config invalid: {e}"))
    }
}

/// A channel's share of an epoch, encoded sparsely: `(cycle offset
/// within the epoch, the routed request)` pairs in offset order. Only
/// the cycles that actually carry a request for this channel appear —
/// the engine jumps the gaps via [`PipelinedMemory::run_epoch_owned`],
/// which drains the lane and keeps its capacity for the next epoch.
type SparseLane = Vec<(u64, Request)>;

/// One channel's part of a worker's share: the engine and its lane travel
/// to the worker *by value* and come home with the epoch's report, so no
/// locking or sharing is involved — ownership is the synchronization.
#[derive(Debug)]
struct ChannelRun<M> {
    engine: M,
    lane: SparseLane,
    report: RunReport,
}

/// One worker's share of an epoch: its channels in channel order. The
/// same Vec goes out and comes back every epoch, so it keeps its
/// capacity.
type Share<M> = Vec<ChannelRun<M>>;

/// A pool thread's job: the epoch length and its share.
type EpochJob<M> = (u64, Share<M>);

/// Runs every channel of `share` through its lane, consuming it.
fn run_share<M: PipelinedMemory>(len: u64, share: &mut Share<M>) {
    for run in share {
        run.report = run.engine.run_epoch_owned(len, &mut run.lane);
    }
}

/// The buffers the epoch path refills every epoch, kept between epochs so
/// that a steady run of epochs allocates only the merged response Vec
/// (and whatever the channels allocate themselves).
#[derive(Debug)]
struct EpochScratch<M> {
    /// `kept[j]` indexes the j-th well-formed request of the epoch.
    kept: Vec<usize>,
    /// `addrs[j]`: its fabric address, routed to `(chans[j], locals[j])`.
    addrs: Vec<u64>,
    chans: Vec<u32>,
    locals: Vec<u64>,
    /// One sparse lane per channel, drained by the channel's epoch.
    lanes: Vec<SparseLane>,
    /// One response stream per channel, in cycle order, merged at the
    /// barrier.
    streams: Vec<std::vec::IntoIter<Response>>,
    /// One share per worker (share 0 is the calling thread's); only the
    /// pooled path fills them.
    shares: Vec<Share<M>>,
}

/// `C` lockstep [`PipelinedMemory`] channels behind one flat interface.
///
/// Generic over the engine so the same fabric composes the fast
/// [`crate::VpnmController`] (the default), the
/// [`crate::ReferenceController`], or any other implementation — the
/// differential suite runs both and demands identical observable
/// behavior. The fabric itself implements [`PipelinedMemory`], so every
/// generic harness and app takes a fabric wherever it takes a controller.
///
/// # Execution modes
///
/// [`VpnmFabric::tick`] is the sequential lockstep path: one interface
/// cycle at a time, every channel stepped in channel order.
/// The batch doors ([`PipelinedMemory::run_epoch_sparse`], its consuming
/// [`PipelinedMemory::run_epoch_owned`] and its dense / option-dense
/// encodings) hand a span of cycles over as an **epoch**:
/// the router scatters the span's requests into per-channel lanes,
/// channels advance through the whole epoch independently (sequentially,
/// or split between the calling thread and a persistent pool after
/// [`VpnmFabric::set_workers`]), and a barrier at the epoch boundary
/// merges the responses into the exact cycle order the sequential path
/// produces. See `DESIGN.md`,
/// "Fabric layer", for the epoch/barrier diagram.
#[derive(Debug)]
pub struct VpnmFabric<M: PipelinedMemory = crate::VpnmController> {
    config: FabricConfig,
    selector: ChannelSelector,
    channels: Vec<M>,
    delay: u64,
    now: u64,
    /// Fabric-level accounting: malformed requests are rejected *before*
    /// routing (a bit select would alias them into a valid channel), so
    /// their counts live here and fold into the merged snapshot.
    fabric_metrics: ControllerMetrics,
    /// Persistent pool threads for shares `1..W` of the epoch path (the
    /// calling thread runs share 0); `None` (the default) runs epochs
    /// wholly on the caller's thread.
    pool: Option<WorkerPool<EpochJob<M>, Share<M>>>,
    scratch: EpochScratch<M>,
    /// Token buckets throttling the ingress when QoS is configured with a
    /// mode other than `Off`. Admission runs in the serial routing pass
    /// (tick order), so regulated runs stay byte-identical across
    /// `--workers` counts.
    regulator: Option<Regulator>,
    /// The snapshot's tenant section, counting issued and deferred
    /// requests per tenant; present exactly when [`FabricConfig::qos`]
    /// is, independent of the mode.
    tenants: Option<TenantSection>,
}

/// Per-channel seed derivation: channel 0 keeps the fabric seed verbatim
/// (so a one-channel fabric is bit-exact with a bare controller built
/// from the same seed) and later channels decorrelate via a golden-ratio
/// stride.
fn channel_seed(seed: u64, channel: u32) -> u64 {
    seed ^ u64::from(channel).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Re-addresses `req` in place to the channel-local line `local`.
fn localize(req: &mut Request, local: u64) {
    match req {
        Request::Read { addr, .. } | Request::Write { addr, .. } => *addr = LineAddr(local),
    }
}

impl<M: PipelinedMemory> VpnmFabric<M> {
    /// Builds a fabric whose channels come from `build(channel_index,
    /// channel_config, channel_seed)` — the generic constructor behind
    /// [`VpnmFabric::new`], and how the differential suites build a
    /// fabric of [`crate::ReferenceController`] channels.
    ///
    /// # Errors
    ///
    /// Returns the validation failure for a bad [`FabricConfig`], or the
    /// first channel construction failure.
    pub fn with_engines(
        config: FabricConfig,
        seed: u64,
        mut build: impl FnMut(u32, VpnmConfig, u64) -> Result<M, String>,
    ) -> Result<Self, String> {
        config.validate()?;
        let selector = ChannelSelector::new(
            config.select,
            config.base.addr_bits,
            config.channel_bits(),
            seed,
        )?;
        let channel_config = config.channel_config();
        let channels = (0..config.channels)
            .map(|c| build(c, channel_config.clone(), channel_seed(seed, c)))
            .collect::<Result<Vec<M>, String>>()?;
        let delay = config.fabric_delay();
        let scratch = EpochScratch {
            kept: Vec::new(),
            addrs: Vec::new(),
            chans: Vec::new(),
            locals: Vec::new(),
            lanes: vec![Vec::new(); channels.len()],
            streams: (0..channels.len()).map(|_| Vec::new().into_iter()).collect(),
            shares: Vec::new(),
        };
        let (regulator, tenants) = match &config.qos {
            Some(q) => (
                (q.mode != RegulatorMode::Off)
                    .then(|| Regulator::new(q, config.channels * config.base.banks)),
                Some(TenantSection::new(
                    q.mode,
                    (q.rate_num, q.rate_den),
                    q.burst,
                    usize::from(q.tenants),
                )),
            ),
            None => (None, None),
        };
        Ok(VpnmFabric {
            config,
            selector,
            channels,
            delay,
            now: 0,
            fabric_metrics: ControllerMetrics::new(),
            pool: None,
            scratch,
            regulator,
            tenants,
        })
    }

    /// The fabric geometry.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The channel-select stage.
    pub fn selector(&self) -> &ChannelSelector {
        &self.selector
    }

    /// Number of channels.
    pub fn num_channels(&self) -> u32 {
        self.config.channels
    }

    /// The engine serving `channel`.
    pub fn channel(&self, channel: u32) -> &M {
        &self.channels[channel as usize]
    }

    /// The common deterministic latency `D` in interface cycles.
    pub fn delay(&self) -> u64 {
        self.delay
    }

    /// Current fabric interface cycle (identical to every channel's —
    /// they tick in lockstep).
    pub fn now(&self) -> Cycle {
        Cycle::new(self.now)
    }

    /// Reads in flight across all channels.
    pub fn outstanding(&self) -> usize {
        self.channels.iter().map(|c| c.outstanding()).sum()
    }

    /// Regulator admission plus per-tenant accounting for one request routed
    /// to `(ch, local)` and presented at fabric cycle `at`. Always true
    /// (and free) when no QoS is configured. Deferral spends no tokens —
    /// the tenant may retry the very next cycle.
    fn admit(&mut self, req: &Request, ch: u32, local: u64, at: u64) -> bool {
        let Some(section) = &mut self.tenants else { return true };
        let tenant = req.tenant();
        let qos = self.config.qos.as_ref().expect("tenant section implies qos");
        let slot = qos.clamp(tenant);
        let ok = match &mut self.regulator {
            Some(reg) => {
                // Fabric-global bank index: channels each own `base.banks`
                // banks, and the channel engine's keyed hash names the
                // local one (engines without banks fall back to 0, which
                // degrades per-bank regulation to global for them). Only
                // per-bank buckets read it, so the global regulator skips
                // the hash.
                let bank = if qos.mode == RegulatorMode::PerBank {
                    ch * self.config.base.banks
                        + self.channels[ch as usize].bank_of(LineAddr(local)).unwrap_or(0)
                } else {
                    0
                };
                reg.admit(tenant, bank, at)
            }
            None => true,
        };
        let stats = &mut section.per_tenant[slot];
        if ok {
            stats.issued += 1;
        } else {
            stats.deferred += 1;
        }
        ok
    }

    /// Advances all channels one lockstep interface cycle, routing
    /// `request` to its channel under the local address, and translating
    /// the (at most one) due response back to the fabric address space.
    pub fn tick(&mut self, request: Option<Request>) -> TickOutput {
        let mut target: Option<(usize, Request)> = None;
        let mut stall = None;
        if let Some(req) = request {
            // Checked against the *fabric* address space; the channels
            // re-check the localized request against their own.
            let base = &self.config.base;
            if let Some(kind) = req.malformed(base.addr_bits, base.cell_bytes) {
                stall = Some(kind);
            } else {
                let (ch, local) = self.selector.route(req.addr().0);
                if self.admit(&req, ch, local, self.now + 1) {
                    let mut req = req;
                    localize(&mut req, local);
                    target = Some((ch as usize, req));
                } else {
                    // Deferred, not dropped: the channels still advance
                    // this cycle (lockstep), the request just never
                    // reaches one. Accounted in the tenant section only.
                    stall = Some(StallKind::Throttled);
                }
            }
        }

        let mut response: Option<Response> = None;
        for (ch, engine) in self.channels.iter_mut().enumerate() {
            let req = match &target {
                Some((t, _)) if *t == ch => target.take().map(|(_, r)| r),
                _ => None,
            };
            let out = engine.tick(req);
            stall = stall.or(out.stall);
            if let Some(mut resp) = out.response {
                debug_assert!(
                    response.is_none(),
                    "two channels answered in one fabric cycle — delays disagree"
                );
                resp.addr = LineAddr(self.selector.unroute(ch as u32, resp.addr.0));
                response = Some(resp);
            }
        }
        self.now += 1;
        if let Some(kind) = stall {
            if kind.is_rejection() {
                // Channel-level stalls were already recorded by the
                // channel's own metrics; only fabric-level rejections
                // (malformed requests never routed) are accounted here.
                self.fabric_metrics.record_stall(kind, Cycle::new(self.now));
            }
        }
        TickOutput { response, stall }
    }

    /// Workers driving the epoch path: `1` means epochs run on
    /// the caller's thread (no pool).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(1, |pool| pool.threads() + 1)
    }

    /// Switches the epoch path between on-thread execution
    /// (`workers <= 1`) and `workers` workers (clamped to the channel
    /// count — extra workers would only idle): the calling thread and a
    /// persistent pool of `workers - 1` threads. Channel `c` is always
    /// served by worker `c % workers`, worker 0 being the calling thread,
    /// so the partition — and therefore every observable output — is
    /// identical from epoch to epoch and across worker counts.
    ///
    /// Calling this between epochs is safe at any time: the pool holds no
    /// simulation state, only threads.
    pub fn set_workers(&mut self, workers: usize)
    where
        M: Send + 'static,
    {
        let workers = workers.clamp(1, self.channels.len());
        if self.workers() == workers {
            return;
        }
        self.pool = (workers > 1).then(|| {
            WorkerPool::new(workers - 1, |_, (len, mut share): EpochJob<M>| {
                run_share(len, &mut share);
                share
            })
        });
        self.scratch.shares = (0..workers).map(|_| Vec::new()).collect();
    }

    /// The one epoch router behind every batch door: advances the whole
    /// fabric `len` interface cycles, presenting request `k` of `count` at
    /// fabric cycle `now + at(src, k).0` (a sparse epoch; `at` and `fetch`
    /// are the door's view of its own encoding `src`, exactly as in the
    /// controller's drive loop: `at` reads a request in place, `fetch`
    /// hands it over — a clone from a borrowed span, a move out of the
    /// consuming door's Vec). Equivalent to that many [`VpnmFabric::tick`] calls —
    /// byte-identical responses (in exact cycle order), stall counts, and
    /// merged snapshots, modulo the `cycles_skipped` drive-mode counter —
    /// but executed channel-major: malformed requests are held at the
    /// fabric edge exactly like `tick` holds them (same rejection kind,
    /// same recording cycle), channel selection runs as one batched pass
    /// over the presented addresses ([`ChannelSelector::route_batch`]),
    /// admission runs serially in
    /// cycle order, and the survivors, re-addressed in place, move into
    /// sparse per-channel lanes that each channel then advances through
    /// independently via [`PipelinedMemory::run_epoch_owned`] — jumping
    /// straight across
    /// the cycles that belong to its siblings, so the work per epoch
    /// scales with the requests and responses, not with `channels x
    /// cycles`, and channels can run on [`VpnmFabric::set_workers`]
    /// workers.
    ///
    /// `bypass` is the single-channel hand-off: with one channel the
    /// selector is the identity (zero channel bits), so routing,
    /// local-address translation, and the barrier merge are all pure
    /// overhead, and the door passes its span to the engine in the
    /// encoding it arrived in. Only a well-formed, QoS-less span bypasses
    /// — malformed requests must be rejected *at the fabric*, and
    /// per-request admission and tenant accounting live in the routed
    /// path.
    fn route<S: ?Sized>(
        &mut self,
        len: u64,
        count: usize,
        src: &mut S,
        at: impl Fn(&S, usize) -> (u64, &Request),
        fetch: impl Fn(&mut S, usize) -> Request,
        bypass: impl FnOnce(&mut M, &mut S) -> RunReport,
    ) -> RunReport {
        debug_assert!(
            (1..count).all(|k| at(src, k - 1).0 < at(src, k).0)
                && (count == 0 || at(src, count - 1).0 < len),
            "offsets must be strictly increasing and < len"
        );
        let mut report = RunReport::default();
        if len == 0 {
            return report;
        }
        let (addr_bits, cell_bytes) = (self.config.base.addr_bits, self.config.base.cell_bytes);
        if self.channels.len() == 1
            && self.tenants.is_none()
            && (0..count).all(|k| at(src, k).1.malformed(addr_bits, cell_bytes).is_none())
        {
            self.now += len;
            return bypass(&mut self.channels[0], src);
        }
        let EpochScratch { kept, addrs, chans, locals, .. } = &mut self.scratch;
        kept.clear();
        addrs.clear();
        for k in 0..count {
            let (offset, req) = at(src, k);
            if let Some(kind) = req.malformed(addr_bits, cell_bytes) {
                report.rejected += 1;
                self.fabric_metrics.record_stall(kind, Cycle::new(self.now + offset + 1));
                continue;
            }
            kept.push(k);
            addrs.push(req.addr().0);
        }
        chans.resize(addrs.len(), 0);
        locals.resize(addrs.len(), 0);
        self.selector.route_batch(addrs, chans, locals);
        for j in 0..self.scratch.kept.len() {
            let (k, ch, local) =
                (self.scratch.kept[j], self.scratch.chans[j], self.scratch.locals[j]);
            let (offset, req) = at(src, k);
            // Admission runs serially in offset (= cycle) order at the
            // exact cycle `tick` would present the request, so the epoch
            // path defers the same requests the sequential path does.
            if !self.admit(req, ch, local, self.now + offset + 1) {
                report.stalled += 1;
                continue;
            }
            let mut req = fetch(src, k);
            localize(&mut req, local);
            self.scratch.lanes[ch as usize].push((offset, req));
        }
        self.execute_lanes(len, &mut report);
        report
    }

    /// The execute-and-merge half of [`VpnmFabric::route`]: runs
    /// every channel through its sparse lane (on-thread, or split between
    /// the calling thread and the pool), folds the per-channel reports
    /// into `report`, and merges the response streams back into exact
    /// cycle order.
    fn execute_lanes(&mut self, len: u64, report: &mut RunReport) {
        // Execute: every channel advances through the epoch independently.
        // Engines travel to the pool threads by value and come home at the
        // barrier; the `ch % workers` partition is fixed, so results are
        // independent of scheduling.
        let EpochScratch { lanes, streams, shares, .. } = &mut self.scratch;
        let mut fold = |ch: usize, r: RunReport| {
            report.accepted += r.accepted;
            report.stalled += r.stalled;
            report.rejected += r.rejected;
            streams[ch] = r.responses.into_iter();
        };
        match &self.pool {
            None => {
                for (ch, (engine, lane)) in self.channels.iter_mut().zip(lanes).enumerate() {
                    fold(ch, engine.run_epoch_owned(len, lane));
                }
            }
            Some(pool) => {
                let w = shares.len();
                for (ch, engine) in self.channels.drain(..).enumerate() {
                    let lane = std::mem::take(&mut lanes[ch]);
                    shares[ch % w].push(ChannelRun { engine, lane, report: RunReport::default() });
                }
                for (worker, share) in shares.iter_mut().enumerate().skip(1) {
                    pool.submit(worker - 1, (len, std::mem::take(share)));
                }
                // The calling thread runs share 0 while the pool runs the
                // rest, then collects them.
                run_share(len, &mut shares[0]);
                for (worker, share) in shares.iter_mut().enumerate().skip(1) {
                    *share = pool.recv(worker - 1);
                }
                // Each share holds its channels in channel order, so
                // popping from the top channel down hands them back in
                // reverse.
                for ch in (0..lanes.len()).rev() {
                    let run = shares[ch % w].pop().expect("every channel comes home");
                    lanes[ch] = run.lane;
                    self.channels.push(run.engine);
                    fold(ch, run.report);
                }
                self.channels.reverse();
            }
        }

        // Barrier merge: each channel's stream is already in cycle order,
        // and the shared pinned delay guarantees at most one response per
        // fabric cycle, all due *inside* this epoch (`completed_at` in
        // `(now, now + len]`). A k-way merge on `completed_at` restores
        // the sequential order; local addresses translate back to fabric
        // addresses on the way out.
        let total: usize = streams.iter().map(ExactSizeIterator::len).sum();
        let mut responses: Vec<Response> = Vec::with_capacity(total);
        let mut last = self.now;
        for _ in 0..total {
            let mut next: Option<(usize, u64)> = None;
            for (ch, stream) in streams.iter().enumerate() {
                if let Some(head) = stream.as_slice().first() {
                    let due = head.completed_at.as_u64();
                    if next.is_none_or(|(_, best)| due < best) {
                        next = Some((ch, due));
                    }
                }
            }
            let (ch, due) = next.expect("`total` responses remain");
            debug_assert!(
                due > last && due <= self.now + len,
                "two channels answered in one fabric cycle — delays disagree"
            );
            last = due;
            let mut resp = streams[ch].next().expect("peeked");
            resp.addr = LineAddr(self.selector.unroute(ch as u32, resp.addr.0));
            responses.push(resp);
        }
        report.responses = responses;
        self.now += len;
    }

    /// Merges the per-channel snapshots (plus the fabric's own rejection
    /// accounting) into one fabric-level [`MetricsSnapshot`] — `None` when
    /// the engine type keeps no metrics.
    pub fn merged_snapshot(&self) -> Option<MetricsSnapshot> {
        let parts: Option<Vec<MetricsSnapshot>> =
            self.channels.iter().map(|c| c.snapshot()).collect();
        let merged = MetricsSnapshot::merge(&parts?);
        debug_assert!(merged.is_ok(), "lockstep channels cannot disagree: {merged:?}");
        let mut merged = merged.ok()?;
        merged.metrics.merge_from(&self.fabric_metrics);
        if let Some(section) = &self.tenants {
            merged = merged.with_tenants(section.clone());
        }
        Some(merged)
    }
}

impl VpnmFabric<crate::VpnmController> {
    /// Builds a fabric of fast [`crate::VpnmController`] channels, keying
    /// channel `i`'s universal hash from a per-channel seed derived from
    /// `seed` (channel 0 uses `seed` itself).
    ///
    /// # Errors
    ///
    /// Returns the validation failure message for an inconsistent config.
    pub fn new(config: FabricConfig, seed: u64) -> Result<Self, String> {
        VpnmFabric::with_engines(config, seed, |_, cfg, s| crate::VpnmController::new(cfg, s))
    }
}

impl<M: PipelinedMemory> PipelinedMemory for VpnmFabric<M> {
    fn delay(&self) -> u64 {
        VpnmFabric::delay(self)
    }

    fn tick(&mut self, request: Option<Request>) -> TickOutput {
        VpnmFabric::tick(self, request)
    }

    fn outstanding(&self) -> usize {
        VpnmFabric::outstanding(self)
    }

    fn now(&self) -> Cycle {
        VpnmFabric::now(self)
    }

    fn run_epoch_sparse(&mut self, len: u64, mut requests: &[(u64, Request)]) -> RunReport {
        self.route(
            len,
            requests.len(),
            &mut requests,
            |r, k| (r[k].0, &r[k].1),
            |r, k| r[k].1.clone(),
            |engine, r| engine.run_epoch_sparse(len, r),
        )
    }

    fn run_epoch_owned(&mut self, len: u64, requests: &mut Vec<(u64, Request)>) -> RunReport {
        // Consuming view: each routed request moves out of its slot (a
        // payload-free read stands in until the `clear`).
        let report = self.route(
            len,
            requests.len(),
            requests,
            |r, k| (r[k].0, &r[k].1),
            |r, k| std::mem::replace(&mut r[k].1, Request::read(LineAddr(0))),
            |engine, r| engine.run_epoch_owned(len, r),
        );
        requests.clear();
        report
    }

    fn issue_batch(&mut self, mut requests: &[Request]) -> RunReport {
        // Dense view: offset(k) == k. (The option-dense `run_epoch` door
        // is the trait default, which re-encodes onto `run_epoch_sparse`.)
        self.route(
            requests.len() as u64,
            requests.len(),
            &mut requests,
            |r, k| (k as u64, &r[k]),
            |r, k| r[k].clone(),
            |engine, r| engine.issue_batch(r),
        )
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        VpnmFabric::merged_snapshot(self)
    }

    fn bank_of(&self, addr: LineAddr) -> Option<u32> {
        // Fabric-global bank index: `base.banks` banks per channel, in
        // channel order — the same keying the per-bank regulator uses.
        let (ch, local) = self.selector.route(addr.0);
        self.channels[ch as usize].bank_of(LineAddr(local)).map(|b| ch * self.config.base.banks + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{run_owned, sparse_of, ticked};
    use crate::{IdealMemory, ReferenceController, VpnmController};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    fn fabric_config(channels: u32, select: ChannelSelect) -> FabricConfig {
        FabricConfig { channels, select, base: VpnmConfig::small_test(), qos: None }
    }

    #[test]
    fn validates_geometry() {
        assert!(fabric_config(1, ChannelSelect::LowBits).validate().is_ok());
        assert!(fabric_config(4, ChannelSelect::UniversalHash).validate().is_ok());
        assert!(fabric_config(0, ChannelSelect::LowBits).validate().is_err());
        assert!(fabric_config(3, ChannelSelect::LowBits).validate().is_err());
        assert!(fabric_config(512, ChannelSelect::LowBits).validate().is_err());
        // 256 channels on an 8-bit fabric space leave no local bits.
        let mut tight = fabric_config(256, ChannelSelect::LowBits);
        tight.base.addr_bits = 8;
        assert!(tight.validate().is_err());
        // 128 channels on 10 bits leave 3 — under the 4-bit config floor,
        // caught by validating the per-channel config.
        let mut shallow = fabric_config(128, ChannelSelect::LowBits);
        shallow.base.addr_bits = 10;
        let err = shallow.validate().unwrap_err();
        assert!(err.contains("per-channel config invalid"), "{err}");
        shallow.base.addr_bits = 16;
        assert!(shallow.validate().is_ok());
    }

    #[test]
    fn channel_config_carves_bits_and_pins_delay() {
        let fc = fabric_config(4, ChannelSelect::LowBits);
        let cc = fc.channel_config();
        assert_eq!(cc.addr_bits, fc.base.addr_bits - 2);
        assert_eq!(cc.delay_override, Some(fc.base.effective_delay()));
        assert!(cc.validate().is_ok());
        // Single channel: base verbatim.
        let fc1 = fabric_config(1, ChannelSelect::LowBits);
        assert_eq!(fc1.channel_config().delay_override, fc1.base.delay_override);
    }

    #[test]
    fn deterministic_latency_across_channels() {
        for select in [ChannelSelect::LowBits, ChannelSelect::UniversalHash] {
            let mut fab = VpnmFabric::new(fabric_config(4, select), 0xC0FFEE).unwrap();
            let d = PipelinedMemory::delay(&fab);
            let mut accepted = 0u64;
            let mut responses = Vec::new();
            for a in 0..64u64 {
                let addr = LineAddr(a * 37 % (1 << 12));
                let out = fab.issue_read(addr);
                // A stall (possible when a bit select funnels a run of
                // requests into one channel) drops the request; whatever
                // IS accepted must come back after exactly D.
                accepted += u64::from(out.accepted());
                responses.extend(out.response);
            }
            responses.extend(PipelinedMemory::drain(&mut fab));
            assert_eq!(fab.outstanding(), 0, "{select}");
            assert_eq!(responses.len() as u64, accepted, "{select}");
            assert!(accepted > 32, "{select}: most of the stream should land");
            for r in &responses {
                assert_eq!(r.latency(), d, "{select}: latency must be exactly D");
            }
        }
    }

    #[test]
    fn matches_ideal_memory_under_mixed_traffic() {
        let mut fab = VpnmFabric::new(fabric_config(4, ChannelSelect::UniversalHash), 7).unwrap();
        let mut ideal =
            IdealMemory::new(PipelinedMemory::delay(&fab), fab.config().base.cell_bytes);
        let mut fab_responses = Vec::new();
        let mut ideal_responses = Vec::new();
        let mut x = 0x1234_5678u64;
        for i in 0..2000u64 {
            // splitmix-style scramble for a deterministic mixed stream
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = LineAddr(x >> 52);
            let req = if i % 3 == 0 {
                Request::write(addr, (x as u32).to_le_bytes().to_vec())
            } else {
                Request::read(addr)
            };
            fab_responses.extend(fab.tick(Some(req.clone())).response);
            ideal_responses.extend(ideal.tick(Some(req)).response);
        }
        fab_responses.extend(PipelinedMemory::drain(&mut fab));
        ideal_responses.extend(PipelinedMemory::drain(&mut ideal));
        assert_eq!(fab_responses.len(), ideal_responses.len());
        for (f, i) in fab_responses.iter().zip(&ideal_responses) {
            assert_eq!(
                (f.addr, &f.data, f.issued_at, f.completed_at),
                (i.addr, &i.data, i.issued_at, i.completed_at)
            );
        }
    }

    #[test]
    fn consuming_reads_free_their_cells_on_every_channel() {
        // Write 64 cells, consume them, then read them again: every
        // channel must have freed its share, on the tick path and on the
        // pooled epoch path alike.
        let d = VpnmController::new(VpnmConfig::small_test(), 0).unwrap().delay() as usize;
        let addrs = 0..64u64;
        let mut stream: Vec<Option<Request>> =
            addrs.clone().map(|a| Some(Request::write(LineAddr(a), vec![a as u8 + 1]))).collect();
        stream
            .extend(addrs.clone().map(|a| Some(Request::take_as(crate::TenantId(1), LineAddr(a)))));
        stream.extend(std::iter::repeat_n(None, d + 1));
        stream.extend(addrs.map(|a| Some(Request::read(LineAddr(a)))));
        let config = fabric_config(4, ChannelSelect::UniversalHash);
        let mut ticked_fab = VpnmFabric::new(config.clone(), 7).unwrap();
        let mut want = ticked(&mut ticked_fab, &stream);
        assert_eq!(want.accepted, 128 + 64, "no stalls, so nothing merges");
        want.responses.extend(PipelinedMemory::drain(&mut ticked_fab));
        let data: Vec<u8> = want.responses.iter().map(|r| r.data[0]).collect();
        let consumed: Vec<u8> = (1..=64).collect();
        assert_eq!(data, [consumed, vec![0; 64]].concat());
        let mut pooled = VpnmFabric::new(config, 7).unwrap();
        pooled.set_workers(2);
        let mut got = pooled.run_epoch(&stream);
        got.responses.extend(PipelinedMemory::drain(&mut pooled));
        assert_eq!(got, want);
    }

    #[test]
    fn single_channel_fabric_matches_bare_controller_byte_for_byte() {
        let base = VpnmConfig::small_test();
        let seed = 0xC0FFEE;
        let mut bare = VpnmController::new(base.clone(), seed).unwrap();
        let mut fab = VpnmFabric::new(FabricConfig::single(base), seed).unwrap();
        for i in 0..500u64 {
            let req = match i % 4 {
                0 => Some(Request::write(LineAddr(i % 64), vec![i as u8; 4])),
                1 | 2 => Some(Request::read(LineAddr(i % 64))),
                _ => None,
            };
            let a = bare.tick(req.clone());
            let b = VpnmFabric::tick(&mut fab, req);
            assert_eq!(a, b, "tick {i}");
        }
        assert_eq!(
            bare.snapshot().to_json(),
            fab.merged_snapshot().unwrap().to_json(),
            "one-channel fabric snapshot must serialize identically"
        );
    }

    #[test]
    fn merged_snapshot_spans_channels() {
        let mut fab = VpnmFabric::new(fabric_config(4, ChannelSelect::LowBits), 9).unwrap();
        for a in 0..32u64 {
            VpnmFabric::tick(&mut fab, Some(Request::read(LineAddr(a))));
        }
        PipelinedMemory::drain(&mut fab);

        let snap = fab.merged_snapshot().unwrap();
        assert_eq!(snap.channels, 4);
        assert_eq!(snap.metrics.reads_accepted, 32);
        assert_eq!(snap.metrics.responses, 32);
        let banks = fab.config().base.banks as usize;
        assert_eq!(snap.metrics.bank_queue_hwm.len(), 4 * banks);
        assert!(snap.to_json().contains("\"channels\": 4"));
    }

    #[test]
    fn reference_fabric_agrees_with_fast_fabric() {
        let cfg = fabric_config(2, ChannelSelect::UniversalHash);
        let mut fast = VpnmFabric::new(cfg.clone(), 42).unwrap();
        let mut reference =
            VpnmFabric::with_engines(cfg, 42, |_, c, s| ReferenceController::new(c, s)).unwrap();
        for i in 0..300u64 {
            let req = (i % 3 != 2).then(|| {
                if i % 5 == 0 {
                    Request::write(LineAddr(i % 128), vec![1, 2, 3])
                } else {
                    Request::read(LineAddr((i * 13) % 128))
                }
            });
            let a = VpnmFabric::tick(&mut fast, req.clone());
            let b = VpnmFabric::tick(&mut reference, req);
            assert_eq!(a, b, "tick {i}");
        }
        assert_eq!(
            fast.merged_snapshot().unwrap().to_json(),
            reference.merged_snapshot().unwrap().to_json()
        );
    }

    /// Deterministic mixed stream with idle gaps: the epoch-path tests
    /// drive twin fabrics with the exact same spans.
    fn epoch_stream(n: u64, seed: u64) -> Vec<Option<Request>> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let addr = LineAddr(x >> 52);
                match i % 7 {
                    0 => Some(Request::write(addr, (x as u32).to_le_bytes().to_vec())),
                    5 | 6 => None, // idle gaps exercise per-channel skipping
                    _ => Some(Request::read(addr)),
                }
            })
            .collect()
    }

    /// Snapshot serialization with the one sanctioned epoch/tick
    /// divergence (the `cycles_skipped` drive-mode counter) masked off.
    fn snapshot_sans_skips<M: PipelinedMemory>(fab: &VpnmFabric<M>) -> String {
        let mut snap = fab.merged_snapshot().unwrap();
        snap.cycles_skipped = 0;
        snap.to_json()
    }

    /// The fabric's one drive-path property: **batch door ≡ `tick`
    /// sequence**. Ticks `stream` through an oracle fabric, then runs it
    /// as two epochs (a seam at `seam`: reads issued in the first come
    /// due in the second) through every encoding that can express it —
    /// option-dense, sparse, consuming sparse, and dense when no slot is
    /// idle — on fabrics built by `mk`, demanding identical reports,
    /// clock, drain and snapshot (modulo `cycles_skipped`; the snapshot's
    /// tenant section carries the regulator's per-tenant issued/deferred
    /// counts).
    fn assert_doors_match_ticks<F: PipelinedMemory>(
        mk: impl Fn() -> F,
        stream: &[Option<Request>],
        seam: usize,
    ) {
        let state = |fab: &F| {
            let mut snap = fab.snapshot().expect("fabrics of controllers keep metrics");
            snap.cycles_skipped = 0;
            snap.to_json()
        };
        let mut oracle = mk();
        let want = ticked(&mut oracle, stream);
        let spans = [&stream[..seam], &stream[seam..]];
        let dense = spans.map(|span| span.iter().cloned().collect::<Option<Vec<Request>>>());
        type Door<'a, F> = Box<dyn Fn(&mut F, usize) -> RunReport + 'a>;
        let mut doors: Vec<(&str, Door<'_, F>)> = vec![
            ("run_epoch", Box::new(|f, e| f.run_epoch(spans[e]))),
            (
                "run_epoch_sparse",
                Box::new(|f, e| f.run_epoch_sparse(spans[e].len() as u64, &sparse_of(spans[e]))),
            ),
            ("run_epoch_owned", Box::new(|f, e| run_owned(f, spans[e]))),
        ];
        if let [Some(a), Some(b)] = &dense {
            doors.push(("issue_batch", Box::new(move |f, e| f.issue_batch([a, b][e]))));
        }
        let (want_now, want_state) = (oracle.now(), state(&oracle));
        let want_drained = oracle.drain();
        for (door, run) in &doors {
            let mut fab = mk();
            let mut got = run(&mut fab, 0);
            let second = run(&mut fab, 1);
            got.accepted += second.accepted;
            got.stalled += second.stalled;
            got.rejected += second.rejected;
            got.responses.extend(second.responses);
            assert_eq!(got, want, "{door}: report");
            assert_eq!(fab.now(), want_now, "{door}: clock");
            assert_eq!(state(&fab), want_state, "{door}: snapshot");
            assert_eq!(fab.drain(), want_drained, "{door}: drain");
        }
    }

    #[test]
    fn batch_doors_match_tick_sequence() {
        // Gappy and gap-free streams, across the single-channel bypass
        // and the routed multi-channel path.
        let gappy = epoch_stream(1200, 77);
        let dense: Vec<Option<Request>> =
            epoch_stream(1200, 31).into_iter().filter(Option::is_some).collect();
        for channels in [1u32, 4] {
            let cfg = fabric_config(channels, ChannelSelect::UniversalHash);
            let mk = || VpnmFabric::new(cfg.clone(), 0xEE).unwrap();
            assert_doors_match_ticks(mk, &gappy, 500);
            assert_doors_match_ticks(mk, &dense, 500);
        }
    }

    #[test]
    fn run_epoch_parallel_is_byte_identical_to_on_thread() {
        let stream = epoch_stream(2000, 13);
        let run = |workers: usize, owned: bool| {
            let mut fab =
                VpnmFabric::new(fabric_config(8, ChannelSelect::UniversalHash), 5).unwrap();
            fab.set_workers(workers);
            let mut report = RunReport::default();
            for span in stream.chunks(333) {
                let r = if owned { run_owned(&mut fab, span) } else { fab.run_epoch(span) };
                report.accepted += r.accepted;
                report.stalled += r.stalled;
                report.rejected += r.rejected;
                report.responses.extend(r.responses);
            }
            report.responses.extend(PipelinedMemory::drain(&mut fab));
            (report, snapshot_sans_skips(&fab))
        };
        let (base_report, base_snap) = run(1, false);
        assert!(!base_report.responses.is_empty());
        for workers in [1, 2, 3, 8] {
            for owned in [false, true] {
                let (report, snap) = run(workers, owned);
                assert_eq!(report, base_report, "workers = {workers}, owned = {owned}");
                assert_eq!(snap, base_snap, "workers = {workers}, owned = {owned}");
            }
        }
    }

    #[test]
    fn set_workers_clamps_to_channel_count() {
        let mut fab = VpnmFabric::new(fabric_config(4, ChannelSelect::LowBits), 3).unwrap();
        assert_eq!(fab.workers(), 1);
        fab.set_workers(16);
        assert_eq!(fab.workers(), 4, "more workers than channels would only idle");
        fab.set_workers(2);
        assert_eq!(fab.workers(), 2);
        fab.set_workers(0);
        assert_eq!(fab.workers(), 1, "0/1 workers mean on-thread execution");
        // Reconfiguring mid-stream must not disturb in-flight state.
        let r = fab.run_epoch(&epoch_stream(64, 1));
        fab.set_workers(4);
        let r2 = fab.run_epoch(&epoch_stream(64, 2));
        assert!(r.accepted + r2.accepted > 0);
        assert_eq!(u64::from(fab.now()), 128);
    }

    fn qos_config(mode: RegulatorMode, rate_num: u32, rate_den: u32, burst: u32) -> QosConfig {
        QosConfig { tenants: 2, mode, rate_num, rate_den, burst }
    }

    #[test]
    fn validate_checks_qos_section() {
        let mut cfg = fabric_config(2, ChannelSelect::LowBits);
        cfg.qos = Some(QosConfig { tenants: 0, ..QosConfig::tracking(1) });
        assert!(cfg.validate().is_err());
        cfg.qos = Some(qos_config(RegulatorMode::PerBank, 1, 8, 4));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn tracking_mode_counts_tenants_without_deferring() {
        let mut cfg = fabric_config(2, ChannelSelect::UniversalHash);
        cfg.qos = Some(QosConfig::tracking(2));
        let mut fab = VpnmFabric::new(cfg, 11).unwrap();
        for a in 0..40u64 {
            let req = if a % 4 == 0 {
                Request::read_as(crate::TenantId(1), LineAddr(a))
            } else {
                Request::read(LineAddr(a))
            };
            let out = VpnmFabric::tick(&mut fab, Some(req));
            assert_ne!(out.stall, Some(StallKind::Throttled), "tracking never throttles");
        }
        PipelinedMemory::drain(&mut fab);
        let snap = fab.merged_snapshot().unwrap();
        let tenants = &snap.tenants.as_ref().unwrap().per_tenant;
        assert_eq!(tenants.iter().map(|t| t.issued).collect::<Vec<_>>(), [30, 10]);
        assert_eq!(tenants.iter().map(|t| t.deferred).collect::<Vec<_>>(), [0, 0]);
        let json = snap.to_json();
        assert!(json.contains("\"tenants\": {"), "{json}");
        assert!(json.contains("\"mode\": \"off\""), "{json}");
        assert!(json.contains("\"issued\": 30"), "{json}");
    }

    #[test]
    fn global_regulator_defers_the_greedy_tenant_only() {
        // Tenant 1 fires every cycle against a 1/4 budget; tenant 0 sends
        // one request every 8 cycles, well under budget. Only tenant 1 is
        // ever deferred, and tenant 0's acceptance is untouched.
        let mut cfg = fabric_config(2, ChannelSelect::UniversalHash);
        cfg.qos = Some(qos_config(RegulatorMode::Global, 1, 4, 2));
        let mut fab = VpnmFabric::new(cfg, 23).unwrap();
        let mut victim_stalled = 0u64;
        for i in 0..800u64 {
            let req = if i % 8 == 0 {
                Request::read_as(crate::TenantId(0), LineAddr(i % 512))
            } else {
                Request::read_as(crate::TenantId(1), LineAddr((i * 13) % 512))
            };
            let out = VpnmFabric::tick(&mut fab, Some(req.clone()));
            if req.tenant() == crate::TenantId(0) && out.stall.is_some() {
                victim_stalled += 1;
            }
        }
        PipelinedMemory::drain(&mut fab);
        let tenants = fab.merged_snapshot().unwrap().tenants.unwrap().per_tenant;
        assert_eq!(victim_stalled, 0, "the in-budget tenant is never deferred");
        assert_eq!(tenants[0].deferred, 0);
        assert_eq!(tenants[0].issued, 100);
        assert!(tenants[1].deferred > 400, "greedy tenant deferred: {}", tenants[1].deferred);
        // The greedy tenant lands at its budgeted 1/4 rate: the bucket
        // refills 800/4 = 200 tokens over the run and starts with
        // burst = 2, so 202 is the hard ceiling.
        let issued = tenants[1].issued;
        assert!((190..=202).contains(&issued), "issued {issued}");
    }

    /// `epoch_stream` with its requests dealt round-robin to two tenants.
    fn two_tenant_stream(n: u64, seed: u64) -> Vec<Option<Request>> {
        epoch_stream(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let tenant = crate::TenantId((i % 2) as u16);
                slot.map(|req| match req {
                    Request::Read { addr, .. } => Request::read_as(tenant, addr),
                    Request::Write { addr, data, .. } => Request::write_as(tenant, addr, data),
                })
            })
            .collect()
    }

    #[test]
    fn regulated_epoch_path_matches_tick_sequence() {
        // Regulation must be drive-mode invariant: tick-by-tick, on-thread
        // epochs and pooled epochs at every worker count defer the same
        // requests and produce byte-identical snapshots — per-bank and
        // global budgets, including through the single-channel fabric
        // (whose bypass a QoS section disables).
        let stream = two_tenant_stream(900, 5);
        for (channels, qos) in [
            (1u32, qos_config(RegulatorMode::PerBank, 1, 2, 4)),
            (4, qos_config(RegulatorMode::PerBank, 1, 2, 4)),
            (8, qos_config(RegulatorMode::Global, 1, 4, 2)),
        ] {
            let mut cfg = fabric_config(channels, ChannelSelect::UniversalHash);
            cfg.qos = Some(qos);
            let mut probe = VpnmFabric::new(cfg.clone(), 0xEE).unwrap();
            assert!(
                ticked(&mut probe, &stream).stalled > 0,
                "{channels}ch: the stream must exercise deferral"
            );
            for workers in [1usize, 2, 3, 8] {
                let mk = || {
                    let mut fab = VpnmFabric::new(cfg.clone(), 0xEE).unwrap();
                    fab.set_workers(workers);
                    fab
                };
                assert_doors_match_ticks(mk, &stream, 333);
            }
        }
    }

    #[test]
    fn boxed_fabric_forwards_the_batch_doors() {
        // Through `Box<dyn PipelinedMemory>` the doors must land on the
        // fabric's native epoch path, not on the trait's tick-loop
        // defaults: same bytes as the ticked oracle, and the channels'
        // event-horizon skips show up in the merged snapshot.
        let mut cfg = fabric_config(4, ChannelSelect::UniversalHash);
        cfg.qos = Some(qos_config(RegulatorMode::Global, 1, 4, 2));
        let stream = two_tenant_stream(900, 9);
        let mk = || -> Box<dyn PipelinedMemory> {
            let mut fab = VpnmFabric::new(cfg.clone(), 0xEE).unwrap();
            fab.set_workers(2);
            Box::new(fab)
        };
        assert_doors_match_ticks(mk, &stream, 400);
        let mut boxed = mk();
        boxed.run_epoch_sparse(stream.len() as u64, &sparse_of(&stream));
        assert!(boxed.snapshot().unwrap().cycles_skipped > 0, "native path skips idle spans");

        // The consuming door reaches the fabric's own `run_epoch_owned`,
        // not the trait default (`run_epoch_sparse`, then clear): a
        // single-channel fabric hands its span on in the door it arrived
        // through, so the channel sees which one that was.
        let calls = Arc::new(Calls::default());
        let mut boxed: Box<dyn PipelinedMemory> =
            Box::new(counting_fabric(fabric_config(1, ChannelSelect::LowBits), &calls));
        run_owned(&mut boxed, &epoch_stream(300, 9));
        assert_eq!(calls.owned.load(Relaxed), 1, "forwarded to the fabric's consuming door");
        assert_eq!(calls.sparse.load(Relaxed), 0, "not re-encoded by the trait default");
    }

    /// What a [`Counting`] channel was asked to do.
    #[derive(Debug, Default)]
    struct Calls {
        bank_of: AtomicU64,
        sparse: AtomicU64,
        owned: AtomicU64,
    }

    /// A fast controller that counts the calls its fabric makes into it.
    #[derive(Debug)]
    struct Counting {
        inner: VpnmController,
        calls: Arc<Calls>,
    }

    impl PipelinedMemory for Counting {
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
        fn bank_of(&self, addr: LineAddr) -> Option<u32> {
            self.calls.bank_of.fetch_add(1, Relaxed);
            Some(self.inner.bank_of(addr))
        }
        fn run_epoch_sparse(&mut self, len: u64, requests: &[(u64, Request)]) -> RunReport {
            self.calls.sparse.fetch_add(1, Relaxed);
            PipelinedMemory::run_epoch_sparse(&mut self.inner, len, requests)
        }
        fn run_epoch_owned(&mut self, len: u64, requests: &mut Vec<(u64, Request)>) -> RunReport {
            self.calls.owned.fetch_add(1, Relaxed);
            self.inner.run_epoch_owned(len, requests)
        }
        fn snapshot(&self) -> Option<MetricsSnapshot> {
            Some(self.inner.snapshot())
        }
    }

    fn counting_fabric(config: FabricConfig, calls: &Arc<Calls>) -> VpnmFabric<Counting> {
        VpnmFabric::with_engines(config, 0xEE, |_, cfg, seed| {
            Ok(Counting { inner: VpnmController::new(cfg, seed)?, calls: Arc::clone(calls) })
        })
        .unwrap()
    }

    #[test]
    fn only_the_per_bank_regulator_hashes_the_bank() {
        // Admission reads a request's bank only for per-bank buckets: the
        // global regulator and tracking-only QoS never ask a channel for
        // it, and the per-bank regulator asks once per routed request —
        // on the tick path and the epoch path alike.
        let stream = two_tenant_stream(900, 5);
        let routed = stream.iter().flatten().count() as u64;
        for (qos, want) in [
            (QosConfig::tracking(2), 0),
            (qos_config(RegulatorMode::Global, 1, 4, 2), 0),
            (qos_config(RegulatorMode::PerBank, 1, 2, 4), routed),
        ] {
            let mut cfg = fabric_config(4, ChannelSelect::UniversalHash);
            cfg.qos = Some(qos);
            let calls = Arc::new(Calls::default());
            ticked(&mut counting_fabric(cfg.clone(), &calls), &stream);
            assert_eq!(calls.bank_of.load(Relaxed), want, "{:?}: tick path", qos.mode);
            let calls = Arc::new(Calls::default());
            run_owned(&mut counting_fabric(cfg, &calls), &stream);
            assert_eq!(calls.bank_of.load(Relaxed), want, "{:?}: epoch path", qos.mode);
        }
    }

    #[test]
    fn responses_echo_the_issuing_tenant() {
        let mut cfg = fabric_config(2, ChannelSelect::UniversalHash);
        cfg.qos = Some(QosConfig::tracking(3));
        let mut fab = VpnmFabric::new(cfg, 31).unwrap();
        let mut expected = std::collections::VecDeque::new();
        let mut got = Vec::new();
        for i in 0..200u64 {
            let tenant = crate::TenantId((i % 3) as u16);
            let out = VpnmFabric::tick(&mut fab, Some(Request::read_as(tenant, LineAddr(i))));
            if out.accepted() {
                expected.push_back(tenant);
            }
            got.extend(out.response);
        }
        got.extend(PipelinedMemory::drain(&mut fab));
        assert_eq!(got.len(), expected.len());
        for r in got {
            assert_eq!(r.tenant, expected.pop_front().unwrap());
        }
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn batch_doors_reject_malformed_like_tick() {
        // Rejected at the fabric edge with fabric-level accounting — on
        // the routed path (on-thread and pooled) and on a single channel,
        // where a malformed request must keep the span off the bypass.
        for channels in [1u32, 2] {
            let cfg = fabric_config(channels, ChannelSelect::LowBits);
            let oob = Request::read(LineAddr(1u64 << cfg.base.addr_bits));
            let fat = Request::write(LineAddr(5), vec![0; cfg.base.cell_bytes + 1]);
            let span = [None, Some(oob.clone()), Some(Request::read(LineAddr(3)))];
            let mut fab = VpnmFabric::new(cfg.clone(), 1).unwrap();
            let r = fab.run_epoch(&span);
            assert_eq!((r.rejected, r.accepted), (1, 1));
            assert_eq!(fab.merged_snapshot().unwrap().metrics.malformed_rejections, 1);

            let mut dense: Vec<Option<Request>> =
                epoch_stream(300, 3).into_iter().filter(Option::is_some).collect();
            dense[100] = Some(oob);
            dense[200] = Some(fat);
            for workers in [1, 2] {
                let mk = || {
                    let mut fab = VpnmFabric::new(cfg.clone(), 1).unwrap();
                    fab.set_workers(workers);
                    fab
                };
                assert_doors_match_ticks(mk, &dense, 150);
            }
        }
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn malformed_requests_are_rejected_at_the_fabric() {
        let mut fab = VpnmFabric::new(fabric_config(2, ChannelSelect::LowBits), 1).unwrap();
        let cell = fab.config().base.cell_bytes;
        let out = VpnmFabric::tick(&mut fab, Some(Request::write(LineAddr(0), vec![0; cell + 1])));
        assert_eq!(out.stall, Some(StallKind::OversizedWrite));
        // One past the top of the fabric address space: rejected before routing.
        let oob = 1u64 << fab.config().base.addr_bits;
        let out = VpnmFabric::tick(&mut fab, Some(Request::read(LineAddr(oob))));
        assert_eq!(out.stall, Some(StallKind::AddressRange));
        assert_eq!(fab.merged_snapshot().unwrap().metrics.malformed_rejections, 2);
    }
}
