//! Live serving front-end: concurrent producers driving the
//! fabric-backed packet buffer at a paced line rate.
//!
//! This module is the operational composition of everything below it —
//! the VPNM paper's deterministic-latency promise (every read accepted at
//! cycle `t` answers at exactly `t + D`, Section 4) turned into a serving
//! loop with the moving parts a deployment has:
//!
//! ```text
//!  producers (N threads)          server thread (one epoch per turn)
//!  ───────────────────            ─────────────────────────────────────
//!  Bernoulli(load) / trace   ┌─► bounded ingress queue ──► admit ──┐
//!  flow IDs from the mix ────┤      (reject: tail drop)            │
//!  bounded lanes (park) ─────┘                                     ▼
//!                                  FlowTable slot == buffer queue index
//!                                                                  │
//!  egress ◄── deterministic t+D return ◄── VpnmPacketBuffer ◄──────┘
//!             (latency histogram)          run_epoch_arena → fabric workers
//! ```
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
use std::time::Instant;

use bytes::Bytes;
use vpnm_core::{MetricsSnapshot, PipelinedMemory, ServingMetrics, VpnmConfig};
use vpnm_sim::{FineHistogram, Histogram, WallPacer};
use vpnm_workloads::packets::{payload_extend, payload_matches};
use vpnm_workloads::{HeavyTailFlows, MultiTenantMix, Tagged, TenantFlowGen, UniformAddresses};

use crate::engine::EngineOpts;
use crate::packet_buffer::{LaneEvent, VpnmPacketBuffer};

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

    pub(crate) fn generator(&self, seed: u64) -> Box<dyn TenantFlowGen + Send> {
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
    /// Engine/fabric topology (the shared `--engine/--channels/--select/
    /// --workers` selection).
    pub engine: EngineOpts,
    /// Memory design point each channel runs.
    pub base: VpnmConfig,
    /// Concurrent producer threads.
    pub producers: u32,
    /// Offered window in interface cycles.
    pub cycles: u64,
    /// Cycles per epoch batch (the producer hand-off and
    /// `run_epoch_arena` unit).
    pub epoch_len: u64,
    /// Traffic source.
    pub source: ArrivalSource,
    /// Ingress-queue bound in packets; occupancy never exceeds it.
    pub queue_depth: usize,
    /// Per-flow buffer ring depth in cells.
    pub cells_per_queue: u64,
    /// Payload bytes per cell.
    pub cell_bytes: usize,
    /// Wall-clock pacing in interface cycles per second;
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

    fn flow_space(&self) -> u64 {
        match &self.source {
            ArrivalSource::Synthetic { mix, .. } => mix.space(),
            ArrivalSource::Trace(t) => t.iter().map(|a| a.flow).max().map_or(1, |m| m + 1),
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

/// In-flight bookkeeping for one offered packet after admission.
struct PendingCell {
    arrival: u64,
    slot: u32,
    seq: u64,
    tenant: u16,
}

/// Serve-side per-tenant accounting, folded into the snapshot's
/// [`TenantSection`](vpnm_core::TenantSection) on return. Allocated only
/// when the engine selection is QoS-tracked.
struct TenantLanes {
    dropped: Vec<u64>,
    transmitted: Vec<u64>,
    latency: Vec<FineHistogram>,
}

impl TenantLanes {
    fn new(tenants: usize) -> Self {
        TenantLanes {
            dropped: vec![0; tenants],
            transmitted: vec![0; tenants],
            latency: vec![FineHistogram::new(); tenants],
        }
    }

    #[inline]
    fn lane(&self, tenant: u16) -> usize {
        usize::from(tenant).min(self.dropped.len() - 1)
    }

    #[inline]
    fn drop_one(&mut self, tenant: u16) {
        let lane = self.lane(tenant);
        self.dropped[lane] += 1;
    }
}

/// Runs one serving session end to end: spawn producers, drive the
/// buffer epoch by epoch (pacing if configured), drain, and account.
///
/// On return every offered packet is accounted exactly once:
/// `offered == transmitted + ingress_drops + flow_queue_drops +
/// flow_table_drops + stall_drops + residual`
/// (see [`ServingMetrics::conserves`]).
///
/// # Errors
///
/// Returns a message for invalid geometry, or — with
/// [`ServeConfig::verify`] — for a payload that fails verification on a
/// stall-free run (which would be a correctness bug, not congestion).
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeReport, String> {
    if cfg.epoch_len == 0 || cfg.cycles == 0 {
        return Err("cycles and epoch_len must be positive".into());
    }
    if cfg.queue_depth == 0 {
        return Err("queue_depth must be positive".into());
    }
    if cfg.cell_bytes > cfg.base.cell_bytes {
        // Larger payloads would be rejected by the memory controller as
        // oversized writes on every single enqueue — catch the
        // misconfiguration here instead of silently dropping the run.
        return Err(format!(
            "cell_bytes {} exceeds the memory design point's cell size {}",
            cfg.cell_bytes, cfg.base.cell_bytes
        ));
    }
    if cfg.epoch_len.saturating_mul(cfg.cell_bytes as u64) > u64::from(u32::MAX) {
        return Err("epoch_len * cell_bytes must fit in 32 bits (payload arena offsets)".into());
    }
    let capacity_u64 = cfg.flow_space().next_power_of_two().max(2);
    let capacity = u32::try_from(capacity_u64).map_err(|_| "flow space too large".to_string())?;
    let mem = cfg.engine.build(cfg.base.clone(), cfg.seed)?;
    let mut buf = VpnmPacketBuffer::with_memory(mem, capacity, cfg.cells_per_queue)?;
    let mut table = FlowTable::new(capacity);

    let plan = EpochPlan { cycles: cfg.cycles, epoch_len: cfg.epoch_len };
    let mut rig = IngressRig::spawn(cfg.producers, &cfg.source, plan, cfg.seed);

    // Ingress entries carry their flow-table slot, resolved at
    // admission time by one `slot_of` probe. Admission order equals
    // FIFO service order, so hoisting the `slot_of` probe from service
    // to admission preserves the exact probe sequence — and with it the
    // table layout — byte for byte.
    let mut ingress: VecDeque<(u64, Option<u32>, u16)> = VecDeque::with_capacity(cfg.queue_depth);
    let mut tx_fifo: VecDeque<PendingCell> = VecDeque::new();
    let mut issued: VecDeque<PendingCell> = VecDeque::new();
    let mut tenant_lanes =
        cfg.engine.qos().map(|q| TenantLanes::new(usize::from(q.tenants.max(1))));

    let mut serving = ServingMetrics {
        producers: cfg.producers,
        paced_rate: cfg.pace.unwrap_or(0),
        queue_bound: cfg.queue_depth,
        ..ServingMetrics::default()
    };
    let mut latency = FineHistogram::new();
    let mut occupancy = Histogram::new();
    let mut stalls_seen = 0u64;

    let mut pacer = cfg.pace.map(WallPacer::new);
    let mut cycles_banked = 0u64;
    let started = Instant::now();

    // The offered window, then idle drain epochs until everything
    // admitted has retired (bounded budget: backlog + pipeline delay).
    let offered_epochs = plan.epochs();
    let mut epoch = 0u64;
    let drain_budget =
        |backlog: u64, delay: u64, epoch_len: u64| (backlog + delay).div_ceil(epoch_len) + 2;
    let mut drain_end: Option<u64> = None;
    // Reused across epochs: the event lane and the payload arena — the
    // steady state allocates one arena per epoch, nothing per packet.
    let mut events: Vec<(u64, LaneEvent)> = Vec::new();
    let mut arena_buf: Vec<u8> = Vec::new();
    loop {
        let (start, end) = if epoch < offered_epochs {
            plan.window(epoch)
        } else {
            let done = ingress.is_empty() && tx_fifo.is_empty() && issued.is_empty();
            let budget_exhausted = drain_end.is_some_and(|e| epoch >= e);
            if done || budget_exhausted {
                break;
            }
            let start = cfg.cycles + (epoch - offered_epochs) * cfg.epoch_len;
            (start, start + cfg.epoch_len)
        };
        let len = end - start;

        let arrivals: &[Arrival] = if epoch < offered_epochs { rig.next_epoch() } else { &[] };
        if epoch + 1 == offered_epochs {
            let backlog = (ingress.len() + tx_fifo.len() + issued.len()) as u64
                + arrivals.len() as u64
                + cfg.epoch_len;
            drain_end = Some(offered_epochs + drain_budget(backlog, buf.delay(), cfg.epoch_len));
        }

        // Pace: wait until the wall clock has earned `len` more cycles.
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

        // Schedule the epoch: one memory operation per cycle, shared
        // between egress (transmit) and admission.
        events.clear();
        let mut next_arrival = 0usize;
        for c in start..end {
            while next_arrival < arrivals.len() && arrivals[next_arrival].cycle == c {
                let a = arrivals[next_arrival];
                serving.offered += 1;
                if ingress.len() >= cfg.queue_depth {
                    serving.ingress_drops += 1;
                    if let Some(t) = tenant_lanes.as_mut() {
                        t.drop_one(a.tenant);
                    }
                } else {
                    ingress.push_back((a.cycle, table.slot_of(a.flow), a.tenant));
                }
                next_arrival += 1;
            }
            occupancy.record(ingress.len() as u64);

            let offset = c - start;
            // Egress-first when the transmit backlog has caught up with
            // ingress: keeps both sides bounded and the pipe full.
            if !tx_fifo.is_empty() && tx_fifo.len() >= ingress.len() {
                let cell = tx_fifo.pop_front().expect("non-empty");
                let seq = table.note_dequeue(cell.slot);
                debug_assert_eq!(seq, cell.seq, "per-flow FIFO order");
                events.push((offset, LaneEvent::Dequeue { queue: cell.slot, tenant: cell.tenant }));
                issued.push_back(cell);
            } else if let Some(&(arrived, slot, tenant)) = ingress.front() {
                match slot {
                    None => {
                        serving.flow_table_drops += 1;
                        if let Some(t) = tenant_lanes.as_mut() {
                            t.drop_one(tenant);
                        }
                        ingress.pop_front();
                    }
                    Some(slot) if u64::from(table.occupancy(slot)) >= cfg.cells_per_queue => {
                        serving.flow_queue_drops += 1;
                        if let Some(t) = tenant_lanes.as_mut() {
                            t.drop_one(tenant);
                        }
                        ingress.pop_front();
                    }
                    Some(slot) => {
                        let seq = table.note_enqueue(slot);
                        let span = arena_buf.len() as u32;
                        payload_extend(slot, seq, cfg.cell_bytes, &mut arena_buf);
                        events.push((
                            offset,
                            LaneEvent::Enqueue {
                                queue: slot,
                                start: span,
                                end: arena_buf.len() as u32,
                                tenant,
                            },
                        ));
                        serving.admitted += 1;
                        tx_fifo.push_back(PendingCell { arrival: arrived, slot, seq, tenant });
                        ingress.pop_front();
                    }
                }
            }
            serving.transmit_backlog_hwm = serving.transmit_backlog_hwm.max(tx_fifo.len() as u64);
        }

        // One refcounted arena per epoch; every enqueue is a zero-copy
        // slice of it. Replacing (not taking) keeps the capacity hint.
        let filled = arena_buf.len();
        let arena = Bytes::from(std::mem::replace(&mut arena_buf, Vec::with_capacity(filled)));
        let report = buf.run_epoch_arena(len, &events, &arena);
        debug_assert!(report.outcomes.iter().all(Result::is_ok), "shadow occupancy is exact");
        stalls_seen += report.stalled;
        for d in report.delivered {
            // A stalled read loses its response; skip (and count) the
            // orphaned issue-side entries the same way the buffer does.
            let cell = loop {
                let front = issued.pop_front().ok_or("response without an issued dequeue")?;
                if front.slot == d.cell.queue {
                    break front;
                }
                serving.stall_drops += 1;
                if let Some(t) = tenant_lanes.as_mut() {
                    t.drop_one(front.tenant);
                }
            };
            if cfg.verify && !payload_matches(cell.slot, cell.seq, cfg.cell_bytes, &d.cell.data) {
                if stalls_seen == 0 {
                    return Err(format!(
                        "payload mismatch on stall-free run: flow slot {} seq {}",
                        cell.slot, cell.seq
                    ));
                }
                // A stalled write leaves a hole the read returns garbage
                // from; the packet was lost to the stall.
                serving.stall_drops += 1;
                if let Some(t) = tenant_lanes.as_mut() {
                    t.drop_one(cell.tenant);
                }
                continue;
            }
            serving.transmitted += 1;
            let waited = d.completed_at.saturating_sub(cell.arrival);
            latency.record(waited);
            if let Some(t) = tenant_lanes.as_mut() {
                let lane = t.lane(cell.tenant);
                t.transmitted[lane] += 1;
                t.latency[lane].record(waited);
            }
        }
        epoch += 1;
    }
    // Join first, then take the exact park total: `join` reads the
    // counters with `Acquire` after every producer thread has exited,
    // so no in-flight increment is missed at shutdown.
    serving.producer_parks = rig.join();

    // Anything still unpaired after a full drain is an orphan of a
    // stalled (or regulator-deferred) read. The buffer's in-flight FIFO
    // and `issued` mirror the same dequeues, so each orphan is counted
    // once, from `issued`; `reconcile_lost` runs for its clearing side
    // effect on the buffer's own accounting.
    let orphans = buf.reconcile_lost();
    debug_assert_eq!(orphans, issued.len() as u64, "both FIFOs mirror the same dequeues");
    serving.stall_drops += issued.len() as u64;
    if let Some(t) = tenant_lanes.as_mut() {
        for cell in &issued {
            t.drop_one(cell.tenant);
        }
    }
    issued.clear();

    serving.flows = table.flows();
    serving.latency = latency;
    serving.ingress_occupancy = occupancy;
    serving.wall_nanos = started.elapsed().as_nanos() as u64;
    if serving.wall_nanos > 0 {
        serving.mpps = serving.transmitted as f64 / (serving.wall_nanos as f64 / 1e9) / 1e6;
    }

    let residual = (ingress.len() + tx_fifo.len()) as u64;
    debug_assert!(serving.conserves(residual), "packet conservation");
    let snapshot = buf.memory().snapshot().map(|mut s| {
        // Fold the serve-side attribution (drops, deliveries, latency)
        // into the fabric's tenant section, which already carries the
        // regulator-side issued/deferred counts.
        if let (Some(section), Some(lanes)) = (s.tenants.as_mut(), tenant_lanes.as_ref()) {
            for (i, stats) in section.per_tenant.iter_mut().enumerate() {
                if i < lanes.dropped.len() {
                    stats.dropped += lanes.dropped[i];
                    stats.transmitted += lanes.transmitted[i];
                    stats.latency.merge(&lanes.latency[i]);
                }
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
        use crate::engine::EngineKind;
        use vpnm_core::RegulatorMode;
        let banks = u64::from(VpnmConfig::test_roomy().banks) * 2;
        let mk = |regulator| ServeConfig {
            engine: EngineOpts {
                kind: EngineKind::Fast,
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
