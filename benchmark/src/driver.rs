//! The serving loop, recomposed from the same public calls `run_serve`
//! makes, in the same order, with a span around each call into a layer.
//!
//! `run_serve` builds its own engine, so it cannot be traced from
//! outside; this driver is given the memory (a [`Traced`] one for the
//! traced repetition) and otherwise does exactly what `run_serve` does.
//! The proof that it measures the real pipeline is that its canonical
//! snapshot JSON equals `run_serve`'s byte for byte on the same
//! configuration — checked by the tests and again on every traced run.
//!
//! Two deliberate differences, neither of which moves a packet: there is
//! no wall-clock pacing (the workloads are unpaced), and a response that
//! breaks the contract — late, or with the wrong payload on a stall-free
//! run — is *counted* in [`Outcome::violations`] instead of aborting.
//!
//! [`Traced`]: crate::adapter::Traced

use std::collections::VecDeque;
use std::time::Instant;

use crate::adapter::{
    self, Bytes, LaneEvent, MetricsSnapshot, PipelinedMemory, ServeConfig, ServeHistograms,
    ServingMetrics, TenantLanes, VpnmPacketBuffer,
};
use crate::trace::Recorder;

/// In-flight bookkeeping for one admitted packet.
struct PendingCell {
    arrival: u64,
    slot: u32,
    seq: u64,
    tenant: u16,
    /// Interface cycle the dequeue was presented on (set at dequeue).
    issued_at: u64,
}

/// One epoch's event lane and payload arena, kept for the ideal-memory replay.
pub struct CapturedLane {
    /// Cycles in the epoch.
    pub len: u64,
    /// The events handed to `run_epoch_arena`.
    pub events: Vec<(u64, LaneEvent)>,
    /// The arena their payload spans index.
    pub arena: Bytes,
}

/// What a driven serving run produced.
pub struct Outcome<M: PipelinedMemory> {
    /// The serving counters.
    pub serving: ServingMetrics,
    /// The memory's snapshot with `serving` attached.
    pub snapshot: Option<MetricsSnapshot>,
    /// Packets unaccounted after the drain budget.
    pub residual: u64,
    /// Responses that broke the contract (late, or wrong payload on a
    /// stall-free run).
    pub violations: u64,
    /// Offered epochs that carried arrivals, and how many of those took
    /// the batched `slots_of_batch` path.
    pub epochs_with_arrivals: u64,
    /// See `epochs_with_arrivals`.
    pub batched_epochs: u64,
    /// The first event lanes, for the replay against `IdealMemory`.
    pub lanes: Vec<CapturedLane>,
    /// The packet buffer, still holding the memory (for harvesting spans).
    pub buffer: VpnmPacketBuffer<M>,
    /// Wall time of the whole call.
    pub wall_ns: u64,
}

/// Drives one serving session over `mem`, recording spans into `rec` and
/// keeping the first `keep_lanes` event lanes.
///
/// # Errors
///
/// Returns a message for invalid geometry or an internal inconsistency
/// (a response with no issued dequeue).
pub fn drive<M: PipelinedMemory>(
    cfg: &ServeConfig,
    mem: M,
    rec: &mut Recorder,
    keep_lanes: usize,
) -> Result<Outcome<M>, String> {
    let started = Instant::now();
    let parts = adapter::serve_parts(cfg)?;
    let mut buf = adapter::packet_buffer(mem, parts.capacity, cfg.cells_per_queue)?;
    let mut table = adapter::flow_table(parts.capacity);
    let mut rig = adapter::rig_spawn(cfg, &parts);
    let delay = adapter::buffer_delay(&buf);

    let mut ingress: VecDeque<(u64, Option<u32>, u16)> = VecDeque::with_capacity(cfg.queue_depth);
    let mut tx_fifo: VecDeque<PendingCell> = VecDeque::new();
    let mut issued: VecDeque<PendingCell> = VecDeque::new();
    let mut tenant_lanes = (parts.tenant_lanes > 0).then(|| TenantLanes::new(parts.tenant_lanes));
    let drop_one = |lanes: &mut Option<TenantLanes>, tenant: u16| {
        if let Some(t) = lanes.as_mut() {
            let lane = t.lane(tenant);
            t.dropped[lane] += 1;
        }
    };

    let mut serving = adapter::serving_metrics(cfg);
    let mut hist = ServeHistograms::default();
    let mut stalls_seen = 0u64;
    let mut violations = 0u64;
    let (mut epochs_with_arrivals, mut batched_epochs) = (0u64, 0u64);
    let mut lanes: Vec<CapturedLane> = Vec::new();

    let offered_epochs = parts.offered_epochs;
    let mut epoch = 0u64;
    let mut drain_end: Option<u64> = None;
    let mut events: Vec<(u64, LaneEvent)> = Vec::new();
    let mut batch_flows: Vec<u64> = Vec::new();
    let mut slots_lane: Vec<Option<u32>> = Vec::new();
    let mut arena_buf: Vec<u8> = Vec::new();
    loop {
        let epoch_start_ns = rec.now_ns();
        let (start, end) = if epoch < offered_epochs {
            parts.window(epoch)
        } else {
            let done = ingress.is_empty() && tx_fifo.is_empty() && issued.is_empty();
            if done || drain_end.is_some_and(|e| epoch >= e) {
                break;
            }
            let start = cfg.cycles + (epoch - offered_epochs) * cfg.epoch_len;
            (start, start + cfg.epoch_len)
        };
        let len = end - start;

        let t = rec.now_ns();
        let arrivals = if epoch < offered_epochs { adapter::rig_next_epoch(&mut rig) } else { &[] };
        rec.close("serve", "ingress_wait", epoch, t, arrivals.len() as u64);
        if epoch + 1 == offered_epochs {
            let backlog = (ingress.len() + tx_fifo.len() + issued.len()) as u64
                + arrivals.len() as u64
                + cfg.epoch_len;
            drain_end = Some(offered_epochs + (backlog + delay).div_ceil(cfg.epoch_len) + 2);
        }

        let batched = ingress.len() + arrivals.len() <= cfg.queue_depth;
        if !arrivals.is_empty() {
            epochs_with_arrivals += 1;
            batched_epochs += u64::from(batched);
        }
        if batched && !arrivals.is_empty() {
            let t = rec.now_ns();
            batch_flows.clear();
            batch_flows.extend(arrivals.iter().map(|a| a.flow));
            adapter::slots_of_batch(&mut table, &batch_flows, &mut slots_lane);
            rec.close("serve", "slots_of_batch", epoch, t, arrivals.len() as u64);
        }
        // Scalar probes are interleaved with scheduling, so their time is
        // accumulated per call and recorded as one span per epoch.
        let (mut scalar_ns, mut scalar_calls, scalar_from) = (0u64, 0u64, rec.now_ns());

        events.clear();
        let mut next_arrival = 0usize;
        for c in start..end {
            while next_arrival < arrivals.len() && arrivals[next_arrival].cycle == c {
                let a = arrivals[next_arrival];
                serving.offered += 1;
                if batched {
                    ingress.push_back((a.cycle, slots_lane[next_arrival], a.tenant));
                } else if ingress.len() >= cfg.queue_depth {
                    serving.ingress_drops += 1;
                    drop_one(&mut tenant_lanes, a.tenant);
                } else {
                    let t = rec.now_ns();
                    let slot = adapter::slot_of(&mut table, a.flow);
                    scalar_ns += rec.now_ns() - t;
                    scalar_calls += 1;
                    ingress.push_back((a.cycle, slot, a.tenant));
                }
                next_arrival += 1;
            }
            hist.occupancy(ingress.len() as u64);

            let offset = c - start;
            if !tx_fifo.is_empty() && tx_fifo.len() >= ingress.len() {
                let mut cell = tx_fifo.pop_front().expect("non-empty");
                let seq = adapter::note_dequeue(&mut table, cell.slot);
                debug_assert_eq!(seq, cell.seq, "per-flow FIFO order");
                events.push((offset, LaneEvent::Dequeue { queue: cell.slot, tenant: cell.tenant }));
                cell.issued_at = c + 1;
                issued.push_back(cell);
            } else if let Some(&(arrived, slot, tenant)) = ingress.front() {
                match slot {
                    None => {
                        serving.flow_table_drops += 1;
                        drop_one(&mut tenant_lanes, tenant);
                    }
                    Some(slot) if adapter::flow_occupancy(&table, slot) >= cfg.cells_per_queue => {
                        serving.flow_queue_drops += 1;
                        drop_one(&mut tenant_lanes, tenant);
                    }
                    Some(slot) => {
                        let seq = adapter::note_enqueue(&mut table, slot);
                        let span = arena_buf.len() as u32;
                        adapter::payload_extend(slot, seq, cfg.cell_bytes, &mut arena_buf);
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
                        tx_fifo.push_back(PendingCell {
                            arrival: arrived,
                            slot,
                            seq,
                            tenant,
                            issued_at: 0,
                        });
                    }
                }
                ingress.pop_front();
            }
            serving.transmit_backlog_hwm = serving.transmit_backlog_hwm.max(tx_fifo.len() as u64);
        }
        if scalar_calls > 0 {
            rec.push("serve", "slot_of", epoch, scalar_from, scalar_from + scalar_ns, scalar_calls);
        }

        let filled = arena_buf.len();
        let arena = adapter::arena(std::mem::replace(&mut arena_buf, Vec::with_capacity(filled)));
        let t = rec.now_ns();
        let report = adapter::run_epoch_arena(&mut buf, len, &events, &arena);
        rec.close("packet_buffer", "run_epoch_arena", epoch, t, events.len() as u64);
        if lanes.len() < keep_lanes {
            lanes.push(CapturedLane { len, events: events.clone(), arena: arena.clone() });
        }
        stalls_seen += report.stalled;
        for d in report.delivered {
            let cell = loop {
                let front = issued.pop_front().ok_or("response without an issued dequeue")?;
                if front.slot == d.cell.queue {
                    break front;
                }
                serving.stall_drops += 1;
                drop_one(&mut tenant_lanes, front.tenant);
            };
            let intact =
                adapter::payload_matches(cell.slot, cell.seq, cfg.cell_bytes, &d.cell.data);
            // After a stall or deferral, a response can pair with an older
            // orphan of the same queue; only a response known to be this
            // cell's (right payload, or no stall yet) is held to `t + D`.
            if (intact || stalls_seen == 0) && d.completed_at != cell.issued_at + delay {
                violations += 1;
            }
            if cfg.verify && !intact {
                if stalls_seen == 0 {
                    violations += 1;
                }
                serving.stall_drops += 1;
                drop_one(&mut tenant_lanes, cell.tenant);
                continue;
            }
            serving.transmitted += 1;
            let waited = d.completed_at.saturating_sub(cell.arrival);
            hist.latency(waited);
            if let Some(t) = tenant_lanes.as_mut() {
                t.deliver(cell.tenant, waited);
            }
        }
        rec.close("serve", "epoch", epoch, epoch_start_ns, len);
        epoch += 1;
    }
    serving.producer_parks = adapter::rig_join(rig);

    serving.stall_drops += adapter::reconcile_lost(&mut buf);
    serving.stall_drops += issued.len() as u64;
    for cell in &issued {
        drop_one(&mut tenant_lanes, cell.tenant);
    }
    serving.flows = adapter::flow_count(&table);
    let residual = (ingress.len() + tx_fifo.len()) as u64;
    let wall_ns = started.elapsed().as_nanos() as u64;
    serving.wall_nanos = wall_ns;
    if wall_ns > 0 {
        serving.mpps = serving.transmitted as f64 / (wall_ns as f64 / 1e9) / 1e6;
    }
    let snapshot = adapter::finish_snapshot(&buf, &mut serving, hist, tenant_lanes.as_ref());
    Ok(Outcome {
        serving,
        snapshot,
        residual,
        violations,
        epochs_with_arrivals,
        batched_epochs,
        lanes,
        buffer: buf,
        wall_ns,
    })
}
