//! Concurrent ingress: producer threads, bounded hand-off, trace replay.
//!
//! N producer threads feed the serving loop's scheduler thread through
//! bounded lanes ([`vpnm_core::ring::spsc`], std's `sync_channel` with a
//! park count — one data lane per producer, two epoch batches deep),
//! drained in whole-epoch batches. The hand-off is the "park" half of the
//! serving layer's reject/park backpressure: a producer that outruns the
//! server sleeps on its full lane — counted, never buffered unboundedly.
//! The "reject" half (tail drops at the bounded ingress queue) lives in
//! the serving loop itself.
//!
//! Batch buffers travel a closed loop: drained `Vec<Arrival>`s return
//! to their producer over a reverse recycle lane, so the steady state
//! allocates nothing — the same buffers shuttle back and forth for the
//! whole run.
//!
//! # Determinism
//!
//! Producer `p` of `P` owns the interface cycles `c ≡ p (mod P)` and
//! draws its arrival coin flips and flow IDs from its own
//! `seed ⊕ splitmix` stream, so the *content* of every epoch batch is a
//! pure function of `(seed, p, epoch)` — thread scheduling moves only
//! wall time, never a packet. Replayed traces are partitioned by the same
//! cycle-ownership rule.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpnm_core::ring::{spsc, SpscReceiver, SpscSender};
use vpnm_hash::fast::splitmix64;

use super::FlowMix;

/// One offered packet: the interface cycle it arrives on, its flow ID,
/// and the tenant that offered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Absolute interface cycle of arrival.
    pub cycle: u64,
    /// Flow identifier (hashed into the flow table by the server).
    pub flow: u64,
    /// Offering tenant (0 in single-tenant traffic).
    pub tenant: u16,
}

/// Where producers get their packets from.
#[derive(Debug, Clone)]
pub enum ArrivalSource {
    /// Synthetic traffic: Bernoulli(`load`) arrival per owned cycle,
    /// flow IDs drawn from `mix`.
    Synthetic {
        /// Offered load in packets per interface cycle (0.0–1.0).
        load: f64,
        /// Flow-ID distribution.
        mix: FlowMix,
    },
    /// Replay of a pre-generated trace (see [`read_trace`]), partitioned
    /// across producers by cycle ownership.
    Trace(Arc<Vec<Arrival>>),
}

/// Epoch geometry shared by producers and server.
#[derive(Debug, Clone, Copy)]
pub struct EpochPlan {
    /// Total offered interface cycles.
    pub cycles: u64,
    /// Cycles per epoch (the batch hand-off unit).
    pub epoch_len: u64,
}

impl EpochPlan {
    /// Number of epochs covering the offered window (last may be short).
    pub fn epochs(&self) -> u64 {
        self.cycles.div_ceil(self.epoch_len)
    }

    /// Cycle window `[start, end)` of epoch `e`.
    pub fn window(&self, e: u64) -> (u64, u64) {
        let start = e * self.epoch_len;
        (start, ((e + 1) * self.epoch_len).min(self.cycles))
    }
}

/// The running producer fleet and its hand-off lanes.
pub struct IngressRig {
    lanes: Vec<SpscReceiver<Vec<Arrival>>>,
    recycle: Vec<SpscSender<Vec<Arrival>>>,
    handles: Vec<JoinHandle<()>>,
    merged: Vec<Arrival>,
}

impl std::fmt::Debug for IngressRig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngressRig").field("producers", &self.lanes.len()).finish_non_exhaustive()
    }
}

/// How many epoch batches a lane holds before its producer parks.
const LANE_DEPTH: usize = 2;

/// Recycle lanes are deeper than data lanes so returning a drained
/// buffer can never block the server: per producer at most
/// `LANE_DEPTH` buffers sit in the data lane, one is being filled, and
/// one is in the server's hands.
const RECYCLE_DEPTH: usize = LANE_DEPTH + 2;

impl IngressRig {
    /// Spawns `producers` threads generating from `source` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `producers` is 0 or `plan.epoch_len` is 0.
    pub fn spawn(producers: u32, source: &ArrivalSource, plan: EpochPlan, seed: u64) -> Self {
        assert!(producers > 0, "need at least one producer");
        assert!(plan.epoch_len > 0, "epoch length must be positive");
        let mut lanes = Vec::with_capacity(producers as usize);
        let mut recycle = Vec::with_capacity(producers as usize);
        let mut handles = Vec::with_capacity(producers as usize);
        for p in 0..producers {
            let (tx, rx) = spsc::<Vec<Arrival>>(LANE_DEPTH);
            let (pool_tx, pool_rx) = spsc::<Vec<Arrival>>(RECYCLE_DEPTH);
            lanes.push(rx);
            recycle.push(pool_tx);
            let source = source.clone();
            handles.push(std::thread::spawn(move || {
                produce(p, producers, &source, plan, seed, &tx, pool_rx);
            }));
        }
        IngressRig { lanes, recycle, handles, merged: Vec::new() }
    }

    /// Receives every producer's batch for the next epoch and merges
    /// them into one cycle-ordered arrival slice (valid until the next
    /// call). Drained batch buffers are recycled back to their
    /// producers, so the steady state allocates nothing.
    ///
    /// Must be called exactly [`EpochPlan::epochs`] times.
    ///
    /// # Panics
    ///
    /// Panics if a producer thread died (lane disconnected).
    pub fn next_epoch(&mut self) -> &[Arrival] {
        self.merged.clear();
        for (lane, pool) in self.lanes.iter_mut().zip(&self.recycle) {
            let mut batch = match lane.recv() {
                Ok(b) => b,
                Err(_) => panic!("producer thread died before its last epoch"),
            };
            self.merged.extend_from_slice(&batch);
            batch.clear();
            // A failed return (producer already exited) just drops the
            // buffer; correctness never depends on recycling.
            let _ = pool.try_send(batch);
        }
        // Each cycle has exactly one owner, so sorting by cycle is a
        // total order and the merge is deterministic.
        self.merged.sort_unstable_by_key(|a| a.cycle);
        &self.merged
    }

    /// Joins the producer fleet (all epochs must have been received)
    /// and returns how many times a producer found its hand-off lane
    /// full (measurement domain — depends on thread timing, zeroed by
    /// [`ServingMetrics::canonical`](vpnm_core::ServingMetrics::canonical)).
    /// The count is read with `Acquire` *after* every producer thread has
    /// been joined, so no late `Release` increment can be missed.
    pub fn join(self) -> u64 {
        for h in self.handles {
            h.join().expect("producer thread panicked");
        }
        self.lanes.iter().map(SpscReceiver::parks).sum()
    }
}

fn produce(
    p: u32,
    producers: u32,
    source: &ArrivalSource,
    plan: EpochPlan,
    seed: u64,
    tx: &SpscSender<Vec<Arrival>>,
    mut pool: SpscReceiver<Vec<Arrival>>,
) {
    let stride = u64::from(producers);
    let mut synth = match source {
        ArrivalSource::Synthetic { load, mix } => {
            let rng = StdRng::seed_from_u64(splitmix64(seed ^ (0xA110_C8ED + u64::from(p))));
            Some((*load, mix.generator(splitmix64(seed.rotate_left(17) ^ u64::from(p))), rng))
        }
        ArrivalSource::Trace(_) => None,
    };
    let mut trace_pos = 0usize;
    for e in 0..plan.epochs() {
        let (start, end) = plan.window(e);
        // Recycled by the server and already cleared, or a fresh one.
        let mut batch = pool.try_recv().unwrap_or_default();
        match source {
            ArrivalSource::Synthetic { .. } => {
                let (load, gen, rng) = synth.as_mut().expect("synthetic state");
                // first owned cycle >= start
                let mut c = start + (u64::from(p) + stride - start % stride) % stride;
                while c < end {
                    if rng.gen::<f64>() < *load {
                        let (tenant, flow) = gen.next_tagged();
                        batch.push(Arrival { cycle: c, flow, tenant });
                    }
                    c += stride;
                }
            }
            ArrivalSource::Trace(trace) => {
                while trace_pos < trace.len() && trace[trace_pos].cycle < end {
                    let a = trace[trace_pos];
                    trace_pos += 1;
                    if a.cycle % stride == u64::from(p) {
                        batch.push(a);
                    }
                }
            }
        }
        // `send` parks (counted inside the lane) while the lane is
        // full and returns false only if the server is gone.
        if !tx.send(batch) {
            return; // server gone; nothing left to do
        }
    }
}

/// Magic prefix of the single-tenant (V1) binary arrival-trace format.
pub const TRACE_MAGIC: &[u8; 8] = b"VPNMTRC1";

/// Magic prefix of the tenant-tagged (V2) arrival-trace format.
pub const TRACE_MAGIC_V2: &[u8; 8] = b"VPNMTRC2";

/// Header length of both trace formats: magic, offered-cycle count and
/// record count.
const TRACE_HEADER_BYTES: u64 = 24;

/// Writes an arrival trace: magic, offered-cycle count, record count,
/// then the records, all little-endian u64.
///
/// A trace whose arrivals are all tenant 0 is written in the V1 format
/// (`(cycle, flow)` pairs — byte-identical to pre-tenancy traces); any
/// non-zero tenant switches to V2 `(cycle, flow, tenant)` triples.
/// [`read_trace`] accepts both.
///
/// # Errors
///
/// Returns the I/O error message.
pub fn write_trace(path: &str, cycles: u64, arrivals: &[Arrival]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| format!("write {path}: {e}");
    let tagged = arrivals.iter().any(|a| a.tenant != 0);
    w.write_all(if tagged { TRACE_MAGIC_V2 } else { TRACE_MAGIC }).map_err(io)?;
    w.write_all(&cycles.to_le_bytes()).map_err(io)?;
    w.write_all(&(arrivals.len() as u64).to_le_bytes()).map_err(io)?;
    for a in arrivals {
        w.write_all(&a.cycle.to_le_bytes()).map_err(io)?;
        w.write_all(&a.flow.to_le_bytes()).map_err(io)?;
        if tagged {
            w.write_all(&u64::from(a.tenant).to_le_bytes()).map_err(io)?;
        }
    }
    w.flush().map_err(io)
}

/// Reads a trace written by [`write_trace`], returning the offered-cycle
/// count and the cycle-ordered arrivals.
///
/// # Errors
///
/// Returns a message for I/O failures, a bad magic, a record count the
/// file's length does not match (checked before anything is allocated
/// for the records), or an out-of-order / duplicate-cycle record (one
/// arrival per cycle is the format's invariant — it is what makes
/// producer partitioning exact).
pub fn read_trace(path: &str) -> Result<(u64, Vec<Arrival>), String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let file_len = file.metadata().map_err(|e| format!("stat {path}: {e}"))?.len();
    let mut r = std::io::BufReader::new(file);
    let io = |e: std::io::Error| format!("read {path}: {e}");
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io)?;
    let tagged = match &magic {
        m if m == TRACE_MAGIC => false,
        m if m == TRACE_MAGIC_V2 => true,
        _ => return Err(format!("{path}: not a VPNM trace (bad magic)")),
    };
    let mut word = [0u8; 8];
    r.read_exact(&mut word).map_err(io)?;
    let cycles = u64::from_le_bytes(word);
    r.read_exact(&mut word).map_err(io)?;
    let count = u64::from_le_bytes(word);
    let record_bytes = if tagged { 24 } else { 16 };
    let body = file_len.saturating_sub(TRACE_HEADER_BYTES);
    if count.checked_mul(record_bytes) != Some(body) {
        return Err(format!(
            "{path}: header claims {count} records of {record_bytes} bytes, \
             but {body} bytes follow the header"
        ));
    }
    let count = usize::try_from(count)
        .map_err(|_| format!("{path}: {count} records do not fit in memory"))?;
    let mut arrivals = Vec::with_capacity(count);
    let mut prev: Option<u64> = None;
    for i in 0..count {
        r.read_exact(&mut word).map_err(io)?;
        let cycle = u64::from_le_bytes(word);
        r.read_exact(&mut word).map_err(io)?;
        let flow = u64::from_le_bytes(word);
        let tenant = if tagged {
            r.read_exact(&mut word).map_err(io)?;
            u16::try_from(u64::from_le_bytes(word))
                .map_err(|_| format!("{path}: record {i} tenant does not fit in 16 bits"))?
        } else {
            0
        };
        if cycle >= cycles {
            return Err(format!("{path}: record {i} cycle {cycle} outside trace of {cycles}"));
        }
        if prev.is_some_and(|p| p >= cycle) {
            return Err(format!("{path}: record {i} breaks one-arrival-per-cycle order"));
        }
        prev = Some(cycle);
        arrivals.push(Arrival { cycle, flow, tenant });
    }
    Ok((cycles, arrivals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(producers: u32, source: &ArrivalSource, plan: EpochPlan, seed: u64) -> Vec<Arrival> {
        let mut rig = IngressRig::spawn(producers, source, plan, seed);
        let mut all = Vec::new();
        for _ in 0..plan.epochs() {
            all.extend_from_slice(rig.next_epoch());
        }
        rig.join();
        all
    }

    #[test]
    fn slow_server_parks_producers_and_join_reports_them() {
        // 8 epochs through a 2-deep lane with a stalled server: the
        // producer must fill the lane and park at least once.
        let plan = EpochPlan { cycles: 8 * 16, epoch_len: 16 };
        let source = ArrivalSource::Synthetic { load: 1.0, mix: FlowMix::Uniform { space: 16 } };
        let mut rig = IngressRig::spawn(1, &source, plan, 3);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut offered = 0usize;
        for _ in 0..plan.epochs() {
            offered += rig.next_epoch().len();
        }
        assert_eq!(offered as u64, plan.cycles, "load 1.0 offers every cycle");
        let parks = rig.join();
        assert!(parks >= 1, "producer never parked against a stalled server");
    }

    #[test]
    fn synthetic_batches_are_deterministic_and_owned() {
        let plan = EpochPlan { cycles: 10_000, epoch_len: 256 };
        let source =
            ArrivalSource::Synthetic { load: 0.4, mix: FlowMix::Uniform { space: 1 << 16 } };
        let a = collect(4, &source, plan, 7);
        let b = collect(4, &source, plan, 7);
        assert_eq!(a, b, "same seed, same fleet => identical arrivals");
        assert!(!a.is_empty());
        let expected = (plan.cycles as f64 * 0.4) as u64;
        assert!(
            (a.len() as u64).abs_diff(expected) < expected / 5,
            "offered {} far from load target {expected}",
            a.len()
        );
        for w in a.windows(2) {
            assert!(w[0].cycle < w[1].cycle, "merged stream is cycle-ordered, one per cycle");
        }
        let c = collect(4, &source, plan, 8);
        assert_ne!(a, c, "seed changes the traffic");
    }

    #[test]
    fn trace_replay_reproduces_the_trace_for_any_fleet_size() {
        let trace: Vec<Arrival> = (0..500)
            .filter(|c| c % 3 != 0)
            .map(|c| Arrival { cycle: c, flow: c * 17, tenant: (c % 5) as u16 })
            .collect();
        let plan = EpochPlan { cycles: 500, epoch_len: 64 };
        let source = ArrivalSource::Trace(Arc::new(trace.clone()));
        for producers in [1, 2, 5] {
            assert_eq!(collect(producers, &source, plan, 0), trace, "{producers} producers");
        }
    }

    #[test]
    fn trace_roundtrip() {
        let dir = std::env::temp_dir().join("vpnm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vpnmtrc");
        let path = path.to_str().unwrap();
        let arrivals = vec![
            Arrival { cycle: 0, flow: 9, tenant: 0 },
            Arrival { cycle: 3, flow: 1 << 40, tenant: 0 },
        ];
        write_trace(path, 10, &arrivals).unwrap();
        // All-tenant-0 traces stay in the pre-tenancy V1 byte format.
        assert_eq!(&std::fs::read(path).unwrap()[..8], TRACE_MAGIC);
        assert_eq!(read_trace(path).unwrap(), (10, arrivals));
        std::fs::write(path, b"NOTATRACE").unwrap();
        assert!(read_trace(path).unwrap_err().contains("bad magic"));
    }

    #[test]
    fn hostile_record_counts_are_one_line_errors() {
        let dir = std::env::temp_dir().join("vpnm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hostile.vpnmtrc");
        let path = path.to_str().unwrap();
        let arrivals =
            [Arrival { cycle: 1, flow: 4, tenant: 0 }, Arrival { cycle: 2, flow: 5, tenant: 3 }];
        write_trace(path, 10, &arrivals).unwrap();
        let good = std::fs::read(path).unwrap();
        assert_eq!(good.len(), 24 + 2 * 24, "V2: 24-byte header, 24-byte records");

        let mut huge = good.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let truncated = good[..good.len() - 1].to_vec();
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0; 8]);
        for (label, bytes) in
            [("u64::MAX records", huge), ("truncated", truncated), ("trailing", trailing)]
        {
            std::fs::write(path, &bytes).unwrap();
            let err = read_trace(path).unwrap_err();
            assert!(err.contains("records of 24 bytes"), "{label}: {err}");
            assert!(!err.contains('\n'), "{label}: one line");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corrupted_traces_are_valid_or_one_line_errors() {
        let dir = std::env::temp_dir().join("vpnm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let v1: Vec<Arrival> =
            [1, 2, 7].iter().map(|&c| Arrival { cycle: c, flow: c * 3, tenant: 0 }).collect();
        let v2: Vec<Arrival> = v1.iter().map(|a| Arrival { tenant: 5, ..*a }).collect();
        for (label, arrivals, record) in [("v1", v1, 16), ("v2", v2, 24)] {
            let path = dir.join(format!("sweep-{label}.vpnmtrc"));
            let path = path.to_str().unwrap();
            write_trace(path, 10, &arrivals).unwrap();
            let good = std::fs::read(path).unwrap();
            assert_eq!(good.len(), 24 + arrivals.len() * record, "{label}");

            let mut inputs: Vec<Vec<u8>> = Vec::new();
            for i in 0..good.len() {
                for bit in 0..8 {
                    let mut b = good.clone();
                    b[i] ^= 1 << bit;
                    inputs.push(b);
                }
            }
            for r in 0..arrivals.len() - 1 {
                let mut b = good.clone();
                let at = 24 + r * record;
                b[at..at + 2 * record].rotate_left(record);
                inputs.push(b);
            }
            inputs.extend((0..good.len()).map(|n| good[..n].to_vec()));

            for bytes in &inputs {
                std::fs::write(path, bytes).unwrap();
                match read_trace(path) {
                    Ok((cycles, got)) => {
                        assert!(
                            got.iter().all(|a| a.cycle < cycles),
                            "{label}: cycle past the end"
                        );
                        assert!(got.windows(2).all(|w| w[0].cycle < w[1].cycle), "{label}: order");
                    }
                    Err(e) => assert!(!e.contains('\n'), "{label}: multi-line error {e}"),
                }
            }
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn tenant_tagged_trace_roundtrips_as_v2() {
        let dir = std::env::temp_dir().join("vpnm-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t2.vpnmtrc");
        let path = path.to_str().unwrap();
        let arrivals = vec![
            Arrival { cycle: 1, flow: 4, tenant: 0 },
            Arrival { cycle: 2, flow: 5, tenant: 3 },
        ];
        write_trace(path, 10, &arrivals).unwrap();
        assert_eq!(&std::fs::read(path).unwrap()[..8], TRACE_MAGIC_V2);
        assert_eq!(read_trace(path).unwrap(), (10, arrivals));
    }
}
