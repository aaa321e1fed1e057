//! Stand-alone measurements of single layers, made by replaying what the
//! traced repetition captured: the request stream that entered the
//! memory, and the event lanes that entered the packet buffer.
//!
//! `hash` and `dram` sit inside the controller and cannot be wrapped, so
//! they are timed here on the captured address stream; the fabric and
//! controller comparisons replay the same stream through two engines.
//! Every figure is the median of [`REPEATS`] replays on fresh engines.

use std::hint::black_box;
use std::time::Instant;

use crate::adapter::{self, CapturedEpoch, PipelinedMemory, Request, Topology};
use crate::driver::CapturedLane;
use crate::stats::median;
use crate::trace::{self, Origin};

/// Replays per figure.
pub const REPEATS: usize = 5;

fn median_ns(mut f: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| f() as f64).collect();
    median(&samples)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn elapsed_ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// The addresses of the captured stream, in order.
pub fn addresses(captured: &[CapturedEpoch]) -> Vec<u64> {
    captured
        .iter()
        .flat_map(|e| e.requests.iter().map(|(_, r)| adapter::request_parts(r).0))
        .collect()
}

/// `hash.h3_ns_per_addr`: `HashEngine::hash_batch` in 4096-address calls.
pub fn hash_ns_per_addr(addrs: &[u64], seed: u64) -> f64 {
    let h = adapter::hash_engine(seed);
    let mut out = vec![0u32; 4096];
    let ns = median_ns(|| {
        elapsed_ns(|| {
            for chunk in addrs.chunks(4096) {
                adapter::hash_batch(&h, chunk, &mut out[..chunk.len()]);
                black_box(&out);
            }
        })
    });
    ratio(ns, addrs.len() as f64)
}

/// `hash.route_ns_per_addr`: `ChannelSelector::route_batch` likewise.
pub fn route_ns_per_addr(t: &Topology, addrs: &[u64], seed: u64) -> f64 {
    let s = adapter::channel_selector(t, seed).expect("the workload's own fabric geometry");
    let (mut chans, mut locals) = (vec![0u32; 4096], vec![0u64; 4096]);
    let ns = median_ns(|| {
        elapsed_ns(|| {
            for chunk in addrs.chunks(4096) {
                adapter::route_batch(
                    &s,
                    chunk,
                    &mut chans[..chunk.len()],
                    &mut locals[..chunk.len()],
                );
                black_box((&chans, &locals));
            }
        })
    });
    ratio(ns, addrs.len() as f64)
}

/// `dram.ns_per_access`: the hashed command stream replayed on a bare
/// `DramDevice`, each command issued as soon as its bank is free.
pub fn dram_ns_per_access(captured: &[CapturedEpoch], seed: u64) -> f64 {
    let h = adapter::hash_engine(seed);
    let (addrs, writes): (Vec<u64>, Vec<bool>) = captured
        .iter()
        .flat_map(|e| e.requests.iter())
        .map(|(_, r)| {
            let (addr, write, _) = adapter::request_parts(r);
            (addr, write)
        })
        .unzip();
    let mut banks = vec![0u32; addrs.len()];
    adapter::hash_batch(&h, &addrs, &mut banks);
    let payload = adapter::arena(vec![0xA5; 64]);
    let ns = median_ns(|| {
        let (mut device, latency) = adapter::dram_device();
        let mut free_at = vec![0u64; 256];
        let mut now = 0u64;
        let ns = elapsed_ns(|| {
            for i in 0..addrs.len() {
                now = (now + 1).max(free_at[banks[i] as usize]);
                let took = adapter::dram_access(
                    &mut device,
                    banks[i],
                    addrs[i],
                    writes[i].then_some(&payload),
                    now,
                );
                debug_assert!(took, "issued only once the bank is free");
                free_at[banks[i] as usize] = now + latency;
            }
        });
        black_box(adapter::dram_stats(&device));
        ns
    });
    ratio(ns, addrs.len() as f64)
}

/// `ring.ns_per_item`: the SPSC ring carrying `batch`-item batches
/// between two threads.
pub fn ring_ns_per_item(batch: usize) -> f64 {
    let batches = 2000;
    let mut items = 0u64;
    let ns = median_ns(|| elapsed_ns(|| items = adapter::ring_ping(batches, batch.max(1))));
    ratio(ns, items as f64)
}

/// `workloads.payload_ns_per_pkt`: `payload_extend` + `payload_matches`
/// for `n` 64-byte cells.
pub fn payload_ns_per_pkt(n: usize) -> f64 {
    let mut buf = Vec::with_capacity(64);
    let ns = median_ns(|| {
        elapsed_ns(|| {
            for i in 0..n {
                buf.clear();
                adapter::payload_extend(i as u32 & 0xFFFF, i as u64 >> 16, 64, &mut buf);
                black_box(adapter::payload_matches(i as u32 & 0xFFFF, i as u64 >> 16, 64, &buf));
            }
        })
    });
    ratio(ns, n as f64)
}

/// `workloads.gen_ns_per_req`: the repo's own generator (`HeavyTailFlows`
/// over `flows`, or `UniformAddresses`) for `n` draws.
pub fn gen_ns_per_req(flows: Option<u64>, seed: u64, n: usize) -> f64 {
    let ns = median_ns(|| {
        elapsed_ns(|| {
            black_box(adapter::repo_generator_draws(flows, seed, n));
        })
    });
    ratio(ns, n as f64)
}

/// `packet_buffer.ideal_ns_per_event`: the captured event lanes through a
/// packet buffer on `IdealMemory` — what the buffer costs when the memory
/// under it is a hash map.
pub fn ideal_ns_per_event(lanes: &[CapturedLane], queues: u32, cells_per_queue: u64) -> f64 {
    let events: usize = lanes.iter().map(|l| l.events.len()).sum();
    let ns = median_ns(|| {
        let mut buf = adapter::packet_buffer(adapter::ideal_memory(), queues, cells_per_queue)
            .expect("the traced run's own geometry");
        elapsed_ns(|| {
            for lane in lanes {
                black_box(adapter::run_epoch_arena(&mut buf, lane.len, &lane.events, &lane.arena));
            }
        })
    });
    ratio(ns, events as f64)
}

/// The captured stream, with the dense form of each full epoch built
/// ahead of the timed replay.
pub struct Replay<'a> {
    captured: &'a [CapturedEpoch],
    dense: Vec<Option<Vec<Request>>>,
    /// Requests in the stream.
    pub requests: u64,
}

impl<'a> Replay<'a> {
    /// Prepares `captured` for replay.
    pub fn new(captured: &'a [CapturedEpoch]) -> Self {
        let dense = captured
            .iter()
            .map(|e| {
                (e.requests.len() as u64 == e.len)
                    .then(|| e.requests.iter().map(|(_, r)| r.clone()).collect())
            })
            .collect();
        let requests = captured.iter().map(|e| e.requests.len() as u64).sum();
        Replay { captured, dense, requests }
    }

    /// Drives `mem` through the stream: full epochs through `issue_batch`
    /// when `dense_door` is set, everything else through
    /// `run_epoch_sparse` (the two doors the packet buffer uses). Returns
    /// the wall time.
    pub fn through<M: PipelinedMemory>(&self, mem: &mut M, dense_door: bool) -> u64 {
        elapsed_ns(|| {
            for (e, dense) in self.captured.iter().zip(&self.dense) {
                let report = match dense {
                    Some(d) if dense_door => adapter::issue_batch(mem, d),
                    _ => adapter::run_epoch_sparse(mem, e.len, &e.requests),
                };
                black_box(report);
            }
        })
    }
}

/// Median of the pairwise ratios `a() / b()` over [`REPEATS`] back-to-back
/// pairs, so a slow period on the host lands on both sides of a ratio.
fn paired_ratio(mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> f64 {
    let ratios: Vec<f64> = (0..REPEATS).map(|_| ratio(a() as f64, b() as f64)).collect();
    median(&ratios)
}

/// `fabric.par_speedup` and `fabric.self_ns_per_req`: the captured stream
/// through fresh fabrics of the workload's geometry at one worker
/// (on-thread, traced: fabric span minus controller spans) and at the
/// workload's worker count. Returns `(speedup, self ns per request)`.
pub fn fabric_replays(t: &Topology, replay: &Replay<'_>, seed: u64) -> (f64, f64) {
    let mut self_ns = Vec::new();
    let speedup = paired_ratio(
        || {
            let origin = Origin::start();
            let mut fab = adapter::traced_fabric(&Topology { workers: 1, ..*t }, seed, origin, 0)
                .expect("the workload's own fabric geometry");
            let ns = replay.through(&mut fab, true);
            let mut spans = adapter::TracedEngine::harvest(&fab).spans;
            trace::resolve_parents(&mut spans);
            self_ns.push(trace::self_ns(&spans, "fabric") as f64);
            ns
        },
        || {
            let mut fab =
                adapter::fabric_of(t, seed, |c| c).expect("the workload's own fabric geometry");
            replay.through(&mut fab, true)
        },
    );
    (speedup, ratio(median(&self_ns), replay.requests as f64))
}

/// `fabric.tax_1ch_ratio`: the stream through a one-channel fabric over
/// the same stream through the bare controller.
pub fn fabric_tax_1ch(replay: &Replay<'_>, seed: u64) -> f64 {
    paired_ratio(
        || {
            let mut f =
                adapter::fabric_of(&Topology::BARE, seed, |c| c).expect("design point is valid");
            replay.through(&mut f, true)
        },
        || {
            let mut c = adapter::bare_controller(seed).expect("design point is valid");
            replay.through(&mut c, true)
        },
    )
}

/// `controller.dense_vs_sparse_ratio`: the stream through `issue_batch`
/// over the same stream through `run_epoch_sparse`, on bare controllers.
pub fn dense_vs_sparse(replay: &Replay<'_>, seed: u64) -> f64 {
    let run = |dense_door| {
        let mut c = adapter::bare_controller(seed).expect("design point is valid");
        replay.through(&mut c, dense_door)
    };
    paired_ratio(|| run(true), || run(false))
}
